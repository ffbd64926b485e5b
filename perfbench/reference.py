"""Fixed computations that gauge how fast the host runs right now.

On a shared host the speed available to one process drifts by tens of percent
within minutes: on the 2-vCPU VM this benchmark was built on, 30-second medians
of scenario 4 passes ranged over 1.43x in one process. Each pass is therefore
bracketed by a reference computation that does not touch scadasim, and its
times are scaled by ``speed = nominal_s / measured``: the result is seconds at
the nominal host speed. In that experiment the same medians, scaled by the
interpreter reference, ranged over 1.02x.

A reference must not change with the program under test, so it lives here
and imports nothing from the package. ``nominal_s`` is the reference's median
duration on the host the baseline was measured on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _interpreter() -> float:
    """Heap pushes and pops, dict updates and small strings, like the event loop."""
    t0 = perf_counter()
    heap, table = [], {}
    for i in range(60000):
        heapq.heappush(heap, ((i * 7919) % 1000, i, str(i % 97)))
        table[i % 512] = table.get(i % 512, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - t0


def _array_scan() -> float:
    """Nearest-neighbour scans over a 60000 x 4 float array, like the detectors."""
    points = np.random.default_rng(0).random((60000, 4))
    t0 = perf_counter()
    for j in range(25):
        distances = ((points - points[j]) ** 2).sum(axis=1)
        np.argpartition(distances, 5)
    return perf_counter() - t0


def _mixed() -> float:
    """Both of the above, as a geometric mean: the detectors are partly numpy
    scans and partly interpreter loops. On the 2-vCPU VM it tracked ids_eval
    better than either reference alone: the scaled times of one seed over four
    processes ranged by 2%, against 9% with the array scan alone."""
    return (_interpreter() * _array_scan()) ** 0.5


@dataclass(frozen=True)
class Reference:
    run: Callable[[], float]  # returns the seconds one run took
    nominal_s: float

    def speed(self, before_s: float, after_s: float) -> float:
        """Host speed relative to nominal, from the runs before and after a pass."""
        return self.nominal_s / ((before_s + after_s) / 2)


INTERPRETER = Reference(_interpreter, nominal_s=0.060)
ARRAY_SCAN = Reference(_array_scan, nominal_s=0.065)
MIXED = Reference(_mixed, nominal_s=(INTERPRETER.nominal_s * ARRAY_SCAN.nominal_s) ** 0.5)
