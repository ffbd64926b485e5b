"""Deterministic discrete-event scheduler coordinating all simulator components.

Simulation time is a plain ``int`` of milliseconds. One grid step corresponds
to ``MS_PER_STEP`` (1000) ms, so the step of a time ``t`` is
``t // MS_PER_STEP``. A single heap ordered by (due time, insertion sequence)
makes every run reproducible bit for bit.

The heap holds plain ``(due, seq, target, kind, payload)`` tuples; ``seq`` is
unique, so ordering never compares ``target``. A component registers a handler
under its target name, and the handler is called as
``handler(engine, kind, payload)``, with ``engine.now`` set to the due time.

``schedule`` refuses an event due before the clock. A producer whose due time
cannot be in the past by construction may instead push its tuple straight
onto ``engine.heap``, taking its ``seq`` from ``next(engine.seq)``, and so
skip a Python call per event. The network fabric is the one such producer: a
hop is due at max(port busy time, now) + serialization + latency, and the
loader bounds latency at 0 or more, so a hop is never due before now. Every
other event goes through ``schedule``.
"""

from __future__ import annotations

import hashlib
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable

MS_PER_STEP = 1000


class SimulationError(RuntimeError):
    """Fatal scheduling or dispatch failure; aborts the run."""


Handler = Callable[["Engine", str, Any], None]


def derive_seed(root_seed: int, name: str) -> int:
    """Stable per-component sub-seed.

    Hash-based so adding or removing one component never perturbs the random
    stream of another.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Engine:
    """Single-threaded event loop.

    Components register a handler under a unique target name and receive the
    events addressed to them in strict (due, seq) order.
    """

    def __init__(self, trace: bool = False):
        self.now = 0
        # public for producers that cannot schedule in the past (module docstring)
        self.heap: list[tuple[int, int, str, str, Any]] = []
        self.seq = count()
        self._handlers: dict[str, Handler] = {}
        self.trace_lines: list[str] | None = [] if trace else None

    def register(self, target: str, handler: Handler) -> None:
        if target in self._handlers:
            raise SimulationError(f"component {target!r} registered twice")
        self._handlers[target] = handler

    def schedule(self, due: int, target: str, kind: str, payload: Any = None) -> None:
        if due < self.now:
            raise SimulationError(
                f"event {event_name(target, kind)} scheduled at {due}ms in the past (clock {self.now}ms)"
            )
        heappush(self.heap, (due, next(self.seq), target, kind, payload))

    def run(self, until_ms: int) -> int:
        """Dispatch every event with due <= until_ms, exactly once; returns their number.

        The clock ends at the due time of the last dispatched event and never
        advances past it on an empty queue. An event for an unknown target
        fails before its trace line is written; a failing handler fails after.
        """
        heap = self.heap
        handlers = self._handlers
        trace = self.trace_lines
        processed = 0
        while heap and heap[0][0] <= until_ms:
            due, seq, target, kind, payload = heappop(heap)
            self.now = due
            try:
                handler = handlers[target]
                if trace is not None:
                    trace.append(f"{due // MS_PER_STEP},{due % MS_PER_STEP},{seq},{target},{kind}")
                handler(self, kind, payload)
            except SimulationError:
                raise
            except Exception as exc:
                if target not in handlers:
                    raise SimulationError(
                        f"no component registered for event {event_name(target, kind)}") from None
                raise SimulationError(
                    f"handler failed on event {event_name(target, kind)} at {due}ms: {exc}"
                ) from exc
            processed += 1
        return processed


def event_name(target: str, kind: str) -> str:
    return f"{target}/{kind}"
