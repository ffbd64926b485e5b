"""Deterministic discrete-event scheduler coordinating all simulator components.

Simulation time is a plain ``int`` of milliseconds. One grid step corresponds
to ``MS_PER_STEP`` (1000) ms, so the step of a time ``t`` is
``t // MS_PER_STEP``. A single heap ordered by (due time, insertion sequence)
makes every run reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
from heapq import heappop, heappush
from typing import Any, Callable, NamedTuple

MS_PER_STEP = 1000


class SimulationError(RuntimeError):
    """Fatal scheduling or dispatch failure; aborts the run."""


class Event(NamedTuple):
    """Heap entry; ``seq`` is unique, so ordering never compares ``target``."""

    due: int
    seq: int
    target: str
    kind: str
    payload: Any = None


Handler = Callable[["Engine", Event], None]


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
        self._heap: list[Event] = []
        self._seq = 0
        self._handlers: dict[str, Handler] = {}
        self.trace_lines: list[str] | None = [] if trace else None

    def register(self, target: str, handler: Handler) -> None:
        if target in self._handlers:
            raise SimulationError(f"component {target!r} registered twice")
        self._handlers[target] = handler

    def schedule(self, due: int, target: str, kind: str, payload: Any = None) -> Event:
        if due < self.now:
            raise SimulationError(
                f"event {event_name(target, kind)} scheduled at {due}ms in the past (clock {self.now}ms)"
            )
        event = Event(due, self._seq, target, kind, payload)
        self._seq += 1
        heappush(self._heap, event)
        return event

    def run(self, until_ms: int) -> int:
        """Dispatch every event with due <= until_ms, exactly once; returns their number.

        The clock ends at the due time of the last dispatched event and never
        advances past it on an empty queue.
        """
        processed = 0
        while self._heap and self._heap[0].due <= until_ms:
            event = heappop(self._heap)
            self.now = due = event.due
            handler = self._handlers.get(event.target)
            if handler is None:
                raise SimulationError(f"no component registered for event {event_name(event.target, event.kind)}")
            if self.trace_lines is not None:
                self.trace_lines.append(
                    f"{due // MS_PER_STEP},{due % MS_PER_STEP},{event.seq},{event.target},{event.kind}"
                )
            try:
                handler(self, event)
            except SimulationError:
                raise
            except Exception as exc:
                raise SimulationError(
                    f"handler failed on event {event_name(event.target, event.kind)} at {due}ms: {exc}"
                ) from exc
            processed += 1
        return processed


def event_name(target: str, kind: str) -> str:
    return f"{target}/{kind}"
