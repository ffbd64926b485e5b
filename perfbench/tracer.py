"""Outside-in span tracer for the scadasim benchmark.

The tracer wraps public entry points of the package (class methods and
module-level functions) with a function that records one span per call:
name, start, end and the index of the enclosing span. Nothing inside the
package is edited; the wrappers are installed on the live classes and module
namespaces and removed again afterwards, so only the traced passes of a traced
run execute them.

Spans are kept in flat arrays while a pass runs. A span's self time is its
duration minus the durations of its direct children, which nest strictly
inside it because the program is single-threaded.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget all spans; the installed wrappers stay in place."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[int, int] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ------------------------------------------------------------

    def wrap(self, fn, name, size=None):
        """Return ``fn`` wrapped to record a span per call.

        ``name`` is a span name or a callable of the call's positional
        arguments returning one. ``size(args, result)`` gives the units of work
        the call did (records, rows); without it a call counts as one unit.
        """
        name_of = name if callable(name) else None
        fixed_id = None if name_of else self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id if name_of is None else tracer._id(name_of(args))
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            units = 1 if size is None else size(args, result)
            tracer.work[nid] = tracer.work.get(nid, 0) + units
            return result

        return traced

    # -- installing -------------------------------------------------------------

    def patch_method(self, cls, attr: str, size=None, name=None) -> None:
        """Wrap ``cls.attr``; plain functions and classmethods are supported."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            raise AttributeError(f"{cls.__qualname__}.{attr} not found; the tracer needs updating")
        span_name = name or f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, span_name, size))
        else:
            replacement = self.wrap(raw, span_name, size)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def patch_function(self, module, attr: str, size=None, name=None) -> None:
        """Wrap a module-level function in every scadasim module that binds it."""
        original = getattr(module, attr, None)
        if original is None:
            raise AttributeError(f"{module.__name__}.{attr} not found; the tracer needs updating")
        wrapped = self.wrap(original, name or attr, size)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "scadasim":
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ------------------------------------------------------------------

    def totals(self) -> "SpanTotals":
        return SpanTotals(self)


class SpanTotals:
    """Per-name call counts, work units and self time of a trace."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        n_names = len(self.names)
        name_id = np.frombuffer(tracer.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.int64)
        duration = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(
            tracer.start, dtype=np.float64
        )
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - children
        self.calls = np.bincount(name_id, minlength=n_names)
        self.self_s = np.bincount(name_id, weights=self_time, minlength=n_names)
        self.work = dict(tracer.work)
        self._name_id = name_id
        self._parent = parent
        self._index = {name: i for i, name in enumerate(self.names)}

    def _ids(self, names) -> list[int]:
        return [self._index[n] for n in names if n in self._index]

    def count(self, *names: str) -> int:
        return int(sum(self.calls[i] for i in self._ids(names)))

    def units(self, *names: str) -> int:
        return int(sum(self.work.get(i, 0) for i in self._ids(names)))

    def self_seconds(self, *names: str) -> float:
        return float(sum(self.self_s[i] for i in self._ids(names)))

    def count_under(self, parent_name: str, predicate) -> int:
        """Spans whose direct parent is ``parent_name`` and whose name passes ``predicate``."""
        pid = self._index.get(parent_name)
        if pid is None:
            return 0
        wanted = np.array([predicate(n) for n in self.names], dtype=bool)
        has_parent = self._parent >= 0
        parent_is = np.zeros(len(self._parent), dtype=bool)
        parent_is[has_parent] = self._name_id[self._parent[has_parent]] == pid
        return int(np.count_nonzero(parent_is & wanted[self._name_id]))
