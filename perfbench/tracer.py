"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces every public function defined in a traced
module with a wrapper, in every module namespace that binds it (the CLI,
``verify`` and ``fidelity`` import names directly, and the package
re-exports them).  A wrapper records one span per call -- name, start,
end, parent -- while the tracer is enabled and calls straight through
otherwise, so the benchmark's own output checks stay out of the figures.

Self time is a span's duration minus the durations of its direct child
spans.  With ``alloc=True`` the tracer also keeps, per function in
``alloc_tracked``, the largest tracemalloc peak above the level at entry;
tracemalloc slows allocation, so that mode runs in its own pass.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable


class _Frame:
    __slots__ = ("index", "start", "child_s", "mem_base", "mem_peak")

    def __init__(self, index: int, start: float):
        self.index = index
        self.start = start
        self.child_s = 0.0
        self.mem_base = 0
        self.mem_peak = 0


class Tracer:
    def __init__(
        self,
        alloc: bool = False,
        alloc_tracked: tuple[str, ...] = (),
        result_counts: dict[str, tuple[str, Callable[[Any], int]]] | None = None,
    ):
        """``result_counts`` maps a counter name to (function name, f): each
        traced call of that function adds f(its return value) to the counter."""
        self.enabled = False
        self.alloc = alloc
        self.alloc_tracked = frozenset(alloc_tracked)
        self.result_counts = result_counts or {}
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0
        self._stack: list[_Frame] = []
        self._restore: list[tuple[ModuleType, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self, modules: dict[str, ModuleType], namespaces: list[ModuleType]) -> None:
        """Wrap the public functions of ``modules`` (short name -> module)
        wherever one of ``namespaces`` binds them."""
        wrappers = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        if self.alloc:
            tracemalloc.start()

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        if self.alloc:
            tracemalloc.stop()

    def _wrap(self, name: str, fn):
        tracer = self
        track_alloc = self.alloc and name in self.alloc_tracked
        counts = [(counter, f) for counter, (target, f) in self.result_counts.items() if target == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, track_alloc)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, track_alloc)
            for counter, f in counts:
                tracer.counters[counter] += f(result)
            return result

        return traced

    # -- spans --------------------------------------------------------

    def _enter(self, name: str, track_alloc: bool) -> _Frame:
        parent = self._stack[-1].index if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent))
        frame = _Frame(len(self.spans) - 1, 0.0)
        if track_alloc:
            current, peak = tracemalloc.get_traced_memory()
            # The peak so far belongs to the enclosing tracked frames.
            for outer in self._stack:
                outer.mem_peak = max(outer.mem_peak, peak)
            tracemalloc.reset_peak()
            frame.mem_base = current
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, name: str, frame: _Frame, track_alloc: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.spans[frame.index] = (name, frame.start, end, self.spans[frame.index][3])
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        else:
            self.top_level_s += duration
        if track_alloc:
            peak = max(tracemalloc.get_traced_memory()[1], frame.mem_peak)
            self.alloc_peak[name] = max(self.alloc_peak[name], peak - frame.mem_base)
            for outer in self._stack:
                outer.mem_peak = max(outer.mem_peak, peak)
