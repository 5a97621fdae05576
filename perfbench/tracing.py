"""Spans around the calls into each nsrw layer, recorded from outside the
package.

`install()` replaces every public module-level function of the nsrw
modules with a wrapper that records a span (name, start, end, parent,
thread), in every nsrw namespace that holds a reference to it, so calls
across modules (experiments -> solver, tails -> randomization, ...) are
seen. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import asdict, dataclass

# module -> layer; cli and config are orchestration, _rng belongs to the
# randomization layer that draws through it
LAYERS = {
    "spectral": "spectral",
    "randomization": "randomization",
    "_rng": "randomization",
    "data": "data",
    "heat": "heat",
    "tails": "tails",
    "solver": "solver",
    "diagnostics": "diagnostics",
    "checkpoint": "checkpoint",
    "experiments": "experiments",
    "cli": "experiments",
    "config": "experiments",
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self.active = True

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            # a worker thread's first span hangs under whatever the main
            # thread is doing (the pool map that started it)
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, name, layer, parent, threading.get_ident(), start, end)
                )

        return traced

    def by_name(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict:
        """Per-layer self time: each span's duration minus the union of its
        children's intervals (children may run concurrently in threads)."""
        children: dict = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append((s.start, s.end))
        totals: dict = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(s.id, [])):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            totals[s.layer] = totals.get(s.layer, 0.0) + s.duration - covered
        return totals

    def top_level(self) -> list:
        """Spans of non-orchestration layers entered directly from
        orchestration (or from no span at all)."""
        layer_of = {s.id: s.layer for s in self.spans}
        return [
            s for s in self.spans
            if s.layer != "experiments" and layer_of.get(s.parent, "experiments") == "experiments"
        ]

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


def install(tracer: Tracer) -> int:
    """Wrap every public function of the loaded nsrw modules; returns the
    number of functions wrapped."""
    originals = {}
    for short, layer in LAYERS.items():
        module = sys.modules.get(f"nsrw.{short}")
        if module is None:
            continue
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                originals[id(value)] = tracer.wrap(f"{short}.{attr}", layer, value)
    for name, module in list(sys.modules.items()):
        if name != "nsrw" and not name.startswith("nsrw."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return len(originals)
