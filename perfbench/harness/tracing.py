"""Spans recorded from the benchmark's own code, and summary statistics.

A :class:`Tracer` records one span per call into a layer: name, start,
end, parent span and request id.  Self time (a span's duration minus
the time its child spans cover) is aggregated per span name as each
span closes, so the per-layer totals are exact however many spans are
kept; the span records themselves are kept in memory up to a cap and
written out as JSON lines when the benchmark ends.

The program under test is not modified.  :meth:`Tracer.instrument`
wraps a layer's public function at every module attribute of the
``repro`` package bound to it, for the duration of a ``with`` block,
so calls the layers make into each other are spanned as well as the
calls the benchmark makes.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span recorder with per-name self-time aggregation."""

    def __init__(self, cap: int = 50_000) -> None:
        self.cap = cap
        self.spans: list[tuple] = []
        self.dropped = 0
        # name -> [count, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid=None) -> list:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[4]
        frame = [sid, name, perf_counter(), 0.0, rid,
                 parent[0] if parent is not None else None]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        t1 = perf_counter()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        sid, name, t0, child, rid, parent = frame
        duration = t1 - t0
        if stack:
            stack[-1][3] += duration
        self._add(name, duration, duration - child)
        self._keep((sid, name, t0, t1, parent, rid))

    def record(self, name: str, t0: float, t1: float, rid=None) -> None:
        """A span timed elsewhere (no children, no parent)."""
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        self._add(name, t1 - t0, t1 - t0)
        self._keep((sid, name, t0, t1, None, rid))

    def _add(self, name: str, duration: float, self_time: float) -> None:
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time

    def _keep(self, span: tuple) -> None:
        with self._lock:
            if len(self.spans) < self.cap:
                self.spans.append(span)
            else:
                self.dropped += 1

    @contextmanager
    def span(self, name: str, rid=None):
        frame = self.begin(name, rid)
        try:
            yield frame
        finally:
            self.end(frame)

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        def spanned(*args, **kwargs):
            frame = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(frame)

        spanned.__wrapped__ = fn
        return spanned

    @contextmanager
    def instrument(self, targets):
        """Span every call of each ``(module, attribute, span name)``
        target, wherever a loaded ``repro`` module binds it."""
        patched = []
        try:
            for module_name, attr, name in targets:
                fn = getattr(sys.modules[module_name], attr)
                wrapper = self.wrap(name, fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (
                        mod_name == "repro" or mod_name.startswith("repro.")
                    ):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, fn))
            yield self
        finally:
            for mod, key, fn in reversed(patched):
                setattr(mod, key, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for sid, name, t0, t1, parent, rid in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "rid": rid,
                }) + "\n")
            out.write(json.dumps({
                "dropped": self.dropped,
                "totals": {
                    k: {"count": v[0], "total_s": v[1], "self_s": v[2]}
                    for k, v in sorted(self.totals.items())
                },
            }) + "\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
