"""Span tracer that wraps limitlearn's public entry points from outside.

A traced round imports limitlearn afresh and replaces every entry point
named in layers.json with a timing wrapper; untraced rounds import the
package untouched, so tracing costs them nothing.

Frames nest on one stack. A frame opened by the benchmark's own code
(``Tracer.span``), or an entry point called directly from such a frame,
becomes a span record: id, name, start, end, parent, unit id. Entry points
that the program calls internally -- Registry.enumerate_to, the learners'
decide and confirmation_stage run millions of times -- only add to their
name's running [calls, total, self] totals; each span record gets the share
of those totals that accrued inside it and not inside a child span ("agg"),
so the trace stays bounded and the hot path stays short.

Self time of a frame is its duration minus the durations of the frames
directly inside it. The self times of all frames therefore add up to the
duration of the outermost span. The wrapper's own cost lands in the self
time of the caller, which is why the traced wall is reported beside the
untraced one.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stand-in for untraced rounds: spans cost one context manager."""

    def span(self, name: str, unit=None):
        return nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.hooks: dict[str, int] = defaultdict(int)
        # frames: [child_s] for a folded call, [child_s, record, is_bench]
        # for a span
        self._stack: list[list] = []

    @property
    def self_s(self) -> dict[str, float]:
        return defaultdict(float, {n: t[2] for n, t in self.totals.items()})

    @property
    def calls(self) -> dict[str, int]:
        return defaultdict(int, {n: t[0] for n, t in self.totals.items()})

    def _totals(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def _open(self, name: str, unit, is_bench: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        if unit is None and parent is not None:
            unit = parent[1]["unit"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent[1]["id"],
            "unit": unit,
            "snap": {n: tuple(t) for n, t in self.totals.items()},
            "inner": {},
        }
        self.spans.append(rec)
        frame = [0.0, rec, is_bench]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        dur = end - start
        own = dur - frame[0]
        if stack:
            stack[-1][0] += dur
        rec = frame[1]
        snap, inner = rec.pop("snap"), rec.pop("inner")
        inside = {}
        agg = {}
        for n, t in self.totals.items():
            before = snap.get(n, (0, 0.0, 0.0))
            if t[0] == before[0]:
                continue
            delta = [t[0] - before[0], t[1] - before[1], t[2] - before[2]]
            inside[n] = delta
            child = inner.get(n, (0, 0.0, 0.0))
            if delta[0] > child[0]:
                agg[n] = [delta[0] - child[0], delta[1] - child[1], delta[2] - child[2]]
        rec.update(agg=agg, start=start - self.t0, end=end - self.t0, self_s=own)
        tot = self._totals(name)
        tot[0] += 1
        tot[1] += dur
        tot[2] += own
        if stack:
            # the parent's agg excludes this span and everything inside it
            outer = stack[-1][1]["inner"]
            inside[name] = [a + b for a, b in zip(inside.get(name, (0, 0.0, 0.0)), (1, dur, own))]
            for n, d in inside.items():
                acc = outer.setdefault(n, [0, 0.0, 0.0])
                acc[0] += d[0]
                acc[1] += d[1]
                acc[2] += d[2]

    @contextmanager
    def span(self, name: str, unit=None):
        frame = self._open(name, unit, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, start, time.perf_counter())

    def wrap(self, fn, name: str, hook: str | None = None):
        stack = self._stack
        clock = time.perf_counter
        hooks = self.hooks
        tot = self._totals(name)

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if len(parent) == 3 and parent[2]:
                frame = self._open(name, None, False)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(frame, name, start, clock())
            else:
                # folded call: this path runs millions of times
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    parent[0] += dur
                    tot[0] += 1
                    tot[1] += dur
                    tot[2] += dur - frame[0]
            if hook is not None:
                hooks[hook] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package, layers: list[dict]) -> None:
        """Wrap every entry point of every layer in a freshly imported package.

        An entry point is ``module:Qualname``; a module-level function is
        also rebound in the package namespace when the package re-exports it.
        """
        for layer in layers:
            for entry in layer["entry_points"]:
                spec, _, hook = entry.partition("#")
                module_name, _, qualname = spec.partition(":")
                module = importlib.import_module(f"{package.__name__}.{module_name}")
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapped = self.wrap(original, qualname, hook or None)
                setattr(owner, attr, wrapped)
                if not owner_name and getattr(package, attr, None) is original:
                    setattr(package, attr, wrapped)


def write_jsonl(path, header: dict, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(header, type="header"), sort_keys=True) + "\n")
        for rec in spans:
            fh.write(json.dumps(dict(rec, type="span"), sort_keys=True) + "\n")
