"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the package by replacing module
attributes with wrappers (only while tracing is on) and restoring them
afterwards; nothing under ``src/`` is edited. Each span stores its name,
start, end and the index of the span that was open when it started.
"""

from __future__ import annotations

import bisect
import gzip
import inspect
import json
import math
import time
from contextlib import contextmanager, nullcontext

# Percentiles tried, highest first, when reporting a tail.
TAIL_LADDER = (99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Span store plus the patch/restore bookkeeping of the traced run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.info: dict = {}
        self.missing: list = []
        self.active = False
        self._stack: list = []
        self._patches: list = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(None)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        while self._stack and self._stack.pop() != idx:
            pass

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextmanager
    def recording(self, on: bool = True):
        """Record spans from patched functions only inside this block."""
        before, self.active = self.active, on
        try:
            yield
        finally:
            self.active = before

    def wrap(self, name: str, fn, on_result=None, wrap_apply: bool = False):
        """Return fn recorded as span `name`.

        on_result(bound_arguments, result) -> dict attaches facts to the span.
        wrap_apply records the function's first argument (a linear operator
        callable) as `linalg.operator` spans, so operator applications that
        are not product-operator matvecs are counted too.
        """
        sig = inspect.signature(fn) if on_result else None

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if wrap_apply and args and callable(args[0]):
                args = (self.wrap("linalg.operator", args[0]),) + args[1:]
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.info[idx] = on_result(bound.arguments, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace owner.attr by its traced wrapper; record absent targets."""
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's union."""
        children: dict = {}
        for k, parent in enumerate(self.parent):
            children.setdefault(parent, []).append((self.start[k], self.end[k]))
        return [self_time(self.start[k], self.end[k], children.get(k, ()))
                for k in range(len(self.names))]

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip), times relative to t0."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for k, name in enumerate(self.names):
                rec = {"name": name, "start": self.start[k] - self.t0,
                       "end": self.end[k] - self.t0, "parent": self.parent[k]}
                if k in self.info:
                    rec["info"] = self.info[k]
                f.write(json.dumps(rec) + "\n")


def span(tracer, name: str):
    """tracer.span(name), or a no-op when tracing is off."""
    if tracer is None or not tracer.active:
        return nullcontext()
    return tracer.span(name)


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the length of the union of the child
    intervals, each clipped to [start, end]."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(s, start), min(e, end)) for s, e in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def tail_percentile(samples, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest percentile of TAIL_LADDER with at least `min_beyond` samples
    strictly above its value (nearest-rank). Returns (percentile, value,
    samples beyond). With too few samples for any rung, returns the median
    rung with however many samples lie beyond it.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    for p in TAIL_LADDER:
        value = xs[max(1, math.ceil(round(p * n / 100.0, 9))) - 1]
        beyond = n - bisect.bisect_right(xs, value)
        if beyond >= min_beyond or p == TAIL_LADDER[-1]:
            return p, value, beyond
