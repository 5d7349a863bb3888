"""In-memory spans around layer calls, self times, percentiles, and a
latency histogram of fixed size.

A span records its name, start, end, parent span, operation id and the
number of calls it covers; a span whose count is set when its call returns
opens with 0 calls, so a call that raised is left out of per-call figures.
Spans stay in a list until the run ends. The harness opens spans around the
calls it makes; in a traced run it also replaces a few module-level names
inside the package with wrappers, so that calls the package makes across its
own layer boundaries get child spans.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

NAME, START, END, PARENT, OP, N = range(6)


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer, self.index = tracer, index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.index)

    def count(self, n: int) -> None:
        """Set the number of calls or rows the span covers."""
        self.tracer.spans[self.index][N] = n


class Tracer:
    """Records spans; ``op`` is the id of the operation now running."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def begin(self, name: str, n: int = 1) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op, n])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter_ns()
        # an exception may have skipped the ends of inner spans
        while self._stack and self._stack.pop() != index:
            pass

    def span(self, name: str, n: int = 1) -> _Span:
        return _Span(self, self.begin(name, n))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def count(self, n: int) -> None:
        pass


class NullTracer:
    """The tracer of an untraced run: same interface, records nothing."""

    op = 0
    _span = _NullSpan()

    def span(self, name: str, n: int = 1) -> _NullSpan:
        return self._span


@contextmanager
def instrumented(tracer: Tracer, targets):
    """Replace ``module.attr`` by a traced wrapper for each (module, attr, span
    name) in ``targets``; restore the originals on exit."""
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0, start
        for c0, c1 in sorted((spans[k][START], spans[k][END]) for k in children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def per_call_times(spans: list[list]) -> dict[str, list[tuple[float, float]]]:
    """For each span name, each span's duration and self time divided by the
    number of calls it covers. Spans of 0 calls, whose call raised before its
    count was set, are left out."""
    out: dict[str, list[tuple[float, float]]] = {}
    for s, self_ns in zip(spans, self_times(spans)):
        if s[N]:
            out.setdefault(s[NAME], []).append(((s[END] - s[START]) / s[N], self_ns / s[N]))
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Histogram:
    """Counts of positive values in log-spaced buckets 0.1% wide, from 100 to
    about 1e12 (nanoseconds: 100 ns to 1000 s). Its memory is allocated once,
    so it stays the same however many values a run adds."""

    LOW = 100.0
    LOG_RATIO = math.log(1.001)
    SIZE = 23100

    def __init__(self):
        self.counts = array("q", bytes(8 * self.SIZE))
        self.n = 0

    def add(self, value: float) -> None:
        k = int(math.log(max(value, self.LOW) / self.LOW) / self.LOG_RATIO)
        self.counts[min(k, self.SIZE - 1)] += 1
        self.n += 1

    def _order_stat(self, rank: int) -> float:
        """The value of rank ``rank`` (0-based), spread evenly over its bucket."""
        seen = 0
        for k, c in enumerate(self.counts):
            if seen + c > rank:
                return self.LOW * math.exp((k + (rank - seen + 0.5) / c) * self.LOG_RATIO)
            seen += c
        raise IndexError(rank)

    def quantile(self, q: float) -> float:
        """Like ``percentile`` over the values added, to within a bucket."""
        pos = (self.n - 1) * q
        lo = math.floor(pos)
        a = self._order_stat(lo)
        b = self._order_stat(min(lo + 1, self.n - 1))
        return a + (b - a) * (pos - lo)
