"""In-memory spans around the benchmark's calls into the library.

A span is [name, op, parent, start, end]: ``op`` numbers the operation it
belongs to and ``parent`` indexes the span that was open when it began.
Spans are kept in a list and written out once, when the run ends.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Untraced runs: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, span, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._open: list[int] = []

    def call(self, span, fn, /, *args, **kwargs):
        rec = [span, self.op, self._open[-1] if self._open else -1, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = perf_counter()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: how many, busy seconds, and self seconds (busy
        minus the time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _, _, start, end), inner in zip(self.spans, child):
            agg = out.setdefault(name, {"n": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["n"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - inner
        return out

    def dump(self) -> dict:
        return {"totals": self.totals(), "counts": self.counts, "spans": self.spans}


@contextmanager
def rebound(tracer, lib, specs):
    """Wrap module attributes named in ``specs`` as (module, attribute,
    span name) with spans for as long as the block runs.

    This reaches calls the library makes through names it imported from
    another module, such as ``cli.is_leq``, without editing its source.
    """
    saved = []
    try:
        if tracer.enabled:
            for module_name, attr, span_name in specs:
                module = getattr(lib, module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, _wrap(tracer, span_name, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _wrap(tracer, span, fn):
    def traced(*args, **kwargs):
        return tracer.call(span, fn, *args, **kwargs)

    return traced
