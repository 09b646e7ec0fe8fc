"""In-memory spans around the benchmark's calls into carlift.

A span covers one call the benchmark makes into a public function of a
carlift module.  It records a name, start and end (``perf_counter``),
its parent span and the item it belongs to.  Spans are only kept in
memory; the runner writes them out once, at the end.

``tracemalloc`` slows allocation-heavy Python several times over, so
allocation peaks are taken in a separate pass (``alloc`` on, spans
off) and never distort span times.  That pass abandons each item once
its assembly call, the last one measured, returns.  With both off,
:meth:`Tracer.call` is a plain call, so the untraced run pays nothing
for the instrumentation.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int


ALLOC_STOP_AFTER = "system.assemble"


class AllocPassDone(Exception):
    """Raised in the allocation pass once the last measured call returned."""


@dataclass
class Tracer:
    enabled: bool = False
    alloc: bool = False
    spans: list[Span] = field(default_factory=list)
    # per item id: {span name: largest tracemalloc peak in MB}
    allocs: dict[int, dict[str, float]] = field(default_factory=dict)
    alloc_seen: bool = False  # a call marked alloc=True ran while tracing
    # per item id: {counter name: summed value}
    counts: dict[int, dict[str, float]] = field(default_factory=dict)
    item: int = -1
    item_pass: dict[int, int] = field(default_factory=dict)  # item id -> pass number
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, fn, *args, alloc: bool = False, **kwargs):
        """Run ``fn(*args, **kwargs)``, inside a span when tracing.

        ``alloc=True`` marks the calls whose allocation peak is taken in
        the allocation pass.
        """
        if self.alloc and alloc:
            tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                per_item = self.allocs.setdefault(self.item, {})
                per_item[name] = max(per_item.get(name, 0.0), peak)
            if name == ALLOC_STOP_AFTER:
                raise AllocPassDone
            return out
        if not self.enabled:
            return fn(*args, **kwargs)
        self.alloc_seen |= alloc
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, start=0.0, end=0.0, parent=parent, item=self.item)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add to a per-item counter (kept in both runs; counters are cheap)."""
        per_item = self.counts.setdefault(self.item, {})
        per_item[name] = per_item.get(name, 0) + value

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per item, per span name: summed self time in seconds.

        Self time is a span's duration minus the part of it covered by
        its child spans.
        """
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        out: dict[int, dict[str, float]] = {}
        for idx, sp in enumerate(self.spans):
            per_item = out.setdefault(sp.item, {})
            own = (sp.end - sp.start) - child_time[idx]
            per_item[sp.name] = per_item.get(sp.name, 0.0) + own
        return out

    def span_records(self) -> list[dict]:
        return [sp.__dict__ for sp in self.spans]


def median_over_items(per_item: dict[int, dict[str, float]], name: str) -> float:
    """Median of one named quantity over the items that recorded it, else 0."""
    values = [vals[name] for vals in per_item.values() if name in vals]
    return float(statistics.median(values)) if values else 0.0
