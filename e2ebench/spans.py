"""The harness's own spans: name, start, end, parent and op id.

The traced pass wraps each call into a layer's public function in one
of these (choosing-metrics guide, section 4: in the change that defines
the benchmark the spans live in the benchmark's files, around the calls
into each layer).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

Span = Dict[str, Any]


class SpanLog:
    """An append-only list of spans; nesting follows the ``with`` stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: int, **attrs: Any) -> Iterator[Span]:
        record = self.add(name, op, 0.0, 0.0, **attrs)
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def add(
        self, name: str, op: int, start: float, end: float,
        under: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """Record a span timed elsewhere, as a child of ``under`` or
        else of the innermost open span."""
        parent: Optional[int] = self._stack[-1] if self._stack else None
        if under is not None:
            parent = under["id"]
        record: Span = {
            "id": len(self.spans), "name": name, "op": op,
            "parent": parent, "start": start, "end": end,
        }
        record.update(attrs)
        self.spans.append(record)
        return record


def self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Summed self time per span name: a span's duration minus the part
    of it that its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = {}
    for span in spans:
        own = max(span["end"] - span["start"] - covered[span["id"]], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
