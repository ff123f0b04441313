"""Physical plan execution: postings operations -> candidate set.

Evaluates the Boolean plan bottom-up with the set operations of
:mod:`repro.index.postings`.  AND nodes run the streaming *leapfrog*
kernel over postings cursors — children are ordered by their directory
counts (no decode needed to know selectivity), and blocked (FREEIDX2)
postings decode lazily, skipping whole blocks the intersection can
never land in.  OR nodes use the heap merge over fully decoded lists.
The result is either a sorted candidate id list or ``None``, meaning
"every data unit" — the executor deliberately never materializes the
full id range so a NULL plan costs nothing and the engine can choose a
sequential scan instead.

Postings reads are charged to the :class:`DiskModel` so the simulated
cost of a query includes its index I/O, not only its unit reads.  When a
:class:`~repro.metrics.QueryMetrics` is supplied, every lookup (with its
decoded size and decoded-cache status) and every AND/OR input->output
size is recorded — the raw material of ``free explain --analyze``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import PlanError
from repro.index.multigram import GramIndex
from repro.index.postings import (
    PYTHON_KERNEL,
    BlockCursor,
    ListCursor,
    PostingsCursor,
    PostingsKernel,
)
from repro.iomodel.diskmodel import DiskModel
from repro.metrics import QueryMetrics
from repro.obs.trace import maybe_span
from repro.plan.physical import (
    PAll, PAnd, PLookup, POr, PhysNode, PhysicalPlan,
)


def execute_plan(
    plan: PhysicalPlan,
    index: GramIndex,
    disk: Optional[DiskModel] = None,
    metrics: Optional[QueryMetrics] = None,
    first_k: Optional[int] = None,
    kernel: Optional[PostingsKernel] = None,
) -> Optional[List[int]]:
    """Evaluate ``plan`` to a sorted candidate id list.

    Returns ``None`` when the plan is (or collapses to) ALL — the caller
    must fall back to scanning every unit.

    ``first_k`` caps the result at its first ``first_k`` candidates
    (a sorted prefix of the full set, threaded into the intersection
    kernel for early exit).  It is an *upper-bound probe*, not a sound
    truncation: only pass it when a result of exactly ``first_k`` ids
    is treated as "too many" and discarded — the engine's
    ``min_candidate_ratio`` guard is the intended caller.

    ``kernel`` runs the AND/OR set operations; it defaults to the one
    :class:`~repro.index.postings.PostingsKernel` (callers holding an
    engine may pass its ``engine.kernel``, the same object).
    """
    if kernel is None:
        kernel = PYTHON_KERNEL
    if metrics is not None and metrics.kernel_backend is None:
        metrics.kernel_backend = kernel.name
    root = plan.root
    result = _evaluate(root, index, disk, metrics, first_k, kernel)
    if result is None:
        return None
    if isinstance(root, PLookup):
        # Single-lookup plans return the index's cached decode; copy so
        # callers own their list (cached lists are shared and
        # immutable).  Merged AND/OR output is already fresh.
        return result[:first_k] if first_k is not None else list(result)
    return result


def _lookup_cursor(
    key: str,
    index: GramIndex,
    disk: Optional[DiskModel],
    metrics: Optional[QueryMetrics],
) -> PostingsCursor:
    """Open one postings cursor for an AND input, with full accounting."""
    trace = metrics.trace if metrics is not None else None
    with maybe_span(trace, "postings_fetch", gram=key) as span:
        lookup_cursor = getattr(index, "lookup_cursor", None)
        if lookup_cursor is not None:
            cursor: PostingsCursor = lookup_cursor(key, metrics)
        else:  # duck-typed index (e.g. SuffixArrayIndex): no ids cache
            plist = index.lookup(key)
            ids = plist.ids()
            if metrics is not None:
                metrics.record_lookup(
                    key, len(ids), from_cache=False, n_bytes=plist.nbytes
                )
            cursor = ListCursor(ids)
        if disk is not None:
            disk.charge_postings(cursor.count)
        if span is not None:
            span.attrs["n_ids"] = cursor.count
            span.attrs["lazy"] = isinstance(cursor, BlockCursor)
    return cursor


def _evaluate(
    node: PhysNode,
    index: GramIndex,
    disk: Optional[DiskModel],
    metrics: Optional[QueryMetrics] = None,
    first_k: Optional[int] = None,
    kernel: PostingsKernel = PYTHON_KERNEL,
) -> Optional[List[int]]:
    if isinstance(node, PAll):
        return None
    if isinstance(node, PLookup):
        trace = metrics.trace if metrics is not None else None
        with maybe_span(trace, "postings_fetch", gram=node.key) as span:
            lookup_ids = getattr(index, "lookup_ids", None)
            if lookup_ids is not None:
                ids = lookup_ids(node.key, metrics)
            else:  # duck-typed index (e.g. SuffixArrayIndex): no ids cache
                plist = index.lookup(node.key)
                ids = plist.ids()
                if metrics is not None:
                    metrics.record_lookup(
                        node.key,
                        len(ids),
                        from_cache=False,
                        n_bytes=plist.nbytes,
                    )
            if disk is not None:
                disk.charge_postings(len(ids))
            if span is not None:
                span.attrs["n_ids"] = len(ids)
        return ids
    if isinstance(node, PAnd):
        # ALL children are identities for AND; evaluate the rest.
        # Lookup children become cursors (lazy for blocked postings);
        # anything else is evaluated to a list and wrapped.  The
        # kernel orders the inputs smallest-count-first.
        cursors: List[PostingsCursor] = []
        for child in node.children:
            if isinstance(child, PLookup):
                cursors.append(_lookup_cursor(child.key, index, disk, metrics))
            else:
                result = _evaluate(child, index, disk, metrics, kernel=kernel)
                if result is not None:
                    cursors.append(ListCursor(result))
        if not cursors:
            return None
        merged = kernel.intersect_cursors(cursors, limit=first_k)
        if metrics is not None:
            metrics.record_intersection(
                sum(cursor.count for cursor in cursors), len(merged)
            )
        return merged
    if isinstance(node, POr):
        child_sets = []
        for child in node.children:
            result = _evaluate(child, index, disk, metrics, kernel=kernel)
            if result is None:
                return None  # one unconstrained branch floods the OR
            child_sets.append(result)
        merged = kernel.union_many(child_sets, limit=first_k)
        if metrics is not None:
            metrics.record_union(
                sum(len(s) for s in child_sets), len(merged)
            )
        return merged
    raise PlanError(f"unknown physical node {type(node).__name__}")
