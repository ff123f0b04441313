"""Sharded multigram indexes: horizontal partitioning for parallel query
execution.

FREE's candidate-set guarantee (Soundness, Section 4) holds *per data
unit*: whether a unit belongs to the candidate set of a plan depends
only on that unit's own grams.  Postings can therefore be partitioned
across N independent shards and a plan executed shard-by-shard, with the
global candidate set being the plain union of the per-shard sets — no
cross-shard reconciliation is ever needed.  That property is what lets
query latency scale with cores (the ROADMAP's "as fast as the hardware
allows"): each shard's postings work and candidate confirmation can run
on its own worker.

The partition is **contiguous**: shard ``i`` owns the doc-id range
``ranges[i] = [start, stop)`` and the ranges tile ``[0, n_docs)`` in
order.  Contiguity is load-bearing: per-shard candidate lists are
already sorted in *global* doc-id order, so the union merge is a
concatenation in shard order — deterministic, and it preserves the
global ordering that first-k truncation accounting depends on (see
:func:`repro.engine.executor.merge_shard_candidates`).

Bookkeeping reuses :class:`~repro.index.segmented.Segment` — one
self-contained :class:`~repro.index.multigram.GramIndex` per shard over
local ids plus the local->global id mapping.  The difference from the
segmented index is intent: segments exist for *incremental maintenance*
(add/delete/merge, hence epochs and tombstones); shards exist for
*parallel execution* and are immutable once built.

Like the segmented engine, each shard compiles the logical plan against
its **own** key directory: a gram useful (hence indexed) in one shard
may be useless in another, so per-shard physical plans — and candidate
counts — legitimately differ from the single-index plan.  Soundness
holds shard-by-shard, therefore globally (property-tested by
``tests/test_differential_soundness.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.corpus.document import DataUnit
from repro.corpus.store import CorpusStore, InMemoryCorpus
from repro.errors import IndexBuildError
from repro.index.builder import MultigramIndexBuilder
from repro.index.multigram import GramIndex
from repro.index.parallel import ParallelMultigramBuilder
from repro.index.segmented import Segment
from repro.iomodel.diskmodel import DiskModel
from repro.metrics import QueryMetrics

if TYPE_CHECKING:  # plan layer imports this package: defer.
    from repro.plan.physical import CompiledPlans


def shard_ranges(n_docs: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-even ``[start, stop)`` ranges tiling the corpus.

    The first ``n_docs % n_shards`` shards get one extra document.  When
    ``n_shards > n_docs`` the trailing shards are empty ranges — an
    empty shard is legal (it holds an empty index and contributes no
    candidates), so shard count never needs clamping to corpus size.
    """
    if n_shards < 1:
        raise IndexBuildError("n_shards must be >= 1")
    if n_docs < 0:
        raise IndexBuildError("n_docs must be >= 0")
    base, extra = divmod(n_docs, n_shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class ShardedIndex:
    """An immutable multigram index horizontally partitioned into shards.

    Args:
        shards: one :class:`Segment` per shard, in shard order; their
            ``global_ids`` must be the contiguous ranges produced by
            :func:`shard_ranges` (validated).
    """

    def __init__(self, shards: Sequence[Segment]):
        if not shards:
            raise IndexBuildError("a sharded index needs >= 1 shard")
        self.shards: List[Segment] = list(shards)
        expected_next = 0
        for position, shard in enumerate(self.shards):
            ids = shard.global_ids
            if ids != list(range(expected_next, expected_next + len(ids))):
                raise IndexBuildError(
                    f"shard[{position}] ids are not the contiguous range "
                    f"starting at {expected_next}"
                )
            expected_next += len(ids)

    #: Content version stamp: shards are immutable, so always 0 (the
    #: engine's candidate-cache keys read this uniformly).
    epoch: int = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        corpus: CorpusStore,
        n_shards: int,
        threshold: float = 0.1,
        max_gram_len: int = 10,
        presuf: bool = False,
        build_workers: int = 1,
        builder: Optional[MultigramIndexBuilder] = None,
    ) -> "ShardedIndex":
        """Partition ``corpus`` into ``n_shards`` and index each shard.

        With ``build_workers > 1`` each shard's Algorithm 3.1 passes run
        on the :class:`~repro.index.parallel.ParallelMultigramBuilder`
        map-reduce pool (shards are built one after another; the
        parallelism is inside each build, where the corpus scans are).
        An explicit ``builder`` overrides the threshold/presuf knobs.
        """
        ranges = shard_ranges(len(corpus), n_shards)
        if builder is not None:
            shard_builder: Union[
                MultigramIndexBuilder, ParallelMultigramBuilder
            ] = builder
        elif build_workers > 1:
            shard_builder = ParallelMultigramBuilder(
                threshold=threshold,
                max_gram_len=max_gram_len,
                presuf=presuf,
                workers=build_workers,
            )
        else:
            shard_builder = MultigramIndexBuilder(
                threshold=threshold,
                max_gram_len=max_gram_len,
                presuf=presuf,
            )
        shards: List[Segment] = []
        for start, stop in ranges:
            units = [corpus.get(doc_id) for doc_id in range(start, stop)]
            local = InMemoryCorpus([
                DataUnit(i, unit.text, unit.url)
                for i, unit in enumerate(units)
            ])
            index = shard_builder.build(local)
            shards.append(Segment(list(range(start, stop)), index))
        return cls(shards)

    # -- shape --------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_docs(self) -> int:
        return sum(shard.n_docs for shard in self.shards)

    def doc_ranges(self) -> List[Tuple[int, int]]:
        """The ``[start, stop)`` range each shard owns, in shard order."""
        ranges: List[Tuple[int, int]] = []
        start = 0
        for shard in self.shards:
            ranges.append((start, start + shard.n_docs))
            start += shard.n_docs
        return ranges

    def total_keys(self) -> int:
        return sum(len(shard.index) for shard in self.shards)

    def total_postings(self) -> int:
        return sum(shard.index.stats.n_postings for shard in self.shards)

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard shape summary (CLI reporting and the analyzer)."""
        rows = []
        for position, (start, stop) in enumerate(self.doc_ranges()):
            stats = self.shards[position].index.stats
            rows.append({
                "shard": position,
                "docs": stop - start,
                "doc_range": [start, stop],
                "keys": stats.n_keys,
                "postings": stats.n_postings,
                "corpus_chars": stats.corpus_chars,
            })
        return rows

    # -- queries ------------------------------------------------------------

    def shard_candidates(
        self,
        ordinal: int,
        plans: "CompiledPlans",
        metrics: Optional[QueryMetrics] = None,
        first_k: Optional[int] = None,
    ) -> Tuple[Optional[List[int]], QueryMetrics]:
        """One shard's global candidate ids under the physical plan
        ``plans`` holds for the shard's index (compiled on first use).

        Returns ``(ids, shard_metrics)`` where ``ids`` is ``None`` when
        the shard's physical plan collapsed to a full scan of the shard
        (the caller substitutes the shard's id range).  ``shard_metrics``
        records this shard's postings lookups so the caller can apply
        disk charges and fold per-shard counters deterministically —
        the shard computation itself touches no shared state, which is
        what makes it safe to fan out to a worker.

        ``first_k`` is the per-shard early-exit cap (see
        :func:`~repro.engine.executor.execute_plan`): with contiguous
        shard ranges, capping every shard at ``first_k`` still leaves
        any over-the-cap total detectable by the caller, because a
        truncated shard alone contributes ``first_k`` ids.
        """
        from repro.engine.executor import execute_plan

        shard = self.shards[ordinal]
        shard_metrics = metrics if metrics is not None else QueryMetrics()
        physical = plans.physical(shard.index)
        if physical.is_full_scan:
            return None, shard_metrics
        local = execute_plan(
            physical, shard.index, None, shard_metrics, first_k=first_k
        )
        if local is None:
            return None, shard_metrics
        base = shard.global_ids[0] if shard.global_ids else 0
        return [base + local_id for local_id in local], shard_metrics

    def candidates(
        self,
        plans: "CompiledPlans",
        disk: Optional[DiskModel] = None,
        metrics: Optional[QueryMetrics] = None,
    ) -> Optional[List[int]]:
        """Sorted global candidate ids, or ``None`` for "scan everything".

        The sequential reference path: shards are executed in shard
        order and merged with the deterministic union merge.  The
        parallel fan-out (:mod:`repro.engine.sharded`) must produce an
        identical list — property-tested.
        """
        from repro.engine.executor import execute_plan_sharded

        return execute_plan_sharded(
            plans, self, pool=None, disk=disk, metrics=metrics
        )

    def __repr__(self) -> str:
        return (
            f"ShardedIndex({self.n_shards} shards, {self.n_docs} docs, "
            f"{self.total_keys()} keys)"
        )
