"""Sharded multigram indexes: the FREESHRD image's contiguous partition.

FREE's candidate-set guarantee (Soundness, Section 4) holds *per data
unit*: whether a unit belongs to the candidate set of a plan depends
only on that unit's own grams.  Postings can therefore be partitioned
across N independent shards, and a plan executed shard by shard, with
the global candidate set being the plain union of the per-shard sets —
no cross-shard reconciliation is ever needed.

A :class:`ShardedIndex` is therefore just an immutable
:class:`~repro.index.segmented.SegmentedGramIndex` whose segments (the
shards) tile ``[0, n_docs)`` in order: shard ``i`` owns the doc-id
range ``doc_ranges()[i] = [start, stop)``.  It is queried by the one
per-part loop (:meth:`SegmentedGramIndex.candidates`) and served by
:class:`~repro.index.segmented.SegmentedFreeEngine` like any other
segment list.  What this module adds is only what the FREESHRD image
format, ``free build --shards`` and the ``free check`` SHD001-003
rules need: contiguous construction and validation, ``doc_ranges``,
``shard_stats``, and the shard list that save/load walk.

Each shard compiles the logical plan against its **own** key
directory: a gram useful (hence indexed) in one shard may be useless in
another, so per-shard physical plans — and candidate counts —
legitimately differ from the single-index plan.  Soundness holds shard
by shard, therefore globally (property-tested by
``tests/test_differential_soundness.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.corpus.document import DataUnit
from repro.corpus.store import CorpusStore, InMemoryCorpus
from repro.errors import IndexBuildError
from repro.index.builder import MultigramIndexBuilder
from repro.index.parallel import ParallelMultigramBuilder
from repro.index.segmented import Segment, SegmentedGramIndex


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


class ShardedIndex(SegmentedGramIndex):
    """An immutable segmented index whose segments tile the corpus.

    Args:
        shards: one :class:`Segment` per shard, in shard order; their
            ``global_ids`` must be the contiguous ranges produced by
            :func:`shard_ranges` (validated).  Nothing adds, merges
            or tombstones a shard (a FREESHRD image is rewritten
            whole), so ``epoch`` stays 0.
    """

    def __init__(self, shards: Sequence[Segment]):
        super().__init__()
        if not shards:
            raise IndexBuildError("a sharded index needs >= 1 shard")
        expected_next = 0
        for position, shard in enumerate(shards):
            ids = shard.global_ids
            if ids != list(range(expected_next, expected_next + len(ids))):
                raise IndexBuildError(
                    f"shard[{position}] ids are not the contiguous range "
                    f"starting at {expected_next}"
                )
            expected_next += len(ids)
        self.segments = list(shards)

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
    def shards(self) -> List[Segment]:
        """The segments, in shard (= global doc-id) order."""
        return self.segments

    @property
    def n_shards(self) -> int:
        return len(self.segments)

    def doc_ranges(self) -> List[Tuple[int, int]]:
        """The ``[start, stop)`` range each shard owns, in shard order."""
        ranges: List[Tuple[int, int]] = []
        start = 0
        for shard in self.shards:
            ranges.append((start, start + shard.n_docs))
            start += shard.n_docs
        return ranges

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

    def __repr__(self) -> str:
        return (
            f"ShardedIndex({self.n_shards} shards, {self.n_docs} docs, "
            f"{self.total_keys()} keys)"
        )
