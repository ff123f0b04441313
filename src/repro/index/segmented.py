"""Segmented multigram indexes: incremental maintenance for FREE.

The paper builds its index once over a frozen crawl; a deployed engine
needs to *keep* indexing as the crawler delivers pages.  This module
adds the standard production answer (the Lucene/codesearch segment
architecture) on top of the paper's index:

* the corpus is covered by **segments**, each a self-contained
  :class:`~repro.index.multigram.GramIndex` over its own documents;
* **adding** documents builds a new small segment (no rebuild);
* **deleting** a document sets a tombstone (no rebuild);
* a **merge policy** bounds segment count by rebuilding the smallest
  segments together, amortizing to the paper's single-index shape.

Query-time, each segment compiles the logical plan against *its own*
key directory — a gram useful (hence indexed) in one segment may be
useless in another, so per-segment physical plans differ; soundness
holds segment-by-segment, therefore globally (property-tested).  A
segment's index never changes, so the engine's plan cache compiles it
once per pattern and reuses the plan for the segment's lifetime.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Set,
    Tuple, Union,
)

from repro.corpus.document import DataUnit
from repro.corpus.store import CorpusStore, InMemoryCorpus
from repro.errors import IndexBuildError
from repro.index.builder import MultigramIndexBuilder
from repro.index.multigram import GramIndex
from repro.iomodel.diskmodel import DiskModel
from repro.metrics import QueryMetrics

if TYPE_CHECKING:  # plan/engine layers import this package: defer.
    from repro.obs.registry import MetricsRegistry
    from repro.plan.physical import CompiledPlans, CoverPolicy, PhysicalPlan


class Segment:
    """One immutable index part plus its tombstone set."""

    def __init__(self, global_ids: Sequence[int], index: GramIndex):
        if len(global_ids) != index.n_docs:
            raise IndexBuildError(
                f"segment covers {len(global_ids)} docs but its index "
                f"was built over {index.n_docs}"
            )
        self.global_ids: List[int] = list(global_ids)
        self.index = index
        self.deleted: Set[int] = set()  # global ids
        #: Image file name when this segment is a sealed on-disk image
        #: (set by the ingest lifecycle); None for in-memory segments.
        self.file_name: Optional[str] = None

    @property
    def n_docs(self) -> int:
        return len(self.global_ids)

    @property
    def n_live(self) -> int:
        return len(self.global_ids) - len(self.deleted)

    def live_global_ids(self) -> List[int]:
        return [gid for gid in self.global_ids if gid not in self.deleted]

    def candidates(
        self,
        physical: "PhysicalPlan",
        disk: Optional[DiskModel] = None,
        metrics: Optional[QueryMetrics] = None,
        first_k: Optional[int] = None,
    ) -> List[int]:
        """Global candidate ids in this segment (tombstones excluded)
        under ``physical``, a plan compiled for this segment's index;
        ``first_k`` caps the local ids read (see
        :meth:`SegmentedGramIndex.candidates`)."""
        from repro.engine.executor import execute_plan

        if physical.is_full_scan:
            return self.live_global_ids()
        local = execute_plan(
            physical, self.index, disk, metrics, first_k=first_k
        )
        if local is None:
            return self.live_global_ids()
        out = []
        for local_id in local:
            gid = self.global_ids[local_id]
            if gid not in self.deleted:
                out.append(gid)
        return out

    def __repr__(self) -> str:
        return (
            f"Segment({self.n_docs} docs, {len(self.deleted)} deleted, "
            f"{len(self.index)} keys)"
        )


class SegmentedGramIndex:
    """A growable multigram index made of independent segments."""

    def __init__(self, builder: Optional[MultigramIndexBuilder] = None):
        self.builder = builder or MultigramIndexBuilder()
        self.segments: List[Segment] = []
        self._segment_of: Dict[int, Segment] = {}
        #: Content version: bumped on every add/delete/merge so engine
        #: answer caches keyed on it can never serve stale results.
        self.epoch = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        corpus: CorpusStore,
        segment_docs: int = 256,
        builder: Optional[MultigramIndexBuilder] = None,
    ) -> "SegmentedGramIndex":
        """Index ``corpus`` in fixed-size segments."""
        if segment_docs < 1:
            raise IndexBuildError("segment_docs must be >= 1")
        seg_index = cls(builder)
        batch: List[DataUnit] = []
        for unit in corpus:
            batch.append(unit)
            if len(batch) == segment_docs:
                seg_index.add_documents(batch)
                batch = []
        if batch:
            seg_index.add_documents(batch)
        return seg_index

    def add_documents(self, units: Sequence[DataUnit]) -> Segment:
        """Create one new segment holding ``units`` (their global doc
        ids must be unique across the whole segmented index)."""
        if not units:
            raise IndexBuildError("cannot add an empty segment")
        for unit in units:
            if unit.doc_id in self._segment_of:
                raise IndexBuildError(
                    f"doc id {unit.doc_id} is already indexed"
                )
        local = InMemoryCorpus([
            DataUnit(i, unit.text, unit.url)
            for i, unit in enumerate(units)
        ])
        index = self.builder.build(local)
        segment = Segment([unit.doc_id for unit in units], index)
        self.segments.append(segment)
        for unit in units:
            self._segment_of[unit.doc_id] = segment
        self.epoch += 1
        return segment

    def delete(self, doc_id: int) -> bool:
        """Tombstone a document; False if unknown or already deleted."""
        segment = self._segment_of.get(doc_id)
        if segment is None or doc_id in segment.deleted:
            return False
        segment.deleted.add(doc_id)
        self.epoch += 1
        return True

    # -- maintenance --------------------------------------------------------

    def merge_segments(
        self,
        max_segments: int,
        corpus: CorpusStore,
    ) -> int:
        """Rebuild the smallest segments together until at most
        ``max_segments`` remain; purges tombstones.  Returns the number
        of merge operations performed."""
        if max_segments < 1:
            raise IndexBuildError("max_segments must be >= 1")
        merges = 0
        while len(self.segments) > max_segments:
            self.segments.sort(key=lambda s: s.n_live)
            first, second = self.segments[0], self.segments[1]
            live_ids = sorted(
                first.live_global_ids() + second.live_global_ids()
            )
            units = [corpus.get(gid) for gid in live_ids]
            self.segments = self.segments[2:]
            for segment in (first, second):
                for gid in segment.global_ids:
                    self._segment_of.pop(gid, None)
            if units:
                self.add_documents(units)
            else:
                self.epoch += 1  # pure removal still changes contents
            merges += 1
        return merges

    # -- queries -------------------------------------------------------------

    def segment_assignments(self) -> Dict[int, Segment]:
        """Copy of the doc-id -> segment routing table.

        Exposed for diagnostics and the static analyzer
        (:func:`repro.analysis.index_checks.check_segmented_index`),
        which cross-checks it against every segment's ``global_ids``.
        """
        return dict(self._segment_of)

    @property
    def n_docs(self) -> int:
        return sum(segment.n_docs for segment in self.segments)

    @property
    def n_live(self) -> int:
        return sum(segment.n_live for segment in self.segments)

    @property
    def n_deleted(self) -> int:
        return self.n_docs - self.n_live

    def snapshot(self) -> Tuple[List[Segment], Optional[List[int]]]:
        """(segments, unindexed live ids) for one query to read.

        Every document of a plain segmented index is in a segment, so
        the second item is None; an index that also holds documents no
        segment covers yet (the ingest memtable) lists them instead.
        """
        return self.segments, None

    def candidates(
        self,
        plans: "CompiledPlans",
        disk: Optional[DiskModel] = None,
        metrics: Optional[QueryMetrics] = None,
        first_k: Optional[int] = None,
    ) -> Optional[List[int]]:
        """Sorted global candidate ids, or None for "scan everything".

        The one per-part query loop: each segment runs the physical
        plan ``plans`` holds for its index (compiled once per segment,
        then reused), maps local ids to global ids and drops its
        tombstones; unindexed documents join wholesale.  None is only
        returned when every segment's plan degenerated to a full scan,
        no segment has tombstones and every document is in a segment —
        otherwise the explicit id list is required for correctness.

        ``first_k`` is the engine's ``min_candidate_ratio`` early-exit
        cap.  Each segment reads at most ``first_k`` plus its tombstone
        count local ids, so a truncated segment still yields at least
        ``first_k`` live ids: the merged total reaches the cap exactly
        when the exhaustive total would, and the caller's scan
        fallback fires either way.
        """
        segments, unindexed = self.snapshot()
        merged: List[int] = list(unindexed or ())
        scan_all = unindexed is None
        for segment in segments:
            physical = plans.physical(segment.index, metrics)
            if not physical.is_full_scan or segment.deleted:
                scan_all = False
            bound = (
                None if first_k is None else first_k + len(segment.deleted)
            )
            merged.extend(segment.candidates(physical, disk, metrics, bound))
        if scan_all:
            return None
        merged.sort()
        return merged

    def total_keys(self) -> int:
        return sum(len(segment.index) for segment in self.segments)

    def total_postings(self) -> int:
        return sum(
            segment.index.stats.n_postings for segment in self.segments
        )

    def __repr__(self) -> str:
        return (
            f"SegmentedGramIndex({len(self.segments)} segments, "
            f"{self.n_live}/{self.n_docs} live docs, "
            f"{self.total_keys()} keys)"
        )


from repro.engine.free import FreeEngine  # noqa: E402  (import cycle:
# the engine layer imports this module's index classes at type-check
# time only, so the runtime import must sit below their definitions)


class SegmentedFreeEngine(FreeEngine):
    """FREE's runtime over a segmented index (supports add/delete).

    The one engine over a list of index parts — ingest directories,
    in-memory segmented indexes and sharded (FREESHRD) images alike: a
    :class:`~repro.engine.free.FreeEngine` subclass that plans per
    segment, merges candidates in the ``_candidates`` hook, and
    inherits the whole confirmation, caching, metrics, batching, and
    lifecycle surface — including ``close`` and context management,
    which the serve stack needs.

    Args:
        corpus: the live documents (segments address it by global id).
        seg_index: the segmented (or sharded) index to execute against.
        owned: an optional closeable (e.g. an
            :class:`~repro.index.ingest.IngestDirectory`) whose
            lifetime this engine manages; closed by :meth:`close`.
        Remaining arguments as for :class:`FreeEngine` (``index`` is
        managed per segment and must not be passed).
    """

    def __init__(
        self,
        corpus: CorpusStore,
        seg_index: SegmentedGramIndex,
        disk: Optional[DiskModel] = None,
        cover_policy: Union["CoverPolicy", str] = "all",
        distribute: bool = False,
        answer_cache_bytes: int = 0,
        min_candidate_ratio: Optional[float] = None,
        plan_cache_size: int = 128,
        matcher_cache_size: int = 128,
        registry: Optional["MetricsRegistry"] = None,
        owned: Optional[Any] = None,
    ):
        if not isinstance(seg_index, SegmentedGramIndex):
            raise IndexBuildError(
                "SegmentedFreeEngine requires a SegmentedGramIndex; got "
                f"{type(seg_index).__name__}"
            )
        super().__init__(
            corpus,
            index=None,
            disk=disk,
            cover_policy=cover_policy,
            min_candidate_ratio=min_candidate_ratio,
            distribute=distribute,
            plan_cache_size=plan_cache_size,
            answer_cache_bytes=answer_cache_bytes,
            matcher_cache_size=matcher_cache_size,
            registry=registry,
        )
        self.seg_index = seg_index
        self._owned = owned

    @property
    def name(self) -> str:
        return "segmented"

    def _cache_epoch(self) -> int:
        return self.seg_index.epoch

    def _scan_units(self) -> Iterator[DataUnit]:
        """The sequential scan minus tombstoned documents, which an
        in-memory corpus still holds (an ingest corpus drops them)."""
        segments, _unindexed = self.seg_index.snapshot()
        deleted = set().union(*(segment.deleted for segment in segments))
        for unit in self.corpus:
            if unit.doc_id not in deleted:
                self.disk.charge_sequential(len(unit.text))
                yield unit

    def _candidates(
        self,
        pattern: str,
        metrics: Optional[QueryMetrics] = None,
        first_k: Optional[int] = None,
    ) -> Optional[List[int]]:
        from repro.obs.trace import maybe_span

        trace = metrics.trace if metrics is not None else None
        with maybe_span(trace, "plan"):
            plans = self._compiled_plans(pattern, metrics, trace)
        with maybe_span(
            trace, "postings", segments=len(self.seg_index.segments)
        ):
            return self.seg_index.candidates(
                plans, self.disk, metrics, first_k=first_k
            )

    def explain(
        self,
        pattern: str,
        analyze: bool = False,
        trace: bool = False,
    ) -> str:
        """Logical plan plus every segment's physical plan.

        Per-segment plans legitimately differ: each segment compiles
        against its own key directory (a gram useful in one segment may
        be useless in another).  The plans shown are the cached ones
        queries execute.
        """
        plans = self._compiled_plans(pattern)
        parts = [plans.logical.pretty()]
        for ordinal, segment in enumerate(self.seg_index.segments):
            physical = plans.physical(segment.index)
            if physical.is_full_scan:
                parts.append(f"segment {ordinal}: segment-scan")
            else:
                plan_text = physical.pretty().replace("\n", "\n  ")
                parts.append(f"segment {ordinal}:\n  {plan_text}")
        memtable = getattr(self.seg_index, "memtable", None)
        if memtable:
            parts.append(f"memtable: {len(memtable)} unindexed docs")
        if analyze:
            report = self.search(pattern, collect_matches=False, trace=trace)
            parts.append(self._analyze_text(report, None))
            if report.trace is not None:
                parts.append(report.trace.render())
        return "\n".join(parts)

    def close(self) -> None:
        """Drop caches and close the owned ingest directory, if any.

        Idempotent, like every engine close; errors from the owned
        resource propagate (never swallowed on a close path)."""
        owned, self._owned = self._owned, None
        if owned is not None:
            owned.close()
        super().close()

    def __repr__(self) -> str:
        return (
            f"SegmentedFreeEngine({len(self.seg_index.segments)} segments, "
            f"epoch {self.seg_index.epoch})"
        )
