"""Query-path observability: per-query metrics and LRU caches.

The ROADMAP's production goal is heavy repeated-query traffic, where two
things matter that the paper's one-shot evaluation never measures:

* **caching** — real workloads re-issue the same patterns, so the plan
  (parse + compile) and even the materialized candidate set can be
  reused (:class:`LRUCache` is the shared bounded-memory machinery);
* **observability** — a flat wall-time number cannot explain *why* a
  query was slow; :class:`QueryMetrics` records per-stage counters
  (cache hits, postings decoded, intersection shrinkage, prefilter
  rejects, phase timings) and rides along on every
  :class:`~repro.engine.results.SearchReport`.

This module is dependency-free so every layer (engine, executor, index,
I/O model) can import it without cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

if TYPE_CHECKING:  # import-free at runtime: obs stays optional here
    from repro.obs.trace import Trace


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``capacity == 0`` disables the cache entirely: every ``get`` misses
    and ``put`` is a no-op, so callers never need a separate "caching
    off" code path.  Hit/miss/eviction counters are kept for reporting
    (cache hit rate is a first-class benchmark output).

    Values must not be ``None`` — ``get`` uses ``None`` as its miss
    default (store a sentinel for "legitimately empty" entries).
    """

    __slots__ = ("capacity", "_data", "hits", "misses", "evictions")

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("LRU capacity must be >= 0")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        if self.capacity == 0:
            self.misses += 1
            return default
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        # Membership test without touching recency or counters.
        return key in self._data

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "capacity": self.capacity,
            "entries": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:
        return (
            f"LRUCache({len(self._data)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )


@dataclass
class LookupRecord:
    """One postings-list read during plan execution."""

    key: str
    n_ids: int
    from_cache: bool  # decoded-ids cache hit (no varint decode ran)
    #: Blocked (FREEIDX2) lookup: the list was *opened* but not decoded
    #: — blocks decode on demand and are charged separately via
    #: :meth:`QueryMetrics.record_block_decode`.
    lazy: bool = False


@dataclass
class QueryMetrics:
    """Per-stage counters for one query execution.

    Tri-state cache flags are ``None`` when that cache was never
    consulted (e.g. the candidate cache is disabled, or the query went
    down the scan path), ``True``/``False`` for hit/miss.

    Attributes:
        plan_cache_hit: the query compiled no plan — its logical plan
            and every physical plan it ran came from the plan cache.
        candidate_cache_hit: materialized candidate-id list served
            from LRU (the whole postings phase was skipped).
        matcher_cache_hit: compiled automaton served from LRU.
        lookups: one :class:`LookupRecord` per index lookup executed.
        postings_entries_decoded: postings entries varint-decoded (cache
            hits decode nothing).
        postings_cache_hits/misses: decoded-ids cache behaviour.
        intersect_input/intersect_output: summed AND input/output sizes.
        union_input/union_output: summed OR input/output sizes.
        prefilter_rejected: units rejected by the anchoring literal
            prefilter before any automaton ran.
        units_confirmed: units the automaton actually scanned.
        optimizer_fallback: the min_candidate_ratio guard discarded the
            candidate set and chose a sequential scan.
        phase_seconds: wall time per phase ("plan", "execute").
        sequential_chars/random_chars/random_accesses/postings_charged:
            mirror of the DiskModel charges made while this query was
            attached (its share of simulated I/O).
    """

    plan_cache_hit: Optional[bool] = None
    candidate_cache_hit: Optional[bool] = None
    matcher_cache_hit: Optional[bool] = None

    #: Name of the postings kernel that ran this query's set
    #: operations (always "python"); None when no engine or executor
    #: stamped it.
    kernel_backend: Optional[str] = None

    #: Batch execution (``FreeEngine.search_batch``): ``True`` when this
    #: query reused a candidate set computed earlier in the same batch
    #: (its postings phase never ran), ``False`` when it computed the
    #: set its plan group shares, ``None`` outside batch execution.
    batch_candidates_reused: Optional[bool] = None

    lookups: List[LookupRecord] = field(default_factory=list)
    postings_entries_decoded: int = 0
    postings_bytes_decoded: int = 0
    postings_cache_hits: int = 0
    postings_cache_misses: int = 0

    #: Blocked (FREEIDX2) postings: blocks actually varint-decoded vs
    #: blocks the skip table let the intersection kernel jump over
    #: without touching their bytes.
    postings_blocks_decoded: int = 0
    postings_blocks_skipped: int = 0

    intersect_input: int = 0
    intersect_output: int = 0
    union_input: int = 0
    union_output: int = 0

    prefilter_rejected: int = 0
    units_confirmed: int = 0
    optimizer_fallback: bool = False

    phase_seconds: Dict[str, float] = field(default_factory=dict)

    sequential_chars: int = 0
    random_chars: int = 0
    random_accesses: int = 0
    postings_charged: int = 0

    #: The active request trace, riding along so every layer the
    #: metrics object reaches (executor, index, segments) can open
    #: spans without signature changes.  ``None`` when tracing is off
    #: (the common case) — call sites must treat it as optional.
    trace: Optional["Trace"] = field(
        default=None, repr=False, compare=False
    )

    # -- recording hooks (called by executor / index / disk model) --------

    def record_lookup(
        self,
        key: str,
        n_ids: int,
        from_cache: bool,
        n_bytes: int = 0,
        lazy: bool = False,
    ) -> None:
        """Record one postings-list read.

        Eager reads (``lazy=False``) charge the whole list's entries —
        and ``n_bytes`` of compressed payload — on a decoded-cache
        miss.  Lazy reads only log the lookup; their decode cost
        arrives block by block via :meth:`record_block_decode` as the
        kernel actually touches bytes.
        """
        self.lookups.append(LookupRecord(key, n_ids, from_cache, lazy))
        if lazy:
            return
        if from_cache:
            self.postings_cache_hits += 1
        else:
            self.postings_cache_misses += 1
            self.postings_entries_decoded += n_ids
            self.postings_bytes_decoded += n_bytes

    def record_block_decode(self, n_ids: int, n_bytes: int) -> None:
        """One postings block was varint-decoded (FREEIDX2 lazy path)."""
        self.postings_blocks_decoded += 1
        self.postings_entries_decoded += n_ids
        self.postings_bytes_decoded += n_bytes

    def record_intersection(self, input_size: int, output_size: int) -> None:
        self.intersect_input += input_size
        self.intersect_output += output_size

    def record_union(self, input_size: int, output_size: int) -> None:
        self.union_input += input_size
        self.union_output += output_size

    def absorb(self, other: "QueryMetrics") -> None:
        """Fold another metrics object's postings-side counters into
        this one (sharded execution: per-shard metrics are recorded in
        isolation, then absorbed in shard order so the merged record is
        deterministic regardless of worker completion order)."""
        self.lookups.extend(other.lookups)
        self.postings_entries_decoded += other.postings_entries_decoded
        self.postings_bytes_decoded += other.postings_bytes_decoded
        self.postings_cache_hits += other.postings_cache_hits
        self.postings_cache_misses += other.postings_cache_misses
        self.postings_blocks_decoded += other.postings_blocks_decoded
        self.postings_blocks_skipped += other.postings_blocks_skipped
        self.intersect_input += other.intersect_input
        self.intersect_output += other.intersect_output
        self.union_input += other.union_input
        self.union_output += other.union_output
        if self.kernel_backend is None:
            self.kernel_backend = other.kernel_backend

    # -- reporting ---------------------------------------------------------

    def lookup_sizes(self) -> Dict[str, Tuple[int, bool]]:
        """Aggregate per-key: (ids returned, any decoded-cache hit)."""
        sizes: Dict[str, Tuple[int, bool]] = {}
        for record in self.lookups:
            previous = sizes.get(record.key)
            cached = record.from_cache or (previous is not None and previous[1])
            sizes[record.key] = (record.n_ids, cached)
        return sizes

    def as_dict(self) -> Dict[str, object]:
        """Flat dict for benchmark rows and structured logging."""
        return {
            "plan_cache_hit": self.plan_cache_hit,
            "candidate_cache_hit": self.candidate_cache_hit,
            "matcher_cache_hit": self.matcher_cache_hit,
            "batch_candidates_reused": self.batch_candidates_reused,
            "kernel_backend": self.kernel_backend,
            "n_lookups": len(self.lookups),
            "postings_entries_decoded": self.postings_entries_decoded,
            "postings_bytes_decoded": self.postings_bytes_decoded,
            "postings_cache_hits": self.postings_cache_hits,
            "postings_cache_misses": self.postings_cache_misses,
            "postings_blocks_decoded": self.postings_blocks_decoded,
            "postings_blocks_skipped": self.postings_blocks_skipped,
            "intersect_input": self.intersect_input,
            "intersect_output": self.intersect_output,
            "union_input": self.union_input,
            "union_output": self.union_output,
            "prefilter_rejected": self.prefilter_rejected,
            "units_confirmed": self.units_confirmed,
            "optimizer_fallback": self.optimizer_fallback,
            "phase_seconds": dict(self.phase_seconds),
            "sequential_chars": self.sequential_chars,
            "random_chars": self.random_chars,
            "random_accesses": self.random_accesses,
            "postings_charged": self.postings_charged,
        }

    def pretty(self) -> str:
        """Multi-line human-readable dump (CLI ``--metrics``)."""

        def flag(value: Optional[bool]) -> str:
            if value is None:
                return "n/a"
            return "hit" if value else "miss"

        lines = [
            "query metrics:",
            f"  caches: plan={flag(self.plan_cache_hit)} "
            f"candidates={flag(self.candidate_cache_hit)} "
            f"matcher={flag(self.matcher_cache_hit)}",
            f"  postings: {len(self.lookups)} lookups, "
            f"{self.postings_entries_decoded} entries decoded "
            f"({self.postings_bytes_decoded} bytes, "
            f"{self.postings_cache_hits} decoded-cache hits)",
            f"  intersections: {self.intersect_input} -> "
            f"{self.intersect_output}; unions: {self.union_input} -> "
            f"{self.union_output}",
            f"  confirmation: {self.units_confirmed} units scanned, "
            f"{self.prefilter_rejected} prefilter-rejected",
            f"  io: {self.random_accesses} random accesses, "
            f"{self.sequential_chars} seq chars, "
            f"{self.postings_charged} postings charged",
        ]
        if self.kernel_backend is not None:
            lines.insert(1, f"  kernel: {self.kernel_backend}")
        if self.postings_blocks_decoded or self.postings_blocks_skipped:
            lines.append(
                f"  blocks: {self.postings_blocks_decoded} decoded, "
                f"{self.postings_blocks_skipped} skipped"
            )
        if self.batch_candidates_reused is not None:
            lines.append(
                "  batch: candidate set "
                + (
                    "reused from plan group"
                    if self.batch_candidates_reused
                    else "computed for plan group"
                )
            )
        if self.optimizer_fallback:
            lines.append(
                "  optimizer: candidate set over min_candidate_ratio; "
                "fell back to sequential scan"
            )
        if self.phase_seconds:
            timing = " ".join(
                f"{name}={seconds * 1000:.2f}ms"
                for name, seconds in self.phase_seconds.items()
            )
            lines.append(f"  timings: {timing}")
        return "\n".join(lines)
