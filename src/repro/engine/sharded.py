"""ShardedFreeEngine: parallel per-shard query execution.

Soundness (Section 4) holds per data unit, so a query can be answered
shard-by-shard and unioned — :mod:`repro.index.sharded` establishes the
partition, this module supplies the runtime on top of it.  Two execution
paths share one contract (*byte-identical results to the single-shard
sequential engine*, property-tested by
``tests/test_differential_soundness.py``):

* the **sequential path** is plain :class:`~repro.engine.free.FreeEngine`
  execution with the ``_candidates`` hook overridden to run every
  shard's plan in shard order and concatenate (the contiguous partition
  makes shard-ordinal concatenation the sorted union — see
  :func:`repro.engine.executor.merge_shard_candidates`); confirmation
  stays central, so first-k truncation, tracing and candidate caching
  behave exactly like the unsharded engine;
* the **parallel path** (``workers > 1`` with the default ``"process"``
  pool) fans the *whole* per-shard pipeline — plan, postings,
  confirmation — out to a ``concurrent.futures`` worker pool and merges
  the per-shard results **by shard ordinal**, never by completion
  order.  Workers are pure: each charges a private
  :class:`~repro.iomodel.diskmodel.DiskModel` and records a private
  :class:`~repro.metrics.QueryMetrics`; the parent absorbs both in
  shard order, so the merged accounting is deterministic regardless of
  worker timing.

The process pool uses the ``fork`` start method (same pattern as
:class:`~repro.index.parallel.ParallelMultigramBuilder`): workers
inherit the engine — corpus, shards, caches — through a module-level
registry captured at fork time, so nothing is pickled per task beyond
``(token, ordinal, pattern)``.  Engines handed to a process pool are
treated as immutable from that point on.  A forked
:class:`~repro.corpus.store.DiskCorpus` shares its file descriptor's
seek offset with the parent, so each worker reopens the image by path
on its first task.

Queries that need centrally-coordinated state take the sequential path
automatically: first-k limits (global truncation), tracing (the span
tree is single-threaded by design), batch groups (shared candidate
sets), the ``min_candidate_ratio`` optimizer guard and the candidate
cache (both are global decisions).  GIL note: confirmation is
pure-Python automaton work, so only the process pool yields wall-clock
speedup; ``pool="thread"`` exists for the postings phase and for
environments where ``fork`` is unavailable.

One deliberate accounting difference on the parallel path: a shard
whose plan collapses to a shard-scan streams its own contiguous range,
charged as *sequential* I/O — the sequential path reads those same
units by id through the merged candidate list, charged as *random*
accesses.  Matches, counts and unit-read totals are identical either
way; only the simulated I/O split reflects the physically different
access pattern.
"""

from __future__ import annotations

import itertools
import weakref
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.corpus.document import DataUnit
from repro.corpus.store import CorpusStore, DiskCorpus
from repro.engine.executor import merge_shard_candidates
from repro.engine.free import FreeEngine, _BatchGroup
from repro.engine.results import Match, SearchReport
from repro.errors import FreeError, InternalError
from repro.index.sharded import ShardedIndex
from repro.iomodel.diskmodel import DiskModel
from repro.metrics import QueryMetrics
from repro.obs.clock import monotonic
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Trace, maybe_span
from repro.plan.cost import PlanCost
from repro.plan.physical import CoverPolicy

#: Fork-shared engine registry: entries made *before* the pool's workers
#: fork are visible in every worker at the same token.  Keyed by a
#: process-unique token so several engines can coexist.  The values are
#: *weak* references: a strong entry would keep an abandoned engine
#: (one whose ``close()`` was never reached — an exception between
#: construction and close, or a dropped reference) alive forever and
#: the registry unbounded.  Forked children resolve the weakref once on
#: their first task, while the submitting parent necessarily still
#: holds the engine strongly.
_FORK_SHARED: Dict[int, "weakref.ref[ShardedFreeEngine]"] = {}
_TOKENS = itertools.count(1)


def _pop_fork_token(token: int) -> None:
    """Drop one registry entry (close(), or the GC finalizer fallback)."""
    _FORK_SHARED.pop(token, None)

#: Per-worker-process cache of engines whose DiskCorpus has been
#: reopened (fork copies this dict; it then diverges per process).
_CHILD_READY: Dict[int, "ShardedFreeEngine"] = {}


@dataclass
class ShardSearchResult:
    """One shard's complete search outcome (picklable worker payload).

    ``matches`` are in global doc-id order within the shard, so the
    parent's shard-ordinal concatenation reproduces the sequential
    engine's global match order exactly.
    """

    ordinal: int
    n_candidates: int
    used_full_scan: bool
    matches: List[Match] = field(default_factory=list)
    n_matches_found: int = 0
    matching_units: int = 0
    n_units_read: int = 0
    metrics: QueryMetrics = field(default_factory=QueryMetrics)
    disk: DiskModel = field(default_factory=DiskModel)


def _worker_search_shard(
    token: int, ordinal: int, pattern: str, collect_matches: bool
) -> ShardSearchResult:
    """Process-pool entry point: run one shard's full pipeline."""
    engine = _CHILD_READY.get(token)
    if engine is None:
        ref = _FORK_SHARED.get(token)
        engine = ref() if ref is not None else None
        if engine is None:
            raise InternalError(
                f"fork token {token} has no live engine (engine closed "
                f"or collected while its pool was still serving tasks)"
            )
        engine._prepare_forked_worker()
        _CHILD_READY[token] = engine
    return engine._search_shard_local(ordinal, pattern, collect_matches)


class ShardedFreeEngine(FreeEngine):
    """A FreeEngine executing against a :class:`ShardedIndex`.

    Args:
        corpus: the *whole* corpus (shards address it by global id).
        sharded_index: the partitioned index to execute against.
        workers: worker-pool size; 1 (default) runs fully sequential.
        pool: ``"process"`` (default; fork-based, real speedup),
            ``"thread"`` (postings fan-out only; no confirm speedup
            under the GIL), or an already-constructed
            :class:`concurrent.futures.Executor` to share.
        Remaining arguments as for :class:`FreeEngine` (``index`` is
        managed internally and must not be passed).
    """

    def __init__(
        self,
        corpus: CorpusStore,
        sharded_index: ShardedIndex,
        workers: int = 1,
        pool: Union[str, Executor] = "process",
        disk: Optional[DiskModel] = None,
        cover_policy: Union[CoverPolicy, str] = CoverPolicy.ALL,
        min_candidate_ratio: Optional[float] = None,
        distribute: bool = False,
        plan_cache_size: int = 128,
        candidate_cache_size: int = 0,
        matcher_cache_size: int = 128,
        registry: Optional[MetricsRegistry] = None,
    ):
        if not isinstance(sharded_index, ShardedIndex):
            raise FreeError(
                "ShardedFreeEngine requires a ShardedIndex; got "
                f"{type(sharded_index).__name__}"
            )
        if sharded_index.n_docs != len(corpus):
            raise FreeError(
                f"sharded index covers {sharded_index.n_docs} docs but the "
                f"corpus has {len(corpus)}"
            )
        if workers < 1:
            raise FreeError("workers must be >= 1")
        super().__init__(
            corpus,
            index=None,
            disk=disk,
            cover_policy=cover_policy,
            min_candidate_ratio=min_candidate_ratio,
            distribute=distribute,
            plan_cache_size=plan_cache_size,
            candidate_cache_size=candidate_cache_size,
            matcher_cache_size=matcher_cache_size,
            registry=registry,
        )
        self.sharded = sharded_index
        self.workers = workers
        self._pool: Optional[Executor] = None
        self._owns_pool = False
        self._fork_token: Optional[int] = None
        self._fork_finalizer: Optional[weakref.finalize] = None
        if isinstance(pool, Executor):
            self.pool_kind = "external"
            self._pool = pool
        elif pool in ("process", "thread"):
            self.pool_kind = pool
        else:
            raise FreeError(
                f"pool must be 'process', 'thread' or an Executor; "
                f"got {pool!r}"
            )

    @property
    def name(self) -> str:
        return "sharded"

    def _cache_epoch(self) -> int:
        return self.sharded.epoch

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self) -> Executor:
        """Lazily build the worker pool on first parallel query."""
        if self._pool is None:
            if self.pool_kind == "process":
                token = next(_TOKENS)
                # Register BEFORE the pool exists: workers fork lazily
                # on first submit and must find the engine in place.
                # The finalizer is the safety net for engines that are
                # dropped without ever reaching close() — when the
                # engine is collected, its token leaves the registry.
                _FORK_SHARED[token] = weakref.ref(self)
                self._fork_token = token
                self._fork_finalizer = weakref.finalize(
                    self, _pop_fork_token, token
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=get_context("fork"),
                )
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="free-shard",
                )
            self._owns_pool = True
        return self._pool

    def prewarm(self) -> "ShardedFreeEngine":
        """Create the worker pool now instead of on first query.

        Fork-based pools must exist before any thread starts (fork
        after threads snapshots lock state — CONC003), so the serve
        stack prewarms every engine before spinning up its server
        thread and per-worker executors.
        """
        if self.workers > 1 and self.sharded.n_shards > 1:
            self._ensure_pool()
        return self

    def close(self) -> None:
        """Shut down the worker pool (no-op if never started or shared).

        The engine remains usable afterwards on the sequential path; a
        later parallel query builds a fresh pool.  Idempotent: the CLI,
        the benchmarks and ``free serve`` all run it from context-
        manager exits, and the GC finalizer covers engines abandoned
        before any close.
        """
        if self._fork_finalizer is not None:
            self._fork_finalizer.detach()
            self._fork_finalizer = None
        if self._fork_token is not None:
            _pop_fork_token(self._fork_token)
            self._fork_token = None
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown(wait=True)
        if self._owns_pool:
            self._pool = None
            self._owns_pool = False
        super().close()

    def __enter__(self) -> "ShardedFreeEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- sequential path: per-shard candidates, central confirmation --------

    def _candidates(
        self,
        pattern: str,
        metrics: Optional[QueryMetrics] = None,
        first_k: Optional[int] = None,
    ) -> Optional[List[int]]:
        """Every shard's plan in shard order; deterministic union merge.

        With tracing on, shards run strictly sequentially inside one
        span per shard (the span tree is single-threaded by design);
        otherwise a thread pool — if configured — overlaps the postings
        work, and results are still collected by shard ordinal.

        ``first_k`` (the ``min_candidate_ratio`` early-exit cap) is
        applied per shard: contiguous shard ranges mean a truncated
        shard alone contributes ``first_k`` ids, so the merged total
        still crosses the caller's fallback threshold exactly when the
        untruncated total would.
        """
        trace = metrics.trace if metrics is not None else None
        with maybe_span(trace, "plan"):
            plans = self._compiled_plans(pattern, metrics, trace)
        n_shards = self.sharded.n_shards
        with maybe_span(
            trace, "postings", shards=n_shards, workers=self.workers
        ):
            if trace is not None:
                results = []
                for ordinal in range(n_shards):
                    with maybe_span(trace, "shard", shard=ordinal) as span:
                        ids, shard_metrics = self.sharded.shard_candidates(
                            ordinal, plans, first_k=first_k
                        )
                        if span is not None:
                            span.attrs["candidates"] = (
                                "shard-scan" if ids is None else len(ids)
                            )
                    results.append((ids, shard_metrics))
            elif (
                self.workers > 1
                and n_shards > 1
                and self.pool_kind in ("thread", "external")
            ):
                pool = self._ensure_pool()
                futures = [
                    pool.submit(
                        self.sharded.shard_candidates, ordinal, plans,
                        first_k=first_k,
                    )
                    for ordinal in range(n_shards)
                ]
                results = [future.result() for future in futures]
            else:
                results = [
                    self.sharded.shard_candidates(
                        ordinal, plans, first_k=first_k
                    )
                    for ordinal in range(n_shards)
                ]

            parts: List[List[int]] = []
            shard_rows: List[Tuple[int, int, int]] = []
            all_scan = True
            for ordinal, ((start, stop), (ids, shard_metrics)) in enumerate(
                zip(self.sharded.doc_ranges(), results)
            ):
                if ids is None:
                    ids = list(range(start, stop))
                else:
                    all_scan = False
                if metrics is not None:
                    metrics.absorb(shard_metrics)
                for record in shard_metrics.lookups:
                    self.disk.charge_postings(record.n_ids)
                shard_rows.append((
                    ordinal,
                    len(ids),
                    sum(record.n_ids for record in shard_metrics.lookups),
                ))
                parts.append(ids)
            self._observe_shards(shard_rows)
            if all_scan:
                return None
            return merge_shard_candidates(parts)

    # -- parallel path: whole per-shard pipeline in workers ------------------

    def _execute_query(
        self,
        pattern: str,
        limit: Optional[int],
        collect_matches: bool,
        trace: Union[bool, Trace],
        group: Optional[_BatchGroup],
    ) -> SearchReport:
        if (
            self.workers > 1
            and self.sharded.n_shards > 1
            and self.pool_kind in ("process", "external")
            and limit is None
            and not trace
            and group is None
            and self.min_candidate_ratio is None
            and self._candidate_cache.capacity == 0
        ):
            return self._parallel_search(pattern, collect_matches)
        return super()._execute_query(
            pattern, limit, collect_matches, trace, group
        )

    def _parallel_search(
        self, pattern: str, collect_matches: bool
    ) -> SearchReport:
        """Fan the full pipeline out per shard; merge by shard ordinal."""
        metrics = QueryMetrics()
        report = SearchReport(
            pattern=pattern, engine=self.name, metrics=metrics
        )
        io_before = self.disk.snapshot()
        self.disk.attach_metrics(metrics)
        try:
            started = monotonic()
            pool = self._ensure_pool()
            if self.pool_kind == "process":
                token = self._fork_token
                if token is None:
                    raise InternalError(
                        "process pool running without a fork token"
                    )
                futures = [
                    pool.submit(
                        _worker_search_shard, token, ordinal,
                        pattern, collect_matches,
                    )
                    for ordinal in range(self.sharded.n_shards)
                ]
            else:  # external pool: run the local method directly
                futures = [
                    pool.submit(
                        self._search_shard_local, ordinal, pattern,
                        collect_matches,
                    )
                    for ordinal in range(self.sharded.n_shards)
                ]
            # Collect by shard ordinal — NOT completion order — so the
            # merged matches, metrics and disk charges are deterministic.
            results = [future.result() for future in futures]

            shard_rows: List[Tuple[int, int, int]] = []
            all_scan = True
            for result in results:
                self.disk.absorb(result.disk)
                metrics.absorb(result.metrics)
                metrics.units_confirmed += result.metrics.units_confirmed
                metrics.prefilter_rejected += result.metrics.prefilter_rejected
                report.matches.extend(result.matches)
                report.n_matches_found += result.n_matches_found
                report.matching_units += result.matching_units
                report.n_units_read += result.n_units_read
                report.n_candidates += result.n_candidates
                if not result.used_full_scan:
                    all_scan = False
                shard_rows.append((
                    result.ordinal,
                    result.n_candidates,
                    sum(r.n_ids for r in result.metrics.lookups),
                ))
            report.used_full_scan = all_scan
            self._observe_shards(shard_rows)
            report.execute_seconds = monotonic() - started
            metrics.phase_seconds["execute"] = report.execute_seconds
        finally:
            self.disk.detach_metrics()

        io_after = self.disk.snapshot()
        report.io_cost = io_after["total_cost"] - io_before["total_cost"]
        report.io_detail = {
            key: io_after[key] - io_before[key] for key in io_after
        }
        self._observe_query(report, metrics)
        return report

    def _prepare_forked_worker(self) -> None:
        """First-task setup inside a forked worker process.

        A DiskCorpus file descriptor inherited across fork shares its
        seek offset with the parent and every sibling; reopening by
        path gives this process a private handle.
        """
        if isinstance(self.corpus, DiskCorpus):
            self.corpus = DiskCorpus(self.corpus.path)

    def _search_shard_local(
        self, ordinal: int, pattern: str, collect_matches: bool
    ) -> ShardSearchResult:
        """One shard's plan + postings + confirmation, no shared state.

        Charges go to a private DiskModel and private QueryMetrics so
        the caller (possibly another process) can fold them in shard
        order.  The matcher and plan caches used here are worker-local
        copies, warm across tasks because pool workers are reused.
        """
        shard_metrics = QueryMetrics()
        shard_disk = DiskModel(
            sequential_cost_per_char=self.disk.sequential_cost_per_char,
            random_multiplier=self.disk.random_multiplier,
            posting_cost_chars=self.disk.posting_cost_chars,
        )
        ids, shard_metrics = self.sharded.shard_candidates(
            ordinal, self._compiled_plans(pattern), metrics=shard_metrics
        )
        for record in shard_metrics.lookups:
            shard_disk.charge_postings(record.n_ids)
        start, stop = self.sharded.doc_ranges()[ordinal]
        result = ShardSearchResult(
            ordinal=ordinal,
            n_candidates=(stop - start) if ids is None else len(ids),
            used_full_scan=ids is None,
            metrics=shard_metrics,
            disk=shard_disk,
        )

        def shard_scan_units() -> Iterator[DataUnit]:
            # The shard's own contiguous range: a forward streaming read.
            for doc_id in range(start, stop):
                unit = self.corpus.get(doc_id)
                shard_disk.charge_sequential(len(unit.text))
                yield unit

        def candidate_units(id_list: List[int]) -> Iterator[DataUnit]:
            for doc_id in id_list:
                unit = self.corpus.get(doc_id)
                shard_disk.charge_random(len(unit.text))
                yield unit

        units = shard_scan_units() if ids is None else candidate_units(ids)
        matcher = self._matcher(pattern)
        scratch = SearchReport(
            pattern=pattern, engine=self.name, metrics=shard_metrics
        )
        self._confirm(units, matcher, scratch, None, collect_matches)
        result.matches = scratch.matches
        result.n_matches_found = scratch.n_matches_found
        result.matching_units = scratch.matching_units
        result.n_units_read = scratch.n_units_read
        return result

    # -- observability -------------------------------------------------------

    def _observe_shards(
        self, shard_rows: List[Tuple[int, int, int]]
    ) -> None:
        """Per-shard cumulative counters: (ordinal, candidates, postings)."""
        registry = self.registry
        candidate_counter = registry.counter(
            "free_shard_candidate_units_total",
            "Candidate data units produced per shard "
            "(shard size when the shard's plan was a shard-scan).",
            ["shard"],
        )
        postings_counter = registry.counter(
            "free_shard_postings_entries_total",
            "Postings entries read per shard.",
            ["shard"],
        )
        for ordinal, n_candidates, n_postings in shard_rows:
            candidate_counter.labels(shard=str(ordinal)).inc(n_candidates)
            if n_postings:
                postings_counter.labels(shard=str(ordinal)).inc(n_postings)

    # -- introspection -------------------------------------------------------

    def explain(
        self,
        pattern: str,
        analyze: bool = False,
        trace: bool = False,
    ) -> str:
        """Logical plan plus every shard's physical plan.

        Per-shard plans legitimately differ: each shard compiles
        against its own key directory (a gram useful in one shard may
        be useless in another).  The plans shown are the cached ones
        queries execute.
        """
        plans = self._compiled_plans(pattern)
        parts = [plans.logical.pretty()]
        for ordinal, shard in enumerate(self.sharded.shards):
            physical = plans.physical(shard.index)
            if physical.is_full_scan:
                parts.append(f"shard {ordinal}: shard-scan")
            else:
                plan_text = physical.pretty().replace("\n", "\n  ")
                parts.append(f"shard {ordinal}:\n  {plan_text}")
        if analyze:
            report = self.search(pattern, collect_matches=False, trace=trace)
            parts.append(self._analyze_text(report, None))
            if report.trace is not None:
                parts.append(report.trace.render())
        return "\n".join(parts)

    def estimate(self, pattern: str) -> Optional[PlanCost]:
        """Cost estimation is per whole-index plan; not defined per shard."""
        return None

    def __repr__(self) -> str:
        return (
            f"ShardedFreeEngine({self.sharded.n_shards} shards, "
            f"workers={self.workers}, pool={self.pool_kind!r})"
        )
