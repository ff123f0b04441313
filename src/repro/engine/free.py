"""FreeEngine: the end-to-end runtime matching engine (Figure 3).

The query path is the paper's three phases:

1. **query parsing** — pattern text to AST;
2. **plan generation** — logical plan (Figure 5), then physical plan
   against the attached index (Section 4.3);
3. **execution** — postings operations produce the candidate units,
   which are read (random access) and confirmed with the automaton
   matcher; matching strings are extracted with ``finditer``.

When the physical plan collapses to NULL, or when no index is attached,
the engine reads the corpus sequentially instead — the Scan baseline is
literally this engine without an index.

On top of the paper's one-shot path sits the production query-path
cache (ROADMAP: heavy repeated traffic):

* a **plan cache** — LRU keyed by ``(pattern, cover_policy,
  distribute)``; each entry (:class:`~repro.plan.physical.CompiledPlans`)
  holds the logical plan plus one physical plan per index part it has
  run against (the flat index, a segment's, a shard's), kept with the
  part's epoch — a sealed segment is planned once for its lifetime;
* a **candidate cache** (off by default) — LRU of materialized
  candidate-id lists; a hit skips the whole postings phase, including
  its simulated postings I/O;
* a **matcher cache** — LRU of compiled automata (previously an
  unbounded dict).

Plan and candidate entries are dropped when the attached index changes
(assign ``engine.index`` or call :meth:`invalidate_caches`).  The index
epoch keys only the candidate cache, so mutable indexes (the segmented
engine) can never serve stale candidates; physical plans are keyed by
the index part and epoch they were compiled for, and tombstones and
the memtable are applied after plan execution.

Every execution reports wall time *and* simulated I/O cost, plus a
:class:`~repro.metrics.QueryMetrics` with per-stage counters; the
benchmarks compare the figures' shapes on the simulated cost, which does
not depend on the host machine.

Observability (PR 3) adds two more outputs, both documented in
``docs/observability.md``:

* ``search(..., trace=True)`` records the request as a nested span
  tree (parse / rewrite / physical_plan / postings_fetch / verify) on
  ``report.trace`` — ``free search --trace`` prints it;
* every query's latency, candidate-set size, postings decodes and
  cache hit/miss outcomes are folded into a process-wide
  :class:`~repro.obs.registry.MetricsRegistry` (the global one by
  default), keeping *cumulative* numbers distinct from the *per-query*
  :class:`~repro.metrics.QueryMetrics` — ``free metrics`` exposes them.

All engine timings read the injectable monotonic clock of
:mod:`repro.obs.clock`, never ``time.time()`` (lint rule FREE006).
"""

from __future__ import annotations

from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.corpus.document import DataUnit
from repro.corpus.store import CorpusStore
from repro.engine.executor import execute_plan
from repro.engine.results import Match, SearchReport, frequency_ranked
from repro.index.kernels import PostingsKernel, resolve_kernel
from repro.index.multigram import GramIndex
from repro.iomodel.diskmodel import DiskModel
from repro.metrics import LRUCache, QueryMetrics
from repro.obs.clock import monotonic
from repro.obs.registry import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import Trace, maybe_span
from repro.plan.cost import PlanCost, estimate_cost
from repro.plan.logical import LogicalPlan
from repro.plan.physical import CompiledPlans, CoverPolicy, PhysicalPlan
from repro.regex.matcher import Matcher

#: Candidate-cache sentinel for "the plan said scan everything".
_SCAN_ALL = object()

#: Closed vocabulary of engine metric label values (CONC005).
_ENGINE_LABELS = frozenset({"free", "scan", "sharded", "segmented"})

#: Closed vocabulary of postings-kernel backend labels (CONC005).
_KERNEL_LABELS = frozenset({"python", "numpy"})


class _BatchGroup:
    """Shared candidate set of one plan group inside ``search_batch``.

    The first query of the group computes the candidates (postings
    fetches and all); every later member reuses them and skips its
    postings phase entirely.  ``candidates is None`` means the group's
    plan said "scan everything".
    """

    __slots__ = ("resolved", "candidates")

    def __init__(self) -> None:
        self.resolved = False
        self.candidates: Optional[List[int]] = None


class FreeEngine:
    """A corpus + (optional) index + matcher, ready for queries.

    Args:
        corpus: the data units.
        index: a :class:`GramIndex`; None turns this engine into the
            raw-scan baseline.
        disk: simulated disk for I/O cost accounting (fresh one made if
            omitted).
        cover_policy: how pruned grams map to lookups (Section 4.3).
        min_candidate_ratio: optimizer guard — if the candidate set
            exceeds this fraction of the corpus, prefer a sequential
            scan (None disables; the paper's runtime always uses the
            index when any key is available).
        distribute: enable alternation distribution in plan generation
            (stronger grams; the paper's deferred optimization).
        plan_cache_size: LRU capacity of the compiled-plan cache
            (0 disables).
        candidate_cache_size: LRU capacity of the materialized
            candidate-id cache.  Off by default because a hit skips the
            postings phase *including its simulated I/O*, which changes
            per-query cost accounting; repeated-query serving turns it
            on.
        matcher_cache_size: LRU capacity of the compiled-matcher cache
            (previously unbounded).
        registry: the :class:`MetricsRegistry` cumulative query metrics
            are recorded into (default: the process-wide registry of
            :func:`repro.obs.registry.get_registry`; pass a private
            registry to isolate an engine's numbers, e.g. in tests).
        kernel: postings-kernel backend for the plan's set operations —
            a name ("python", "numpy", "auto") or an already-built
            :class:`~repro.index.kernels.PostingsKernel`.  ``None``
            defers to the index's recorded ``kernel_backend``, then the
            ``FREE_KERNEL`` environment variable, then "python".  The
            engine owns a private kernel instance (its decoded-block
            cache is not shared across engines or threads).
    """

    def __init__(
        self,
        corpus: CorpusStore,
        index: Optional[GramIndex] = None,
        disk: Optional[DiskModel] = None,
        cover_policy: Union[CoverPolicy, str] = CoverPolicy.ALL,
        min_candidate_ratio: Optional[float] = None,
        distribute: bool = False,
        plan_cache_size: int = 128,
        candidate_cache_size: int = 0,
        matcher_cache_size: int = 128,
        registry: Optional[MetricsRegistry] = None,
        kernel: Optional[Union[str, PostingsKernel]] = None,
    ):
        self.corpus = corpus
        self.disk = disk if disk is not None else DiskModel()
        self.cover_policy = CoverPolicy(cover_policy)
        self.min_candidate_ratio = min_candidate_ratio
        self.distribute = distribute
        self.registry = registry if registry is not None else get_registry()
        self._plan_cache = LRUCache(plan_cache_size)
        self._candidate_cache = LRUCache(candidate_cache_size)
        self._matcher_cache = LRUCache(matcher_cache_size)
        self._index = index
        if kernel is None:
            kernel = getattr(index, "kernel_backend", None)
        #: The resolved postings kernel; private to this engine.
        self.kernel: PostingsKernel = resolve_kernel(kernel)

    @property
    def index(self) -> Optional[GramIndex]:
        return self._index

    @index.setter
    def index(self, value: Optional[GramIndex]) -> None:
        """Swap the index and invalidate every plan/candidate cache."""
        self._index = value
        self.invalidate_caches()

    @property
    def name(self) -> str:
        return "scan" if self._index is None else "free"

    # -- caching ------------------------------------------------------------

    @property
    def plan_cache(self) -> LRUCache:
        return self._plan_cache

    @property
    def candidate_cache(self) -> LRUCache:
        return self._candidate_cache

    @property
    def matcher_cache(self) -> LRUCache:
        return self._matcher_cache

    def invalidate_caches(self) -> None:
        """Drop every cache entry derived from the attached index.

        Must be called whenever the index contents change out from
        under the engine (index swaps via the ``index`` property call
        it automatically).  The matcher cache survives: compiled
        automata depend only on the pattern.
        """
        self._plan_cache.clear()
        self._candidate_cache.clear()

    def close(self) -> None:
        """Release engine-held resources.

        The base engine holds none beyond its caches (dropped here so a
        closed engine does not pin candidate lists); subclasses with
        real resources (worker pools, fork-registry entries) override
        and must stay safe to call twice.  Long-lived callers — the CLI,
        the benchmarks, ``free serve`` — use the engine as a context
        manager so this runs on every exit path.
        """
        self.invalidate_caches()

    def prewarm(self) -> "FreeEngine":
        """Eagerly create deferred resources; returns ``self``.

        The base engine has nothing to warm.  Subclasses that build
        worker pools lazily override this so callers about to start
        threads (the serve stack) can force pool creation *first* —
        forking after threads exist snapshots held locks (CONC003).
        """
        return self

    def __enter__(self) -> "FreeEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def cache_stats(self) -> dict:
        """Hit/miss counters of all engine caches (for reporting).

        These are *cumulative for the engine's lifetime* — every query
        served by this process accumulates into them.  Per-query cache
        outcomes live on each report's
        :class:`~repro.metrics.QueryMetrics` (tri-state hit flags), and
        the same outcomes are folded into :attr:`registry` as labeled
        ``free_cache_requests_total`` counters whose
        ``snapshot()``/``delta()``/``reset()`` API distinguishes
        per-window from cumulative numbers.
        """
        return {
            "plan": self._plan_cache.stats(),
            "candidates": self._candidate_cache.stats(),
            "matcher": self._matcher_cache.stats(),
        }

    def _cache_epoch(self) -> int:
        """Version stamp of the attached index's contents.

        Immutable indexes are always at epoch 0; mutable ones (the
        segmented engine overrides this) bump it on every add/delete so
        candidate-cache keys from older contents can never hit.
        """
        return getattr(self._index, "epoch", 0)

    # -- planning -----------------------------------------------------------

    def plan(
        self,
        pattern: str,
        metrics: Optional[QueryMetrics] = None,
        trace: Optional[Trace] = None,
    ) -> Tuple[LogicalPlan, Optional[PhysicalPlan]]:
        """Phases 1-2: parse and compile; physical plan None without index.

        Served from the plan cache when possible — compiled plans are
        immutable, so sharing them across queries is safe.  With tracing
        on, a ``plan`` span wraps the work; cache misses additionally
        record ``parse``, ``rewrite`` and ``physical_plan`` child spans
        (a cache hit is a single leaf span).
        """
        if trace is None and metrics is not None:
            trace = metrics.trace
        with maybe_span(trace, "plan"):
            plans = self._compiled_plans(pattern, metrics, trace)
            if self._index is None:
                return plans.logical, None
            return plans.logical, plans.physical(self._index, metrics, trace)

    def _compiled_plans(
        self,
        pattern: str,
        metrics: Optional[QueryMetrics] = None,
        trace: Optional[Trace] = None,
    ) -> CompiledPlans:
        """The plan-cache entry of ``pattern``, made on a miss.

        Keyed without any epoch: the logical plan depends on the
        pattern alone, and each physical plan inside the entry is
        keyed by the index part (and epoch) it was compiled for.
        """
        key = (pattern, self.cover_policy, self.distribute)
        plans = self._plan_cache.get(key)
        if plans is not None:
            if metrics is not None:
                metrics.plan_cache_hit = True
            return plans
        if metrics is not None:
            metrics.plan_cache_hit = False
        logical = LogicalPlan.from_pattern(
            pattern, distribute=self.distribute, trace=trace
        )
        plans = CompiledPlans(logical, self.cover_policy)
        self._plan_cache.put(key, plans)
        return plans

    def explain(
        self,
        pattern: str,
        analyze: bool = False,
        trace: bool = False,
    ) -> str:
        """Human-readable plan dump (CLI ``free explain``).

        With ``analyze=True`` the query is actually executed and the
        physical plan is annotated with the *actual* postings sizes and
        cache behaviour next to the cost model's estimates — the
        ``EXPLAIN ANALYZE`` of the engine.  With ``trace=True`` the
        rendered span tree is appended (planning spans only, unless
        ``analyze`` also executes the query).
        """
        plan_trace = Trace() if (trace and not analyze) else None
        logical, physical = self.plan(pattern, trace=plan_trace)
        parts = [logical.pretty()]
        if physical is None:
            parts.append("(no index attached: sequential scan)")
            if analyze:
                report = self.search(
                    pattern, collect_matches=False, trace=trace
                )
                parts.append(self._analyze_text(report, None))
                if report.trace is not None:
                    parts.append(report.trace.render())
            elif plan_trace is not None:
                parts.append(plan_trace.render())
            return "\n".join(parts)
        cost = estimate_cost(
            physical, self._index, self.corpus.total_chars, self.disk
        )
        if not analyze:
            parts.append(physical.pretty())
            parts.append(
                f"estimated: selectivity={cost.selectivity:.4f}, "
                f"candidates~{cost.candidate_units:.0f}, "
                f"io={cost.io_cost:.0f} (scan io={cost.scan_io_cost:.0f})"
            )
            if plan_trace is not None:
                parts.append(plan_trace.render())
            return "\n".join(parts)
        report = self.search(pattern, collect_matches=False, trace=trace)
        sizes = report.metrics.lookup_sizes() if report.metrics else {}
        annotations = {}
        for key in set(physical.lookups()):
            estimated = len(self._index.lookup(key))
            actual = sizes.get(key)
            if actual is None:
                actual_text = "not read (candidate cache hit)"
            else:
                n_ids, from_cache = actual
                actual_text = f"actual {n_ids}"
                if from_cache:
                    actual_text += " (decoded-cache hit)"
            annotations[key] = f"  [est {estimated} postings, {actual_text}]"
        parts.append(physical.pretty(annotations=annotations))
        parts.append(
            f"estimated: selectivity={cost.selectivity:.4f}, "
            f"candidates~{cost.candidate_units:.0f}, "
            f"io={cost.io_cost:.0f} (scan io={cost.scan_io_cost:.0f})"
        )
        parts.append(self._analyze_text(report, cost))
        if report.trace is not None:
            parts.append(report.trace.render())
        return "\n".join(parts)

    def _analyze_text(
        self, report: SearchReport, cost: Optional[PlanCost]
    ) -> str:
        """The actual-vs-estimated tail of ``explain --analyze``."""
        lines = ["analyze:"]
        if cost is not None:
            lines.append(
                f"  candidates: actual {report.n_candidates} "
                f"vs estimated {cost.candidate_units:.0f}"
            )
            lines.append(
                f"  io: actual {report.io_cost:.0f} "
                f"vs estimated {cost.io_cost:.0f} "
                f"(scan {cost.scan_io_cost:.0f})"
            )
        else:
            lines.append(
                f"  candidates: {report.n_candidates} (sequential scan), "
                f"io {report.io_cost:.0f}"
            )
        lines.append(
            f"  matches: {report.n_matches} in "
            f"{report.matching_units} units; "
            f"{report.n_units_read} units read"
        )
        if report.metrics is not None:
            lines.append(report.metrics.pretty())
        return "\n".join(lines)

    # -- execution -----------------------------------------------------------

    def search(
        self,
        pattern: str,
        limit: Optional[int] = None,
        collect_matches: bool = True,
        trace: Union[bool, Trace] = False,
    ) -> SearchReport:
        """Run a query end to end.

        Args:
            pattern: the regex.
            limit: stop after this many *matches* have been produced
                (the first-k streaming mode of Section 5.4).
            collect_matches: False counts matches without keeping the
                strings (saves memory on huge result sets).
            trace: record the request as a span tree on
                ``report.trace`` (off by default: the disabled path is
                a few ``None`` checks, < 2% on the repeated-query
                benchmark).  Pass a :class:`~repro.obs.trace.Trace` to
                record into a caller-owned trace — how ``free serve``
                threads an inbound request's trace id into the engine.
        """
        return self._execute_query(
            pattern, limit, collect_matches, trace, group=None
        )

    def search_batch(
        self,
        patterns: Sequence[str],
        limit: Optional[int] = None,
        collect_matches: bool = True,
        trace: Union[bool, Trace] = False,
    ) -> List[SearchReport]:
        """Run a batch of queries, amortizing work across the batch.

        Queries are grouped by their *compiled physical plan*: patterns
        whose plans perform the same index lookups (repeat traffic, or
        distinct regexes that prune to the same gram cover) share one
        candidate-set computation — the first member of each group pays
        the plan compilation and postings fetches, every later member
        reuses the materialized candidate ids and goes straight to
        confirmation.  Reports come back in input order and each is
        identical to what :meth:`search` would have produced; the
        per-query :class:`~repro.metrics.QueryMetrics` records the
        amortization on ``batch_candidates_reused``.
        """
        groups: dict = {}
        reports: List[SearchReport] = []
        for pattern in patterns:
            key = self._batch_group_key(pattern)
            group = groups.get(key)
            if group is None:
                group = groups[key] = _BatchGroup()
            reports.append(self._execute_query(
                pattern, limit, collect_matches, trace, group=group
            ))
        return reports

    def _batch_group_key(self, pattern: str) -> Tuple:
        """Candidate-set equivalence key for :meth:`search_batch`.

        Two patterns may share a candidate set exactly when their
        physical plans are structurally equal (the candidate set is a
        pure function of the plan and the immutable index contents).
        Without a physical plan (no index attached; subclasses that
        plan per shard/segment) only the pattern itself is a safe key.
        """
        _logical, physical = self.plan(pattern)
        if physical is not None:
            return ("plan", self.cover_policy, physical.root)
        return ("pattern", pattern, self.cover_policy, self.distribute)

    def _execute_query(
        self,
        pattern: str,
        limit: Optional[int],
        collect_matches: bool,
        trace: Union[bool, Trace],
        group: Optional[_BatchGroup],
    ) -> SearchReport:
        """The shared body of :meth:`search` and :meth:`search_batch`."""
        metrics = QueryMetrics(kernel_backend=self.kernel.name)
        if isinstance(trace, Trace):
            request_trace: Optional[Trace] = trace
        else:
            request_trace = Trace() if trace else None
        metrics.trace = request_trace
        report = SearchReport(
            pattern=pattern, engine=self.name, metrics=metrics,
            trace=request_trace,
        )
        io_before = self.disk.snapshot()
        self.disk.attach_metrics(metrics)
        try:
            with maybe_span(request_trace, "search", pattern=pattern):
                plan_started = monotonic()
                matcher = self._matcher(pattern, metrics)
                if group is not None and group.resolved:
                    metrics.batch_candidates_reused = True
                    candidates = (
                        None if group.candidates is None
                        else list(group.candidates)
                    )
                else:
                    candidates = self._cached_candidates(pattern, metrics)
                    if group is not None:
                        metrics.batch_candidates_reused = False
                if (
                    candidates is not None
                    and self.min_candidate_ratio is not None
                ):
                    if (
                        len(candidates)
                        > self.min_candidate_ratio * len(self.corpus)
                    ):
                        candidates = None  # optimizer chose the scan
                        metrics.optimizer_fallback = True
                if group is not None and not group.resolved:
                    # Store post-fallback so the whole group shares the
                    # optimizer's decision, not just the raw id list.
                    group.candidates = (
                        None if candidates is None else list(candidates)
                    )
                    group.resolved = True
                report.plan_seconds = monotonic() - plan_started
                metrics.phase_seconds["plan"] = report.plan_seconds

                execute_started = monotonic()
                if candidates is None:
                    report.used_full_scan = True
                    report.n_candidates = len(self.corpus)
                    units: Iterable[DataUnit] = self._scan_units()
                else:
                    report.n_candidates = len(candidates)
                    units = self._fetch_units(candidates)

                self._confirm(units, matcher, report, limit, collect_matches)
                report.execute_seconds = monotonic() - execute_started
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

    def first_k(
        self,
        pattern: str,
        k: int = 10,
        trace: Union[bool, Trace] = False,
    ) -> SearchReport:
        """The Section 5.4 measurement: stop at the first k matches."""
        return self.search(pattern, limit=k, trace=trace)

    def count(self, pattern: str) -> int:
        """Total number of matching strings in the corpus."""
        return self.search(pattern, collect_matches=False).n_matches

    def frequency_ranked(
        self, pattern: str, top: Optional[int] = None
    ) -> List[Tuple[str, int]]:
        """Matching strings by descending frequency (Example 1.2)."""
        report = self.search(pattern)
        return frequency_ranked(report.matches, top=top)

    # -- internals -----------------------------------------------------------

    def _cached_candidates(
        self, pattern: str, metrics: QueryMetrics
    ) -> Optional[List[int]]:
        """Candidate ids via the LRU cache (when enabled).

        Cache keys include the index epoch, so entries computed against
        older index contents are unreachable after any mutation.
        """
        bound = self._candidate_bound()
        if self._candidate_cache.capacity == 0:
            return self._candidates(pattern, metrics, first_k=bound)
        key = (
            pattern, self.cover_policy, self.distribute, self._cache_epoch()
        )
        cached = self._candidate_cache.get(key)
        if cached is not None:
            metrics.candidate_cache_hit = True
            return None if cached is _SCAN_ALL else list(cached)
        metrics.candidate_cache_hit = False
        result = self._candidates(pattern, metrics, first_k=bound)
        self._candidate_cache.put(
            key, _SCAN_ALL if result is None else tuple(result)
        )
        return result

    def _candidate_bound(self) -> Optional[int]:
        """Candidate-count cap implied by ``min_candidate_ratio``.

        Any candidate set that reaches this size is discarded by the
        optimizer guard in favour of a sequential scan, so the
        executor may stop collecting at the bound (early exit in the
        intersection kernel): a result shorter than the bound is
        provably complete, a result that hits it is provably over the
        ratio.  ``None`` (no guard) means results must be exhaustive.
        """
        if self.min_candidate_ratio is None:
            return None
        return int(self.min_candidate_ratio * len(self.corpus)) + 1

    def _candidates(
        self,
        pattern: str,
        metrics: Optional[QueryMetrics] = None,
        first_k: Optional[int] = None,
    ) -> Optional[List[int]]:
        """Plan and execute the index side of the query.

        Returns a sorted candidate id list, or None for "scan
        everything".  ``first_k`` is the :meth:`_candidate_bound`
        early-exit cap (only sound because hitting it triggers the
        scan fallback).  Subclasses (e.g. the segmented engine)
        override this hook.
        """
        _logical, physical = self.plan(pattern, metrics)
        if physical is None or physical.is_full_scan:
            return None
        trace = metrics.trace if metrics is not None else None
        with maybe_span(trace, "postings"):
            return execute_plan(
                physical,
                self._index,
                self.disk,
                metrics,
                first_k=first_k,
                kernel=self.kernel,
            )

    def _matcher(
        self, pattern: str, metrics: Optional[QueryMetrics] = None
    ) -> Matcher:
        matcher = self._matcher_cache.get(pattern)
        if matcher is None:
            if metrics is not None:
                metrics.matcher_cache_hit = False
            trace = metrics.trace if metrics is not None else None
            with maybe_span(trace, "matcher"):
                matcher = Matcher(pattern)
            self._matcher_cache.put(pattern, matcher)
        elif metrics is not None:
            metrics.matcher_cache_hit = True
        return matcher

    def _scan_units(self) -> Iterator[DataUnit]:
        """Sequential pass over the corpus, charged as streaming I/O."""
        for unit in self.corpus:
            self.disk.charge_sequential(len(unit.text))
            yield unit

    def _fetch_units(self, doc_ids: List[int]) -> Iterator[DataUnit]:
        """Random access to candidate units, charged per unit."""
        for doc_id in doc_ids:
            unit = self.corpus.get(doc_id)
            self.disk.charge_random(len(unit.text))
            yield unit

    def _confirm(
        self,
        units: Iterable[DataUnit],
        matcher: Matcher,
        report: SearchReport,
        limit: Optional[int],
        collect_matches: bool,
    ) -> None:
        """Phase 3 confirmation: run the matcher over candidate units."""
        metrics = report.metrics
        trace = metrics.trace if metrics is not None else None
        n_matches = 0
        with maybe_span(trace, "verify") as span:
            for unit in units:
                report.n_units_read += 1
                if matcher.prefilter_rejects(unit.text):
                    # Anchoring prefilter (grep-style): a unit failing a
                    # mandatory-literal clause provably has no match.
                    if metrics is not None:
                        metrics.prefilter_rejected += 1
                    continue
                if metrics is not None:
                    metrics.units_confirmed += 1
                unit_matched = False
                for start, end in matcher.finditer(unit.text):
                    unit_matched = True
                    n_matches += 1
                    if collect_matches:
                        report.matches.append(
                            Match(
                                unit.doc_id, start, end,
                                unit.text[start:end],
                            )
                        )
                    if limit is not None and n_matches >= limit:
                        break
                if unit_matched:
                    report.matching_units += 1
                if limit is not None and n_matches >= limit:
                    report.truncated = True
                    break
            if span is not None:
                span.attrs["units_read"] = report.n_units_read
                span.attrs["matches"] = n_matches
        report.n_matches_found = n_matches

    def _observe_query(
        self, report: SearchReport, metrics: QueryMetrics
    ) -> None:
        """Fold one query's outcome into the cumulative registry.

        Per-query numbers stay on ``report.metrics``; the registry only
        ever accumulates (until ``registry.reset()``), so "this query"
        and "this process so far" can never be conflated again.
        """
        registry = self.registry
        # Clamp to the closed engine vocabulary so label cardinality
        # stays finite even if a subclass invents a new name (CONC005).
        engine = self.name if self.name in _ENGINE_LABELS else "other"
        registry.counter(
            "free_queries_total", "Queries executed.", ["engine"],
        ).labels(engine=engine).inc()
        registry.histogram(
            "free_query_seconds",
            "End-to-end query latency (plan + execute), seconds.",
            ["engine"],
        ).labels(engine=engine).observe(report.total_seconds)
        registry.histogram(
            "free_query_candidate_units",
            "Candidate data units per query (corpus size on full scan).",
            ["engine"],
            buckets=DEFAULT_SIZE_BUCKETS,
        ).labels(engine=engine).observe(report.n_candidates)
        backend = (
            self.kernel.name
            if self.kernel.name in _KERNEL_LABELS
            else "other"
        )
        registry.counter(
            "free_kernel_backend",
            "Queries executed per postings-kernel backend.",
            ["backend"],
        ).labels(backend=backend).inc()
        registry.counter(
            "free_postings_entries_decoded_total",
            "Postings entries varint-decoded (decoded-cache misses).",
        ).unlabeled().inc(metrics.postings_entries_decoded)
        postings_requests = registry.counter(
            "free_postings_cache_requests_total",
            "Decoded-postings cache lookups by outcome.",
            ["result"],
        )
        if metrics.postings_cache_hits:
            postings_requests.labels(result="hit").inc(
                metrics.postings_cache_hits
            )
        if metrics.postings_cache_misses:
            postings_requests.labels(result="miss").inc(
                metrics.postings_cache_misses
            )
        cache_requests = registry.counter(
            "free_cache_requests_total",
            "Query-path cache lookups by cache and outcome.",
            ["cache", "result"],
        )
        for cache_name, flag in (
            ("plan", metrics.plan_cache_hit),
            ("candidates", metrics.candidate_cache_hit),
            ("matcher", metrics.matcher_cache_hit),
        ):
            if flag is None:
                continue  # cache never consulted for this query
            cache_requests.labels(
                cache=cache_name, result="hit" if flag else "miss"
            ).inc()
        registry.counter(
            "free_units_confirmed_total",
            "Candidate units scanned by the automaton.",
        ).unlabeled().inc(metrics.units_confirmed)
        registry.counter(
            "free_prefilter_rejected_total",
            "Candidate units rejected by the anchoring prefilter.",
        ).unlabeled().inc(metrics.prefilter_rejected)
        registry.counter(
            "free_io_cost_total",
            "Simulated I/O cost in char-read units.",
            ["engine"],
        ).labels(engine=engine).inc(report.io_cost)

    def estimate(self, pattern: str) -> Optional[PlanCost]:
        """Predicted cost of the current plan (None without an index)."""
        _logical, physical = self.plan(pattern)
        if physical is None:
            return None
        return estimate_cost(
            physical, self._index, self.corpus.total_chars, self.disk
        )
