"""Experiment drivers: one function per paper table/figure.

Each driver returns plain dict-rows (so benchmarks, tests and the CLI
can all consume them) and reports **both** wall-clock seconds and the
simulated I/O cost of the :class:`~repro.iomodel.diskmodel.DiskModel`.
EXPERIMENTS.md compares the paper's figure *shapes* on the simulated
cost, which is hardware-independent; wall time is informational.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.queries import BENCHMARK_QUERIES
from repro.bench.workloads import Workload, default_workload
from repro.corpus.store import CorpusStore
from repro.engine.free import FreeEngine
from repro.engine.scan import ScanEngine
from repro.engine.sharded import ShardedFreeEngine
from repro.index.builder import build_multigram_index
from repro.index.postings import PYTHON_KERNEL
from repro.index.kgram import build_complete_index
from repro.index.sharded import ShardedIndex
from repro.iomodel.diskmodel import DiskModel
from repro.obs.registry import MetricsRegistry
from repro.plan.physical import CoverPolicy


# ---------------------------------------------------------------------------
# E1 / Table 3: index construction
# ---------------------------------------------------------------------------

def run_table3(workload: Optional[Workload] = None) -> List[Dict[str, object]]:
    """Construction time and sizes for Complete / Multigram / Suffix."""
    workload = workload or default_workload()
    rows = []
    for name, index in (
        ("complete", workload.complete),
        ("multigram", workload.multigram),
        ("suffix", workload.presuf),
    ):
        stats = index.stats
        rows.append({
            "index": name,
            "construction_time_s": round(stats.construction_seconds, 3),
            "gram_keys": stats.n_keys,
            "postings": stats.n_postings,
            "postings_bytes": stats.postings_bytes,
            "corpus_scans": stats.corpus_scans,
            "keys_vs_complete": round(
                stats.n_keys / max(workload.complete.stats.n_keys, 1), 5
            ),
            "postings_vs_complete": round(
                stats.n_postings
                / max(workload.complete.stats.n_postings, 1),
                5,
            ),
        })
    return rows


# ---------------------------------------------------------------------------
# E2 / Figure 9: total execution time per query
# ---------------------------------------------------------------------------

def run_fig9(
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    engines: Sequence[str] = ("scan", "multigram", "complete"),
) -> List[Dict[str, object]]:
    """Total matching time, Scan vs Multigram vs Complete, per query."""
    workload = workload or default_workload()
    queries = queries or BENCHMARK_QUERIES
    engine_map = workload.engines()
    rows = []
    for name, pattern in queries.items():
        row: Dict[str, object] = {"query": name}
        baseline_matches = None
        for engine_name in engines:
            engine = engine_map[engine_name]
            engine.disk.reset()
            report = engine.search(pattern, collect_matches=False)
            row[f"{engine_name}_s"] = round(report.total_seconds, 4)
            row[f"{engine_name}_io"] = round(report.io_cost, 0)
            row[f"{engine_name}_candidates"] = report.n_candidates
            if baseline_matches is None:
                baseline_matches = report.n_matches
                row["matches"] = report.n_matches
                row["matching_units"] = report.matching_units
            elif report.n_matches != baseline_matches:
                raise AssertionError(
                    f"{name}: engines disagree on match count "
                    f"({baseline_matches} vs {report.n_matches})"
                )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E3 / Figure 10: result size vs improvement
# ---------------------------------------------------------------------------

def run_fig10(
    workload: Optional[Workload] = None,
    fig9_rows: Optional[List[Dict[str, object]]] = None,
) -> List[Dict[str, object]]:
    """Speedup of Multigram over Scan as a function of result size."""
    if fig9_rows is None:
        fig9_rows = run_fig9(workload)
    rows = []
    for row in fig9_rows:
        scan_io = float(row["scan_io"])
        multigram_io = float(row["multigram_io"])
        scan_s = float(row["scan_s"])
        multigram_s = float(row["multigram_s"])
        rows.append({
            "query": row["query"],
            "result_size": row["matches"],
            "improvement_io": round(scan_io / multigram_io, 2)
            if multigram_io else float("inf"),
            "improvement_wall": round(scan_s / multigram_s, 2)
            if multigram_s else float("inf"),
        })
    rows.sort(key=lambda r: r["result_size"])
    return rows


# ---------------------------------------------------------------------------
# E4 / Figure 11: response time for the first 10 answers
# ---------------------------------------------------------------------------

def run_fig11(
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    k: int = 10,
    engines: Sequence[str] = ("scan", "multigram", "complete"),
) -> List[Dict[str, object]]:
    """Time (and I/O) to produce the first ``k`` matches per query."""
    workload = workload or default_workload()
    queries = queries or BENCHMARK_QUERIES
    engine_map = workload.engines()
    rows = []
    for name, pattern in queries.items():
        row: Dict[str, object] = {"query": name}
        for engine_name in engines:
            engine = engine_map[engine_name]
            engine.disk.reset()
            report = engine.first_k(pattern, k=k)
            row[f"{engine_name}_s"] = round(report.total_seconds, 4)
            row[f"{engine_name}_io"] = round(report.io_cost, 0)
            row[f"{engine_name}_units_read"] = report.n_units_read
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E5 / Figure 12: the shortest suffix rule
# ---------------------------------------------------------------------------

def run_fig12(
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
) -> List[Dict[str, object]]:
    """Plain multigram vs presuf-shell index, per query."""
    workload = workload or default_workload()
    queries = queries or BENCHMARK_QUERIES
    engine_map = workload.engines()
    rows = []
    for name, pattern in queries.items():
        row: Dict[str, object] = {"query": name}
        for engine_name in ("multigram", "presuf"):
            engine = engine_map[engine_name]
            engine.disk.reset()
            report = engine.search(pattern, collect_matches=False)
            label = "plain" if engine_name == "multigram" else "suffix"
            row[f"{label}_s"] = round(report.total_seconds, 4)
            row[f"{label}_io"] = round(report.io_cost, 0)
            row[f"{label}_candidates"] = report.n_candidates
        plain_io = float(row["plain_io"])
        row["suffix_degradation"] = round(
            float(row["suffix_io"]) / plain_io, 3
        ) if plain_io else 1.0
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E6: usefulness-threshold ablation (ours)
# ---------------------------------------------------------------------------

def run_threshold_ablation(
    corpus: Optional[CorpusStore] = None,
    thresholds: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.4),
    queries: Optional[Dict[str, str]] = None,
    max_gram_len: int = 10,
) -> List[Dict[str, object]]:
    """Index size and mean query I/O as the threshold c varies."""
    if corpus is None:
        corpus = default_workload().corpus
    queries = queries or BENCHMARK_QUERIES
    rows = []
    for c in thresholds:
        index = build_multigram_index(
            corpus, threshold=c, max_gram_len=max_gram_len
        )
        total_io = 0.0
        total_candidates = 0
        with FreeEngine(corpus, index, disk=DiskModel()) as engine:
            for pattern in queries.values():
                engine.disk.reset()
                report = engine.search(pattern, collect_matches=False)
                total_io += report.io_cost
                total_candidates += report.n_candidates
        rows.append({
            "threshold_c": c,
            "gram_keys": index.stats.n_keys,
            "postings": index.stats.n_postings,
            "mean_query_io": round(total_io / len(queries), 0),
            "mean_candidates": round(total_candidates / len(queries), 1),
        })
    return rows


# ---------------------------------------------------------------------------
# E8: cover-policy ablation (ours)
# ---------------------------------------------------------------------------

def run_cover_policy_ablation(
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
) -> List[Dict[str, object]]:
    """Section 4.3 cover policies: all vs best vs cheapest2."""
    workload = workload or default_workload()
    queries = queries or BENCHMARK_QUERIES
    rows = []
    for policy in CoverPolicy:
        total_io = 0.0
        total_candidates = 0
        total_postings = 0
        with FreeEngine(
            workload.corpus,
            workload.presuf,
            disk=DiskModel(),
            cover_policy=policy,
        ) as engine:
            for pattern in queries.values():
                engine.disk.reset()
                report = engine.search(pattern, collect_matches=False)
                total_io += report.io_cost
                total_candidates += report.n_candidates
                total_postings += int(
                    report.io_detail.get("postings_read", 0)
                )
        rows.append({
            "policy": policy.value,
            "mean_query_io": round(total_io / len(queries), 0),
            "mean_candidates": round(total_candidates / len(queries), 1),
            "postings_read": total_postings,
        })
    return rows


# ---------------------------------------------------------------------------
# E9: repeated-query workload — the query-path cache (ours)
# ---------------------------------------------------------------------------

def run_repeated_queries(
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    repeats: int = 5,
    corpus: Optional[CorpusStore] = None,
    index=None,
) -> List[Dict[str, object]]:
    """Issue the same pattern set ``repeats`` times, caching on vs off.

    Real deployments re-serve a hot pattern set (the ROADMAP's repeated
    heavy traffic); this measures what the plan/candidate caches buy
    there and proves they change nothing about the answers.  Pass either
    a workload or an explicit (corpus, index) pair.
    """
    if corpus is None or index is None:
        workload = workload or default_workload()
        corpus = workload.corpus
        index = workload.multigram
    queries = queries or BENCHMARK_QUERIES
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    # Three tiers: no caching, plan+matcher caching (answers recomputed
    # every time), and the full stack with the candidate cache on.  The
    # middle tier exists because a candidate-cache hit skips planning
    # altogether — only the plan-cache tier shows the planner's hit rate.
    configs = (
        ("uncached", 0, 0, 0),
        ("plan-cache", 256, 0, 256),
        ("full-cache", 256, 256, 256),
    )
    rows: List[Dict[str, object]] = []
    match_counts: Dict[str, List[int]] = {}
    for mode, plan_sz, cand_sz, matcher_sz in configs:
        total_plan = 0.0
        total_execute = 0.0
        total_io = 0.0
        candidate_hits = 0
        counts: List[int] = []
        started = time.perf_counter()
        with FreeEngine(
            corpus,
            index,
            disk=DiskModel(),
            plan_cache_size=plan_sz,
            candidate_cache_size=cand_sz,
            matcher_cache_size=matcher_sz,
        ) as engine:
            for _round in range(repeats):
                for pattern in queries.values():
                    report = engine.search(
                        pattern, collect_matches=False
                    )
                    total_plan += report.plan_seconds
                    total_execute += report.execute_seconds
                    total_io += report.io_cost
                    counts.append(report.n_matches)
                    if (
                        report.metrics
                        and report.metrics.candidate_cache_hit
                    ):
                        candidate_hits += 1
            wall = time.perf_counter() - started
            # Read before close(): closing invalidates the caches.
            plan_stats = engine.plan_cache.stats()
        match_counts[mode] = counts
        rows.append({
            "mode": mode,
            "repeats": repeats,
            "queries": len(queries) * repeats,
            "plan_s": round(total_plan, 4),
            "execute_s": round(total_execute, 4),
            "wall_s": round(wall, 4),
            "io": round(total_io, 0),
            "plan_cache_hits": plan_stats["hits"],
            "plan_cache_hit_rate": plan_stats["hit_rate"],
            "candidate_cache_hits": candidate_hits,
            "matches": sum(counts),
        })
    for mode, _p, _c, _m in configs[1:]:
        if match_counts[mode] != match_counts["uncached"]:
            raise AssertionError(
                "query-path caching changed match results — cache unsound"
            )
    return rows


# ---------------------------------------------------------------------------
# E10: the core smoke benchmark (CI artifact BENCH_free_core.json)
# ---------------------------------------------------------------------------

#: Format tag of the BENCH_free_core.json artifact.
BENCH_CORE_SCHEMA = "free-bench-core/1"


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(int(math.ceil(q * len(sorted_values))) - 1, 0)
    return sorted_values[rank]


def run_core(
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    repeats: int = 3,
) -> Dict[str, object]:
    """One summary record of engine health, the CI smoke benchmark.

    Runs the benchmark query set ``repeats`` times against the
    multigram index with the full query-path cache on, and reports
    latency percentiles, the candidate ratio, the cache hit rate, and
    the index build time.  Cache hit rates are read back from a private
    :class:`MetricsRegistry` — the same ``free_cache_requests_total``
    counters ``free metrics`` exposes — so the artifact exercises the
    whole observability path, not a parallel bookkeeping scheme.
    ``free bench --experiment core`` writes the record to
    ``BENCH_free_core.json`` (see :func:`write_bench_core`).
    """
    workload = workload or default_workload()
    queries = queries or BENCHMARK_QUERIES
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    registry = MetricsRegistry()
    engine = FreeEngine(
        workload.corpus,
        workload.multigram,
        disk=DiskModel(),
        plan_cache_size=256,
        candidate_cache_size=256,
        matcher_cache_size=256,
        registry=registry,
    )
    baseline = registry.snapshot()
    latencies: List[float] = []
    total_candidates = 0
    total_matches = 0
    with engine:
        for _round in range(repeats):
            for pattern in queries.values():
                report = engine.search(pattern, collect_matches=False)
                latencies.append(report.total_seconds)
                total_candidates += report.n_candidates
                total_matches += report.n_matches
    latencies.sort()
    n_queries = len(latencies)
    window = registry.delta(baseline)
    cache_samples = window.get(
        "free_cache_requests_total", {}
    ).get("samples", {})
    cache_hits = sum(
        value for key, value in cache_samples.items()
        if "result=hit" in key
    )
    cache_total = sum(cache_samples.values())
    corpus_units = len(workload.corpus)
    return {
        "schema": BENCH_CORE_SCHEMA,
        "name": "free_core",
        "workload": {
            "pages": corpus_units,
            "corpus_chars": workload.corpus.total_chars,
            "seed": workload.seed,
            "threshold": workload.threshold,
            "queries": len(queries),
            "repeats": repeats,
        },
        "latency_seconds": {
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "mean": sum(latencies) / n_queries,
        },
        "candidate_ratio": (
            total_candidates / (n_queries * corpus_units)
            if corpus_units else 0.0
        ),
        "cache_hit_rate": (
            cache_hits / cache_total if cache_total else 0.0
        ),
        "index_build_seconds": (
            workload.multigram.stats.construction_seconds
        ),
        "matches": total_matches,
    }


def write_bench_core(
    path: str,
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    repeats: int = 3,
) -> Dict[str, object]:
    """Run :func:`run_core` and persist the record as JSON."""
    record = run_core(workload, queries=queries, repeats=repeats)
    with open(path, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=2, sort_keys=True)
        out.write("\n")
    return record


# ---------------------------------------------------------------------------
# E11: sharded parallel execution (CI artifact BENCH_free_sharded.json)
# ---------------------------------------------------------------------------

#: Format tag of the BENCH_free_sharded.json artifact.
BENCH_SHARDED_SCHEMA = "free-bench-sharded/1"


def run_sharded(
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    repeats: int = 3,
    n_shards: int = 4,
    workers: int = 4,
) -> Dict[str, object]:
    """Sharded fan-out speedup over the single-shard baseline.

    Builds an ``n_shards``-way :class:`ShardedIndex` over the workload
    corpus, runs the benchmark query set ``repeats`` times on (a) the
    plain single-index :class:`FreeEngine` and (b) a
    :class:`ShardedFreeEngine` with a ``workers``-process pool, and
    reports both latency distributions plus their ratio.  Every query's
    match and matching-unit counts must agree between the two engines
    (the cheap in-benchmark slice of the differential soundness
    contract; the byte-identical check lives in
    ``tests/test_differential_soundness.py``).

    Two speedup figures are recorded, following the repo-wide
    convention that figure *shapes* are compared on the simulated
    :class:`DiskModel` cost (EXPERIMENTS.md):

    * ``io_speedup`` — per query, baseline simulated cost divided by
      the **critical path** of the sharded run (the most expensive
      single shard, which bounds the parallel makespan).  Deterministic
      and hardware-independent: this is the headline number, and the
      one CI asserts on.
    * ``speedup`` — measured wall-clock ratio.  Informational only: it
      reflects the host (``cpu_count`` is recorded beside it), and on a
      single-core machine process fan-out *cannot* beat the baseline
      on wall time no matter how well the work partitions.

    A warm-up round (not measured) runs first so both engines are
    compared with hot matcher/plan caches — the steady state the
    repeated-traffic ROADMAP goal cares about, and for the sharded
    engine it also forks the worker pool up front.
    """
    workload = workload or default_workload()
    queries = queries or BENCHMARK_QUERIES
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    corpus = workload.corpus
    build_started = time.perf_counter()
    sharded_index = ShardedIndex.build(
        corpus, n_shards, threshold=workload.threshold
    )
    shard_build_seconds = time.perf_counter() - build_started
    baseline_lat: List[float] = []
    sharded_lat: List[float] = []
    io_ratios: List[float] = []
    total_matches = 0
    # Context managers, not bare construction: the sharded engine owns
    # a process pool and a fork-registry token that must be released on
    # every exit path (see ShardedFreeEngine.close).
    with FreeEngine(
        corpus, workload.multigram, disk=DiskModel()
    ) as baseline, ShardedFreeEngine(
        corpus, sharded_index, workers=workers, disk=DiskModel()
    ) as sharded:
        for pattern in queries.values():  # warm-up, unmeasured
            baseline.search(pattern, collect_matches=False)
            sharded.search(pattern, collect_matches=False)
        for round_index in range(repeats):
            for name, pattern in queries.items():
                r_base = baseline.search(pattern, collect_matches=False)
                r_shard = sharded.search(pattern, collect_matches=False)
                if (
                    r_base.n_matches != r_shard.n_matches
                    or r_base.matching_units != r_shard.matching_units
                ):
                    raise AssertionError(
                        f"{name}: sharded engine disagrees with baseline "
                        f"({r_base.n_matches}/{r_base.matching_units} vs "
                        f"{r_shard.n_matches}/{r_shard.matching_units})"
                    )
                baseline_lat.append(r_base.total_seconds)
                sharded_lat.append(r_shard.total_seconds)
                total_matches += r_base.n_matches
                if round_index == 0:
                    # Simulated cost is deterministic: one measurement
                    # per query.  The parallel makespan is bounded by
                    # the most expensive shard (the critical path).
                    critical_path = max(
                        sharded._search_shard_local(
                            ordinal, pattern, False
                        ).disk.total_cost
                        for ordinal in range(n_shards)
                    )
                    io_ratios.append(
                        r_base.io_cost / critical_path
                        if critical_path else float("inf")
                    )
    baseline_lat.sort()
    sharded_lat.sort()
    n_queries = len(baseline_lat)

    def summary(values: List[float]) -> Dict[str, float]:
        return {
            "p50": _percentile(values, 0.50),
            "p95": _percentile(values, 0.95),
            "mean": sum(values) / n_queries,
        }

    base_summary = summary(baseline_lat)
    shard_summary = summary(sharded_lat)
    io_ratios.sort()
    return {
        "schema": BENCH_SHARDED_SCHEMA,
        "name": "free_sharded",
        "workload": {
            "pages": len(corpus),
            "corpus_chars": corpus.total_chars,
            "seed": workload.seed,
            "threshold": workload.threshold,
            "queries": len(queries),
            "repeats": repeats,
            "n_shards": n_shards,
            "workers": workers,
        },
        # May be None: os.cpu_count() is allowed to fail (containers,
        # exotic platforms).  Consumers must render that case.
        "cpu_count": os.cpu_count(),
        "baseline_latency_seconds": base_summary,
        "sharded_latency_seconds": shard_summary,
        "speedup": {
            quantile: (
                base_summary[quantile] / shard_summary[quantile]
                if shard_summary[quantile] else 0.0
            )
            for quantile in ("p50", "p95", "mean")
        },
        "io_speedup": {
            "p50": _percentile(io_ratios, 0.50),
            "p95": _percentile(io_ratios, 0.95),
            "mean": sum(io_ratios) / len(io_ratios),
            "min": io_ratios[0],
            "max": io_ratios[-1],
        },
        "shard_build_seconds": shard_build_seconds,
        "shard_stats": sharded_index.shard_stats(),
        "matches": total_matches,
    }


def write_bench_sharded(
    path: str,
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    repeats: int = 3,
    n_shards: int = 4,
    workers: int = 4,
) -> Dict[str, object]:
    """Run :func:`run_sharded` and persist the record as JSON."""
    record = run_sharded(
        workload, queries=queries, repeats=repeats,
        n_shards=n_shards, workers=workers,
    )
    with open(path, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=2, sort_keys=True)
        out.write("\n")
    return record


# ---------------------------------------------------------------------------
# E13: serve-path load test (CI artifact BENCH_free_serve.json)
# ---------------------------------------------------------------------------

def run_serve(
    workload: Optional[Workload] = None,
    workers: int = 2,
    queue_depth: int = 16,
    timeout_seconds: float = 10.0,
    seed: int = 1234,
    closed_concurrency: int = 8,
    closed_requests: int = 120,
    open_rate: float = 40.0,
    open_requests: int = 80,
) -> Dict[str, object]:
    """Closed- and open-loop load against a live ``free serve``.

    Starts a :class:`~repro.serve.service.QueryService` over the
    workload corpus + multigram index, drives both load phases of
    :mod:`repro.serve.loadgen` with a seeded Figure 8 pattern mix, and
    returns the combined client/server record.  The CI gate is
    ``n_5xx == 0`` and ``sustained_qps > 0``; shed (429) and timeout
    (504) counts are reported, not failed on — they are the bounded
    admission queue working as designed.
    """
    from repro.serve.loadgen import run_serve_benchmark
    from repro.serve.service import ServeConfig

    workload = workload or default_workload()
    config = ServeConfig(
        workers=workers,
        queue_depth=queue_depth,
        timeout_seconds=timeout_seconds,
    )
    record = run_serve_benchmark(
        lambda: workload.corpus,
        workload.multigram,
        serve_config=config,
        seed=seed,
        closed_concurrency=closed_concurrency,
        closed_requests=closed_requests,
        open_rate=open_rate,
        open_requests=open_requests,
    )
    record["name"] = "free_serve"
    record["workload"] = {
        "pages": len(workload.corpus),
        "corpus_chars": workload.corpus.total_chars,
        "seed": workload.seed,
        "threshold": workload.threshold,
    }
    return record


def write_bench_serve(
    path: str,
    workload: Optional[Workload] = None,
    workers: int = 2,
    queue_depth: int = 16,
    timeout_seconds: float = 10.0,
    seed: int = 1234,
    closed_concurrency: int = 8,
    closed_requests: int = 120,
    open_rate: float = 40.0,
    open_requests: int = 80,
) -> Dict[str, object]:
    """Run :func:`run_serve` and persist the record as JSON."""
    record = run_serve(
        workload,
        workers=workers,
        queue_depth=queue_depth,
        timeout_seconds=timeout_seconds,
        seed=seed,
        closed_concurrency=closed_concurrency,
        closed_requests=closed_requests,
        open_rate=open_rate,
        open_requests=open_requests,
    )
    with open(path, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=2, sort_keys=True)
        out.write("\n")
    return record


# ---------------------------------------------------------------------------
# E14: LSM ingest lifecycle (CI artifact BENCH_free_ingest.json)
# ---------------------------------------------------------------------------

#: Format tag of the BENCH_free_ingest.json artifact.
BENCH_INGEST_SCHEMA = "free-bench-ingest/1"


def _counter_total(snapshot: Dict[str, object], name: str) -> float:
    """Sum every sample of one counter family in a registry snapshot."""
    family = snapshot.get(name, {})
    samples = family.get("samples", {}) if isinstance(family, dict) else {}
    return float(sum(samples.values()))


def _ingest_writer(
    directory: object,
    units: Sequence[object],
    delete_every: int,
    memtable_docs: int,
    compacting: threading.Event,
    result: Dict[str, object],
    errors: List[str],
) -> None:
    """Drive adds, interleaved deletes, and explicit tiered compactions.

    Compactions run under the ``compacting`` event so concurrent reader
    latency samples can be tagged "taken while a merge was in flight".
    """
    added = deleted = 0
    backlog: List[int] = []
    try:
        started = time.perf_counter()
        for unit in units:
            doc_id = directory.add(unit.text, unit.url)
            added += 1
            backlog.append(doc_id)
            if delete_every and added % delete_every == 0:
                victim = backlog.pop(0)
                if directory.delete(victim):
                    deleted += 1
            if added % memtable_docs == 0:
                compacting.set()
                try:
                    directory.maybe_compact()
                finally:
                    compacting.clear()
        compacting.set()
        try:
            directory.compact()
        finally:
            compacting.clear()
        result["seconds"] = time.perf_counter() - started
        result["added"] = added
        result["deleted"] = deleted
    except Exception as exc:  # pragma: no cover - reported in the record
        errors.append(f"{type(exc).__name__}: {exc}")


def _ingest_reader(
    directory: object,
    patterns: Sequence[str],
    stop: threading.Event,
    compacting: threading.Event,
    samples: List[Tuple[float, bool]],
    errors: List[str],
) -> None:
    """Issue the fixed query mix against a private engine until told
    to stop, tagging samples taken while a compaction was in flight."""
    from repro.index.segmented import SegmentedFreeEngine

    engine = SegmentedFreeEngine(
        directory.corpus,
        directory.index,
        registry=MetricsRegistry(),
    )
    with engine:
        position = 0
        while not stop.is_set():
            pattern = patterns[position % len(patterns)]
            position += 1
            during = compacting.is_set()
            started = time.perf_counter()
            try:
                engine.search(pattern, collect_matches=False)
            except Exception as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
            else:
                samples.append((time.perf_counter() - started, during))


def _ingest_differential(
    directory: object, patterns: Sequence[str]
) -> Tuple[bool, int]:
    """Compare the segmented view against a flat rebuild of the
    surviving corpus; returns (byte-identical, total matches)."""
    from repro.corpus.document import DataUnit
    from repro.corpus.store import InMemoryCorpus
    from repro.index.segmented import SegmentedFreeEngine

    surviving = [directory.corpus.get(gid) for gid in directory.corpus.ids()]
    dense = {
        unit.doc_id: ordinal for ordinal, unit in enumerate(surviving)
    }
    flat_corpus = InMemoryCorpus(
        [
            DataUnit(ordinal, unit.text, unit.url)
            for ordinal, unit in enumerate(surviving)
        ]
    )
    flat_index = directory.index.builder.build(flat_corpus)
    identical = True
    total_matches = 0
    with FreeEngine(flat_corpus, flat_index) as flat_engine, \
            SegmentedFreeEngine(
                directory.corpus,
                directory.index,
                registry=MetricsRegistry(),
            ) as seg_engine:
        for pattern in patterns:
            seg_report = seg_engine.search(pattern)
            flat_report = flat_engine.search(pattern)
            seg_matches = sorted(
                (dense[m.doc_id], m.start, m.end, m.text)
                for m in seg_report.matches
            )
            flat_matches = sorted(
                (m.doc_id, m.start, m.end, m.text)
                for m in flat_report.matches
            )
            total_matches += flat_report.n_matches
            if seg_matches != flat_matches:
                identical = False
    return identical, total_matches


def run_ingest(
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    readers: int = 2,
    memtable_docs: int = 32,
    fanout: int = 4,
    delete_every: int = 7,
) -> Dict[str, object]:
    """Ingest-while-query load test of the LSM segment lifecycle.

    A writer thread streams the workload corpus into a fresh
    :class:`~repro.index.ingest.IngestDirectory` (small memtable so
    seals and tiered merges actually happen), deleting every
    ``delete_every``-th surviving document, while ``readers`` threads
    run the benchmark query mix against private
    :class:`~repro.index.segmented.SegmentedFreeEngine` views of the
    same live directory.  Latency samples taken while a merge was in
    flight are reported separately.  After the final full compaction
    the segmented view is differentially verified against a flat
    one-shot rebuild of the surviving corpus.

    The CI gate is ``query.errors == 0``, ``verified_identical`` and a
    nonzero ingest rate.  ``free bench --experiment ingest`` writes the
    record to ``BENCH_free_ingest.json``.
    """
    from repro.index.ingest import IngestDirectory

    workload = workload or default_workload()
    queries = queries or BENCHMARK_QUERIES
    if readers < 1:
        raise ValueError("readers must be >= 1")
    patterns = list(queries.values())
    units = list(workload.corpus)
    registry = MetricsRegistry()
    tmpdir = tempfile.mkdtemp(prefix="free-bench-ingest-")
    compacting = threading.Event()
    stop = threading.Event()
    writer_result: Dict[str, object] = {}
    writer_errors: List[str] = []
    reader_samples: List[List[Tuple[float, bool]]] = [
        [] for _ in range(readers)
    ]
    reader_errors: List[List[str]] = [[] for _ in range(readers)]
    try:
        with IngestDirectory(
            tmpdir,
            memtable_docs=memtable_docs,
            fanout=fanout,
            auto_compact=False,
            registry=registry,
        ) as directory:
            writer = threading.Thread(
                target=_ingest_writer,
                args=(
                    directory, units, delete_every, memtable_docs,
                    compacting, writer_result, writer_errors,
                ),
                name="ingest-writer",
            )
            reader_threads = [
                threading.Thread(
                    target=_ingest_reader,
                    args=(
                        directory, patterns, stop, compacting,
                        reader_samples[position], reader_errors[position],
                    ),
                    name=f"ingest-reader-{position}",
                )
                for position in range(readers)
            ]
            writer.start()
            for thread in reader_threads:
                thread.start()
            writer.join()
            stop.set()
            for thread in reader_threads:
                thread.join()
            verified, total_matches = _ingest_differential(
                directory, patterns
            )
            stats = directory.stats()
        snapshot = registry.snapshot()
        all_samples = [
            sample for samples in reader_samples for sample in samples
        ]
        query_errors = [
            message for errors in reader_errors for message in errors
        ]
        latencies = sorted(latency for latency, _ in all_samples)
        during = sorted(
            latency for latency, in_flight in all_samples if in_flight
        )
        added = int(writer_result.get("added", 0))
        seconds = float(writer_result.get("seconds", 0.0))
        return {
            "schema": BENCH_INGEST_SCHEMA,
            "name": "free_ingest",
            "workload": {
                "pages": len(units),
                "corpus_chars": workload.corpus.total_chars,
                "seed": workload.seed,
                "threshold": workload.threshold,
                "queries": len(patterns),
            },
            "config": {
                "memtable_docs": memtable_docs,
                "fanout": fanout,
                "readers": readers,
                "delete_every": delete_every,
            },
            "ingest": {
                "docs_added": added,
                "docs_deleted": int(writer_result.get("deleted", 0)),
                "seconds": seconds,
                "docs_per_second": added / seconds if seconds else 0.0,
                "seals": _counter_total(
                    snapshot, "free_ingest_seals_total"
                ),
                "compactions": _counter_total(
                    snapshot, "free_ingest_compactions_total"
                ),
                "merged_segments": _counter_total(
                    snapshot, "free_ingest_merged_segments_total"
                ),
                "tombstones_dropped": _counter_total(
                    snapshot, "free_ingest_tombstones_dropped_total"
                ),
                "image_bytes_written": _counter_total(
                    snapshot, "free_ingest_image_bytes_written_total"
                ),
                "final_segments": stats["n_segments"],
                "final_generation": stats["generation"],
                "final_tombstones": stats["n_tombstones"],
            },
            "query": {
                "n_queries": len(all_samples),
                "errors": len(query_errors),
                "error_samples": query_errors[:5],
                "latency_seconds": {
                    "p50": _percentile(latencies, 0.50),
                    "p95": _percentile(latencies, 0.95),
                },
                "while_compacting": {
                    "n": len(during),
                    "p50": _percentile(during, 0.50),
                    "p95": _percentile(during, 0.95),
                },
            },
            "matches": total_matches,
            "verified_identical": verified,
            "writer_errors": writer_errors[:5],
            "ok": (
                not writer_errors
                and not query_errors
                and verified
                and added > 0
                and seconds > 0.0
            ),
        }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def write_bench_ingest(
    path: str,
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    readers: int = 2,
    memtable_docs: int = 32,
    fanout: int = 4,
    delete_every: int = 7,
) -> Dict[str, object]:
    """Run :func:`run_ingest` and persist the record as JSON."""
    record = run_ingest(
        workload,
        queries=queries,
        readers=readers,
        memtable_docs=memtable_docs,
        fanout=fanout,
        delete_every=delete_every,
    )
    with open(path, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=2, sort_keys=True)
        out.write("\n")
    return record


# ---------------------------------------------------------------------------
# E12: v1 vs v2 index images (CI artifact BENCH_free_postings.json)
# ---------------------------------------------------------------------------

#: Format tag of the BENCH_free_postings.json artifact.
BENCH_POSTINGS_SCHEMA = "free-bench-postings/3"


def _kernel_microbench(rounds: int = 200) -> Dict[str, float]:
    """Mean microseconds per call of the postings kernel's set
    operations.

    Exercises the 1-list and 2-list fast paths of ``union_many`` /
    ``intersect_many`` next to the general k-list paths, on
    deterministic synthetic id lists, so a fast-path regression shows
    up as a shifted ratio in the artifact.
    """
    one = list(range(0, 20000, 2))
    two = list(range(0, 30000, 3))
    # Overlapping strides: the 8-way intersection is non-empty
    # (multiples of lcm(2..9)), so no case degenerates to an early
    # exit on an empty result.
    many = [list(range(0, 30000, step)) for step in range(2, 10)]
    kernel = PYTHON_KERNEL
    cases = {
        "union_1": lambda: kernel.union_many([one]),
        "union_2": lambda: kernel.union_many([one, two]),
        "union_8": lambda: kernel.union_many(many),
        "intersect_1": lambda: kernel.intersect_many([one]),
        "intersect_2": lambda: kernel.intersect_many([one, two]),
        "intersect_8": lambda: kernel.intersect_many(many),
    }
    out = {}
    for name, call in cases.items():
        call()  # warm-up, unmeasured
        started = time.perf_counter()
        for _ in range(rounds):
            call()
        elapsed = time.perf_counter() - started
        out[name] = round(elapsed / rounds * 1e6, 3)
    return out


def run_postings(
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    repeats: int = 3,
    load_rounds: int = 5,
) -> Dict[str, object]:
    """FREEIDX1 vs FREEIDX2: cold start, decoded bytes, latency.

    Serializes the workload's multigram index in both image formats,
    then measures what the zero-copy v2 layout buys:

    * **cold start** — best-of-``load_rounds`` ``load_index`` time per
      format, plus the honest amortized figure (load *and* answer the
      first query) so the lazy load isn't credited with deferred work;
    * **decoded postings per query** — bytes/entries varint-decoded on
      the first (cold-cache) round, where the block-skip tables let the
      streaming AND kernel leave non-overlapping blocks encoded;
    * **query latency** — p50/p95/mean over ``repeats`` rounds per
      format.

    Every query's candidate and match counts must agree between the
    formats (the cheap in-benchmark slice of the differential
    soundness contract; the byte-identical candidate check lives in
    ``tests/test_differential_v1_v2.py``).  A micro-benchmark of the
    union/intersect kernel fast paths rides along so their 1-list and
    2-list specializations stay observable.
    """
    import tempfile

    from repro.index.serialize import load_index, save_index

    workload = workload or default_workload()
    queries = queries or BENCHMARK_QUERIES
    if repeats < 1 or load_rounds < 1:
        raise ValueError("repeats and load_rounds must be >= 1")
    corpus = workload.corpus
    index = workload.multigram

    with tempfile.TemporaryDirectory(prefix="free-postings-") as tmp:
        paths = {
            "v1": os.path.join(tmp, "image.idx1"),
            "v2": os.path.join(tmp, "image.idx2"),
        }
        save_index(index, paths["v1"], version=1)
        save_index(index, paths["v2"], version=2)
        image_bytes = {
            name: os.path.getsize(path) for name, path in paths.items()
        }

        load_seconds = {}
        first_query_seconds = {}
        first_pattern = next(iter(queries.values()))
        for name, path in paths.items():
            times = []
            for _round in range(load_rounds):
                started = time.perf_counter()
                load_index(path)
                times.append(time.perf_counter() - started)
            load_seconds[name] = min(times)
            started = time.perf_counter()
            with FreeEngine(
                corpus, load_index(path), disk=DiskModel()
            ) as engine:
                engine.search(first_pattern, collect_matches=False)
            first_query_seconds[name] = time.perf_counter() - started

        engines = {
            name: FreeEngine(
                corpus,
                load_index(path),
                disk=DiskModel(),
                candidate_cache_size=0,
            )
            for name, path in paths.items()
        }
        latencies: Dict[str, List[float]] = {"v1": [], "v2": []}
        decoded = {
            name: {"bytes": 0, "entries": 0, "blocks": 0, "skipped": 0}
            for name in engines
        }
        total_matches = 0
        for round_index in range(repeats):
            for qname, pattern in queries.items():
                reports = {}
                for name, engine in engines.items():
                    report = engine.search(pattern, collect_matches=False)
                    reports[name] = report
                    latencies[name].append(report.total_seconds)
                    metrics = report.metrics
                    if round_index == 0 and metrics is not None:
                        counters = decoded[name]
                        counters["bytes"] += metrics.postings_bytes_decoded
                        counters["entries"] += (
                            metrics.postings_entries_decoded
                        )
                        counters["blocks"] += (
                            metrics.postings_blocks_decoded
                        )
                        counters["skipped"] += (
                            metrics.postings_blocks_skipped
                        )
                r1, r2 = reports["v1"], reports["v2"]
                if (
                    r1.n_candidates != r2.n_candidates
                    or r1.n_matches != r2.n_matches
                ):
                    raise AssertionError(
                        f"{qname}: v2 image disagrees with v1 "
                        f"({r1.n_candidates}/{r1.n_matches} vs "
                        f"{r2.n_candidates}/{r2.n_matches})"
                    )
                if round_index == 0:
                    total_matches += r1.n_matches

    n_queries = len(queries)
    for values in latencies.values():
        values.sort()

    def summary(values: List[float]) -> Dict[str, float]:
        return {
            "p50": _percentile(values, 0.50),
            "p95": _percentile(values, 0.95),
            "mean": sum(values) / len(values),
        }

    return {
        "schema": BENCH_POSTINGS_SCHEMA,
        "name": "free_postings",
        "workload": {
            "pages": len(corpus),
            "corpus_chars": corpus.total_chars,
            "seed": workload.seed,
            "threshold": workload.threshold,
            "queries": n_queries,
            "repeats": repeats,
            "load_rounds": load_rounds,
        },
        "image_bytes": image_bytes,
        "cold_start": {
            "v1_load_seconds": load_seconds["v1"],
            "v2_load_seconds": load_seconds["v2"],
            "load_speedup": (
                load_seconds["v1"] / load_seconds["v2"]
                if load_seconds["v2"] else float("inf")
            ),
            "v1_first_query_seconds": first_query_seconds["v1"],
            "v2_first_query_seconds": first_query_seconds["v2"],
        },
        "decoded_per_query": {
            "v1_bytes_mean": decoded["v1"]["bytes"] / n_queries,
            "v2_bytes_mean": decoded["v2"]["bytes"] / n_queries,
            "bytes_ratio": (
                decoded["v2"]["bytes"] / decoded["v1"]["bytes"]
                if decoded["v1"]["bytes"] else 0.0
            ),
            "v1_entries_mean": decoded["v1"]["entries"] / n_queries,
            "v2_entries_mean": decoded["v2"]["entries"] / n_queries,
            "v2_blocks_decoded": decoded["v2"]["blocks"],
            "v2_blocks_skipped": decoded["v2"]["skipped"],
        },
        "latency_seconds": {
            "v1": summary(latencies["v1"]),
            "v2": summary(latencies["v2"]),
        },
        "kernel_microbench_us": _kernel_microbench(),
        "matches": total_matches,
    }


def write_bench_postings(
    path: str,
    workload: Optional[Workload] = None,
    queries: Optional[Dict[str, str]] = None,
    repeats: int = 3,
    load_rounds: int = 5,
) -> Dict[str, object]:
    """Run :func:`run_postings` and persist the record as JSON."""
    record = run_postings(
        workload, queries=queries, repeats=repeats, load_rounds=load_rounds
    )
    with open(path, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=2, sort_keys=True)
        out.write("\n")
    return record


# ---------------------------------------------------------------------------
# Scaling: improvement vs corpus size (extrapolation support)
# ---------------------------------------------------------------------------

def run_scaling(
    page_counts: Sequence[int] = (300, 600, 1200),
    seed: int = 7130,
    query_name: str = "powerpc",
    threshold: float = 0.1,
    max_gram_len: int = 8,
) -> List[Dict[str, object]]:
    """Improvement factor of the multigram index as the corpus grows.

    For a query whose absolute result count stays ~fixed while the
    corpus grows, Scan cost grows linearly with corpus size but index
    cost stays ~flat — so improvement grows ~linearly with N.  This is
    the bridge between laptop-scale measurements and the paper's
    two-orders-of-magnitude results on 4.5 GB.
    """
    from repro.corpus.synthesis import CorpusConfig, SyntheticWeb

    pattern = BENCHMARK_QUERIES[query_name]
    rows = []
    for n_pages in page_counts:
        # Keep the *absolute* number of planted features ~constant by
        # scaling the probability down as the corpus grows.
        base = max(page_counts)
        probs = {"powerpc": 0.0025 * base / n_pages}
        corpus = SyntheticWeb(CorpusConfig(
            n_pages=n_pages, seed=seed, feature_probs=probs
        )).corpus()
        index = build_multigram_index(
            corpus, threshold=threshold, max_gram_len=max_gram_len
        )
        with FreeEngine(corpus, index, disk=DiskModel()) as free:
            r_free = free.search(pattern, collect_matches=False)
        scan = ScanEngine(corpus, disk=DiskModel())
        r_scan = scan.search(pattern, collect_matches=False)
        rows.append({
            "pages": n_pages,
            "corpus_chars": corpus.total_chars,
            "matches": r_scan.n_matches,
            "scan_io": round(r_scan.io_cost),
            "multigram_io": round(r_free.io_cost),
            "improvement": round(
                r_scan.io_cost / max(r_free.io_cost, 1), 1
            ),
        })
    return rows


# ---------------------------------------------------------------------------
# Convenience: run everything (CLI `free bench`)
# ---------------------------------------------------------------------------

def run_all(n_pages: Optional[int] = None) -> Dict[str, List[Dict[str, object]]]:
    """Run every experiment once; returns {experiment: rows}."""
    workload = (
        default_workload(n_pages=n_pages) if n_pages else default_workload()
    )
    fig9 = run_fig9(workload)
    return {
        "table3": run_table3(workload),
        "fig9": fig9,
        "fig10": run_fig10(workload, fig9_rows=fig9),
        "fig11": run_fig11(workload),
        "fig12": run_fig12(workload),
        "threshold_ablation": run_threshold_ablation(workload.corpus),
        "cover_policy_ablation": run_cover_policy_ablation(workload),
        "repeated_queries": run_repeated_queries(workload),
    }
