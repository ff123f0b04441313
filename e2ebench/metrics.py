"""Metric names, units and directions — the vocabulary of BENCHMARK.json.

``tests/test_smoke.py`` holds this file and ``BENCHMARK.json`` to each
other, so a name cannot drift between the declaration the driver reads
and the numbers a run prints.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Any, Dict, List, Sequence, Tuple

from e2ebench.spans import Span, self_seconds

#: How long one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 18

#: (name, unit, better, bound).  Every workload prints every one of
#: these with ``--trace 0``; see README.md for what each means on
#: ``ingest_live`` and on the static-image workloads, and for the
#: run-to-run spreads the bounds were sized from.
END_TO_END: Sequence[Tuple[str, str, str, float]] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.20),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.08),
    ("stored_bytes_per_user_byte", "ratio", "lower", 0.05),
    ("bytes_written_per_user_byte", "ratio", "lower", 0.05),
    ("ingest_docs_s", "1/s", "higher", 0.25),
)

#: (name, unit, better).  Printed with ``--trace 1``; a metric a
#: workload does not exercise (``serve.*`` in process, ``index.ingest_*``
#: off ``ingest_live``, the layer replay on ``serve_zipf``) reads 0.
PER_LAYER: Sequence[Tuple[str, str, str]] = (
    ("regex.parse_ms", "ms", "lower"),
    ("regex.compile_ms", "ms", "lower"),
    ("regex.prefilter_ms", "ms", "lower"),
    ("regex.prefilter_reject_ratio", "ratio", "higher"),
    ("regex.match_ms", "ms", "lower"),
    ("regex.match_chars_per_s", "1/s", "higher"),
    ("plan.logical_ms", "ms", "lower"),
    ("plan.physical_ms", "ms", "lower"),
    ("plan.lookups_per_op", "count", "lower"),
    ("plan.null_plan_ratio", "ratio", "lower"),
    ("index.open_ms", "ms", "lower"),
    ("index.lookup_ms", "ms", "lower"),
    ("index.decode_ms", "ms", "lower"),
    ("index.decode_ids_per_s", "1/s", "higher"),
    ("index.ids_decoded_per_op", "count", "lower"),
    ("index.setops_ms", "ms", "lower"),
    ("engine.postings_ms", "ms", "lower"),
    ("engine.candidates_per_op", "count", "lower"),
    ("engine.candidate_ratio", "ratio", "lower"),
    ("engine.precision", "ratio", "higher"),
    ("engine.plan_cache_hit_rate", "ratio", "higher"),
    ("engine.matcher_cache_hit_rate", "ratio", "higher"),
    ("engine.candidate_cache_hit_rate", "ratio", "higher"),
    ("engine.search_ms", "ms", "lower"),
    ("engine.other_ms", "ms", "lower"),
    ("corpus.open_ms", "ms", "lower"),
    ("corpus.fetch_ms", "ms", "lower"),
    ("corpus.fetch_bytes_per_op", "count", "lower"),
    ("serve.engine_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.response_bytes_per_op", "count", "lower"),
    ("serve.shed_ratio", "ratio", "lower"),
    ("serve.timeout_ratio", "ratio", "lower"),
    ("serve.startup_s", "s", "lower"),
    ("index.ingest_add_p50_ms", "ms", "lower"),
    ("index.ingest_stall_max_ms", "ms", "lower"),
    ("index.ingest_seal_s", "s", "lower"),
    ("index.ingest_compact_s", "s", "lower"),
    ("index.ingest_seals", "count", "lower"),
    ("index.ingest_merges", "count", "lower"),
    ("index.ingest_segments_final", "count", "lower"),
    ("index.ingest_reopen_s", "s", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.save_s", "s", "lower"),
    ("index.keys", "count", "lower"),
    ("index.postings", "count", "lower"),
    ("corpus.synth_s", "s", "lower"),
    ("iomodel.io_cost_per_op", "count", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("baseline.scan_p50_ms", "ms", "lower"),
    ("baseline.re_p50_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.harness_overhead_pct", "%", "lower"),
)

#: Spans on an op's path, whose self times should add up to the
#: undecomposed search (``trace.coverage``).
ON_PATH = (
    "corpus.open", "index.open", "regex.compile", "plan.logical",
    "plan.physical", "engine.postings", "corpus.fetch", "regex.prefilter",
    "regex.match",
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_rate(start: Dict[str, Any], end: Dict[str, Any], cache: str) -> float:
    """Hit rate of one engine cache over the measured phase."""
    hits = end[cache]["hits"] - start[cache]["hits"]
    misses = end[cache]["misses"] - start[cache]["misses"]
    return _ratio(hits, hits + misses)


def _flag_rate(samples: List[Dict[str, Any]], key: str) -> float:
    flags = [s[key] for s in samples if s.get(key) is not None]
    return _ratio(sum(1 for flag in flags if flag), len(flags))


def per_layer(
    regime: str, result: Dict[str, Any], fixture: Dict[str, Any]
) -> Dict[str, float]:
    """Fold a traced run's spans and counters into the PER_LAYER names."""
    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for key in ("build_s", "save_s", "keys", "postings"):
        out[f"index.{key}"] = float(fixture.get(key, 0.0))
    out["corpus.synth_s"] = float(fixture.get("synth_s", 0.0))
    spans: List[Span] = result.get("spans", [])
    own = self_seconds(spans)
    ok = [s for s in result["samples"] if s["res"] is not None]
    if regime == "serve":
        _serve_layers(out, result, ok)
    elif regime == "ingest":
        _ingest_layers(out, result, ok, own, spans)
    else:
        _search_layers(out, result, own, spans)
    return out


def _search_layers(
    out: Dict[str, float], result: Dict[str, Any], own: Dict[str, float],
    spans: List[Span],
) -> None:
    n = result["traced_ops"]
    if not n:
        return
    count = result["counters"].get
    for name in ON_PATH + (
        "regex.parse", "index.lookup", "index.decode", "index.setops",
    ):
        out[f"{name}_ms"] = own.get(name, 0.0) / n * 1000
    out["regex.prefilter_reject_ratio"] = _ratio(
        count("prefilter_rejected", 0), count("prefilter_units", 0)
    )
    out["regex.match_chars_per_s"] = _ratio(
        count("match_chars", 0), own.get("regex.match", 0.0)
    )
    out["plan.lookups_per_op"] = count("lookups", 0) / n
    out["plan.null_plan_ratio"] = count("full_scans", 0) / n
    out["index.decode_ids_per_s"] = _ratio(
        count("ids_decoded", 0), own.get("index.decode", 0.0)
    )
    out["index.ids_decoded_per_op"] = count("ids_decoded", 0) / n
    out["engine.candidates_per_op"] = count("candidates", 0) / n
    out["engine.candidate_ratio"] = _ratio(
        count("candidates", 0), count("corpus_units", 0)
    )
    out["engine.precision"] = _ratio(
        count("matching_units", 0), count("candidates", 0)
    )
    out["corpus.fetch_bytes_per_op"] = count("fetch_bytes", 0) / n
    out["iomodel.io_cost_per_op"] = count("io_cost", 0) / n
    _cache_rates(out, result)
    search_ms = result["search_s"] / n * 1000
    on_path_ms = sum(out[f"{name}_ms"] for name in ON_PATH)
    replay_ms = sum(
        s["end"] - s["start"] for s in spans if s["name"] == "op"
    ) / n * 1000
    out["engine.search_ms"] = search_ms
    out["engine.other_ms"] = search_ms - on_path_ms
    out["trace.coverage"] = _ratio(on_path_ms, search_ms)
    out["trace.harness_overhead_pct"] = (
        _ratio(replay_ms, search_ms) - 1.0
    ) * 100
    out["obs.trace_overhead_pct"] = (
        _ratio(result["traced_search_s"], result["search_s"]) - 1.0
    ) * 100
    for name in ("scan", "re"):
        times = result["baselines"][f"{name}_s"]
        out[f"baseline.{name}_p50_ms"] = median(times) * 1000 if times else 0.0


def _cache_rates(out: Dict[str, float], result: Dict[str, Any]) -> None:
    start, end = result["cache_stats_start"], result["cache_stats"]
    out["engine.plan_cache_hit_rate"] = _hit_rate(start, end, "plan")
    out["engine.matcher_cache_hit_rate"] = _hit_rate(start, end, "matcher")
    out["engine.candidate_cache_hit_rate"] = _hit_rate(
        start, end, "candidates"
    )


def _serve_layers(
    out: Dict[str, float], result: Dict[str, Any], ok: List[Dict[str, Any]]
) -> None:
    samples = result["samples"]
    out["serve.startup_s"] = result["startup_s"]
    out["serve.shed_ratio"] = _ratio(
        sum(1 for s in samples if s["status"] == 429), len(samples)
    )
    out["serve.timeout_ratio"] = _ratio(
        sum(1 for s in samples if s["status"] == 504), len(samples)
    )
    if not ok:
        return
    n = len(ok)
    engine_ms = sum(s["engine_s"] for s in ok) / n * 1000
    out["serve.engine_ms"] = out["engine.search_ms"] = engine_ms
    out["serve.overhead_ms"] = sum(s["lat"] for s in ok) / n * 1000 - engine_ms
    out["serve.response_bytes_per_op"] = sum(s["bytes"] for s in ok) / n
    out["engine.candidates_per_op"] = sum(s["candidates"] for s in ok) / n
    out["iomodel.io_cost_per_op"] = sum(s["io_cost"] for s in ok) / n
    out["engine.plan_cache_hit_rate"] = _flag_rate(ok, "plan_hit")
    out["engine.matcher_cache_hit_rate"] = _flag_rate(ok, "matcher_hit")
    out["engine.candidate_cache_hit_rate"] = _flag_rate(ok, "candidate_hit")


def _ingest_layers(
    out: Dict[str, float], result: Dict[str, Any], ok: List[Dict[str, Any]],
    own: Dict[str, float], spans: List[Span],
) -> None:
    add_s = [seconds for epoch in result["adds"] for seconds in epoch]
    out["index.ingest_add_p50_ms"] = median(add_s) * 1000
    out["index.ingest_stall_max_ms"] = max(add_s) * 1000
    epochs = result["epochs"]  # seals and merges: means per epoch
    out["index.ingest_seal_s"] = own.get("index.ingest_seal", 0.0) / epochs
    out["index.ingest_compact_s"] = (
        own.get("index.ingest_merge", 0.0) / epochs
    )
    out["index.ingest_seals"] = sum(
        1 for s in spans if s["name"] == "index.ingest_seal"
    ) / epochs
    out["index.ingest_merges"] = sum(
        1 for s in spans if s["name"] == "index.ingest_merge"
    ) / epochs
    out["index.ingest_segments_final"] = float(result["ingest"]["n_segments"])
    out["index.ingest_reopen_s"] = result["reopen_s"]
    live = [s for s in ok if not s.get("reopened")]
    if live:
        out["engine.search_ms"] = sum(s["lat"] for s in live) / len(live) * 1000
    _cache_rates(out, result)
