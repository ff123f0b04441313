"""Plumbing test: ``pytest e2ebench/tests`` (not part of tier-1).

Runs the whole benchmark once with ``--smoke`` (tiny fixtures, one
second per pass) and checks what a later issue will rely on: every
metric BENCHMARK.json declares is printed under its name and unit,
nothing failed the oracle, and the traced pass's spans are well formed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from e2ebench import compare, metrics, workloads  # noqa: E402


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FREE_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2ebench") / "OUT.json"
    subprocess.run(
        [sys.executable, "-m", "e2ebench", "run", "--smoke", "--seed", "5",
         "--out", str(out)],
        cwd=ROOT, env=_env(), check=True, timeout=120,
    )
    with open(out, encoding="utf-8") as f:
        result = json.load(f)
    with open(str(out)[:-5] + ".trace.json", encoding="utf-8") as f:
        spans = json.load(f)
    return str(out), result, spans


def test_benchmark_json_matches_the_code(declared):
    assert declared["paths"] == ["e2ebench"]
    assert declared["run_seconds"] == metrics.RUN_SECONDS
    assert [
        (w["name"], w["why"]) for w in declared["workloads"]
    ] == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in declared["end_to_end"]
    ] == [tuple(m) for m in metrics.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == [tuple(m) for m in metrics.PER_LAYER]


def test_every_declared_metric_is_reported(declared, smoke):
    _path, result, _spans = smoke
    assert set(result["workloads"]) == {
        w["name"] for w in declared["workloads"]
    }
    assert result["stamp"]["kernel"]
    for name, entry in result["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            for metric in declared[kind]:
                got = entry[kind][metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(got["value"], (int, float))
        for metric in declared["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0
        assert entry["end_to_end"]["error_rate"]["value"] == 0
        assert entry["failed"] == 0 and entry["traced_failed"] == 0
        assert len(entry["sha256"]["corpus"]) == 64


def test_spans_are_well_formed(smoke):
    _path, _result, spans = smoke
    for name, workload_spans in spans.items():
        assert workload_spans, name
        for position, span in enumerate(workload_spans):
            assert span["id"] == position
            assert span["end"] >= span["start"]
            assert isinstance(span["op"], int)
            if span["parent"] is not None:
                parent = workload_spans[span["parent"]]
                assert parent["id"] < span["id"]
                assert parent["op"] == span["op"]


def test_layers_the_workloads_were_chosen_for(smoke):
    _path, result, _spans = smoke
    layers = {
        name: {k: v["value"] for k, v in entry["per_layer"].items()}
        for name, entry in result["workloads"].items()
    }
    assert layers["web_cold"]["regex.compile_ms"] > 0
    assert layers["web_cold"]["engine.plan_cache_hit_rate"] == 0
    assert layers["web_scan"]["plan.null_plan_ratio"] > 0.5
    assert layers["log_warm"]["regex.compile_ms"] == 0
    assert layers["log_warm"]["engine.plan_cache_hit_rate"] == 1
    assert layers["serve_zipf"]["serve.overhead_ms"] > 0
    assert layers["ingest_live"]["index.ingest_seals"] >= 1


def test_compare_a_run_with_itself(smoke, capsys):
    path, _result, _spans = smoke
    assert compare.main([path], [path]) == 0
    assert "regressed" in capsys.readouterr().out  # the summary line


def test_compare_flags_a_regression(smoke):
    _path, result, _spans = smoke
    worse = json.loads(json.dumps(result))
    worse["workloads"]["log_warm"]["end_to_end"]["latency_p50_ms"][
        "value"
    ] *= 2
    rows = compare.compare([result], [worse])
    verdicts = {
        (r["workload"], r["metric"]): r["verdict"] for r in rows
    }
    assert verdicts[("log_warm", "latency_p50_ms")] == "regressed"
    assert verdicts[("web_scan", "latency_p50_ms")] == "ok"
    noisy = [result, worse, result]
    rows = compare.compare(noisy, [result])
    assert {
        (r["workload"], r["metric"]): r["verdict"] for r in rows
    }[("log_warm", "latency_p50_ms")] == "unresolved"


def test_compare_refuses_a_partial_result(smoke):
    _path, result, _spans = smoke
    partial = json.loads(json.dumps(result))
    del partial["workloads"]["web_scan"]
    with pytest.raises(ValueError):
        compare.compare([result], [partial])


def test_free_env_is_refused():
    env = _env()
    env["FREE_KERNEL"] = "numpy"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
         "--workload", "log_warm", "--smoke", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "FREE_KERNEL" in proc.stderr
