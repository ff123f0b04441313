"""CLI tests: synth -> build -> search/explain round trip."""

import os

import pytest

from repro.cli import main


@pytest.fixture()
def images(tmp_path):
    corpus_path = str(tmp_path / "corpus.img")
    index_path = str(tmp_path / "index.img")
    assert main(["synth", "--pages", "40", "--seed", "3",
                 "--out", corpus_path]) == 0
    assert main(["build", corpus_path, "--out", index_path,
                 "--threshold", "0.2", "--max-gram-len", "6"]) == 0
    return corpus_path, index_path


class TestSynth:
    def test_writes_image(self, tmp_path, capsys):
        out = str(tmp_path / "c.img")
        assert main(["synth", "--pages", "10", "--out", out]) == 0
        assert os.path.exists(out)
        assert "10 pages" in capsys.readouterr().out


class TestBuild:
    def test_build_reports_stats(self, images, capsys):
        # images fixture already built; rebuild presuf variant
        corpus_path, _ = images
        out2 = corpus_path + ".suffix.idx"
        assert main(["build", corpus_path, "--out", out2,
                     "--presuf"]) == 0
        text = capsys.readouterr().out
        assert "presuf index" in text
        assert "corpus scans" in text


class TestBuildProfile:
    def test_build_persists_report_and_profile(self, images, capsys):
        corpus_path, _ = images
        out2 = corpus_path + ".prof.idx"
        assert main(["build", corpus_path, "--out", out2,
                     "--profile"]) == 0
        text = capsys.readouterr().out
        assert os.path.exists(out2 + ".build.json")
        assert "build report ->" in text
        assert "build profile (multigram)" in text
        assert "level | candidates" in text
        assert "phase mining" in text
        assert "totals:" in text

    def test_index_alias(self, images, capsys):
        corpus_path, _ = images
        out2 = corpus_path + ".alias.idx"
        assert main(["index", corpus_path, "--out", out2]) == 0
        assert os.path.exists(out2)
        assert os.path.exists(out2 + ".build.json")

    def test_build_format_flag(self, images, capsys):
        corpus_path, _ = images
        v1 = corpus_path + ".v1.idx"
        assert main(["build", corpus_path, "--out", v1,
                     "--format", "v1"]) == 0
        with open(v1, "rb") as infile:
            assert infile.read(8) == b"FREEIDX1"


class TestConvert:
    def test_convert_round_trip(self, images, capsys):
        corpus_path, index_path = images
        v1 = str(index_path) + ".v1"
        back = str(index_path) + ".back"
        assert main(["convert", index_path, v1, "--format", "v1"]) == 0
        assert main(["convert", v1, back, "--format", "v2"]) == 0
        assert "converted" in capsys.readouterr().out
        with open(v1, "rb") as infile:
            assert infile.read(8) == b"FREEIDX1"
        with open(back, "rb") as infile:
            assert infile.read(8) == b"FREEIDX2"
        # The converted image still answers queries.
        assert main(["search", corpus_path, back, "clinton"]) == 0

    def test_convert_bad_image_is_clean_error(self, tmp_path, capsys):
        bogus = str(tmp_path / "bogus.idx")
        with open(bogus, "wb") as out:
            out.write(b"NOTANIDX")
        assert main(["convert", bogus, bogus + ".out"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSearch:
    def test_search_finds_matches(self, images, capsys):
        corpus_path, index_path = images
        assert main(["search", corpus_path, index_path, "<title>"]) == 0
        out = capsys.readouterr().out
        assert "matches" in out

    def test_search_ranked(self, images, capsys):
        corpus_path, index_path = images
        assert main(["search", corpus_path, index_path,
                     r"<p>\a+", "--ranked"]) == 0

    def test_search_limit(self, images, capsys):
        corpus_path, index_path = images
        assert main(["search", corpus_path, index_path, "<p>",
                     "--limit", "3"]) == 0

    def test_bad_pattern_is_clean_error(self, images, capsys):
        corpus_path, index_path = images
        assert main(["search", corpus_path, index_path, "(((" ]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("pattern", [
        "x.{0,250}y", "(" * 300 + "a" + ")" * 300, "a{5000}",
    ], ids=["gap", "groups", "count"])
    def test_pattern_past_limits_is_clean_error(
        self, images, capsys, pattern
    ):
        corpus_path, index_path = images
        assert main(["search", corpus_path, index_path, pattern]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_search_metrics_flag(self, images, capsys):
        corpus_path, index_path = images
        assert main(["search", corpus_path, index_path, "<title>",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "query metrics:" in out
        assert "caches:" in out
        assert "postings:" in out

    def test_search_trace_prints_span_tree(self, images, capsys):
        corpus_path, index_path = images
        assert main(["search", corpus_path, index_path, "Clinton",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "search" in out
        assert "postings_fetch" in out
        assert "verify" in out
        assert "leaf spans cover" in out


class TestExplain:
    def test_explain_prints_plans(self, images, capsys):
        corpus_path, index_path = images
        assert main(["explain", corpus_path, index_path,
                     "(Bill|William).*Clinton"]) == 0
        out = capsys.readouterr().out
        assert "LogicalPlan" in out
        assert "PhysicalPlan" in out

    def test_explain_analyze_prints_actuals(self, images, capsys):
        corpus_path, index_path = images
        assert main(["explain", corpus_path, index_path, "Clinton",
                     "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "analyze:" in out
        assert "est " in out and "actual" in out
        assert "candidates: actual" in out
        assert "vs estimated" in out
        assert "query metrics:" in out


    def test_explain_trace_prints_plan_spans(self, images, capsys):
        corpus_path, index_path = images
        assert main(["explain", corpus_path, index_path, "Clinton",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "parse" in out
        assert "physical_plan" in out

    def test_explain_analyze_trace_runs_full_query(
        self, images, capsys
    ):
        corpus_path, index_path = images
        assert main(["explain", corpus_path, index_path, "Clinton",
                     "--analyze", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "analyze:" in out
        assert "trace:" in out
        assert "verify" in out


class TestMetrics:
    def test_prometheus_text(self, images, capsys):
        corpus_path, index_path = images
        assert main(["metrics", corpus_path, index_path,
                     "--pattern", "<title>"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE free_queries_total counter" in out
        assert "# HELP" in out
        assert "free_query_seconds_bucket" in out
        assert 'le="+Inf"' in out

    def test_check_validates_exposition(self, images, capsys):
        corpus_path, index_path = images
        assert main(["metrics", corpus_path, index_path,
                     "--pattern", "<title>", "--check"]) == 0
        err = capsys.readouterr().err
        assert "metrics: OK" in err

    def test_json_snapshot(self, images, capsys):
        import json

        corpus_path, index_path = images
        assert main(["metrics", corpus_path, index_path,
                     "--pattern", "<title>", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["free_queries_total"]["type"] == "counter"
        samples = payload["free_queries_total"]["samples"]
        assert sum(samples.values()) >= 1

    def test_bad_repeats_is_usage_error(self, images, capsys):
        corpus_path, index_path = images
        assert main(["metrics", corpus_path, index_path,
                     "--repeats", "0"]) == 2


class TestEstimate:
    def test_estimate_prints_interval(self, images, capsys):
        corpus_path, _ = images
        assert main(["estimate", corpus_path, "<title>",
                     "--sample", "20"]) == 0
        out = capsys.readouterr().out
        assert "CI" in out and "matching units expected" in out

    def test_estimate_zero_for_absent(self, images, capsys):
        corpus_path, _ = images
        assert main(["estimate", corpus_path, "qqqqzzz"]) == 0
        assert "~ 0.0000" in capsys.readouterr().out


class TestBench:
    def test_bench_table3_small(self, capsys):
        assert main(["bench", "--pages", "60",
                     "--experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "multigram" in out

    def test_bench_repeat_small(self, capsys):
        assert main(["bench", "--pages", "60", "--experiment", "repeat",
                     "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "repeat" in out
        assert "plan_cache_hits" in out
        assert "full-cache" in out

    def test_bench_core_writes_artifact(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "BENCH_free_core.json")
        assert main(["bench", "--pages", "60", "--experiment", "core",
                     "--out", out_path]) == 0
        text = capsys.readouterr().out
        assert "core:" in text and "p95=" in text
        with open(out_path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["schema"] == "free-bench-core/1"
        assert record["name"] == "free_core"
        assert set(record["latency_seconds"]) == {"p50", "p95", "mean"}
        assert 0.0 <= record["cache_hit_rate"] <= 1.0
        assert record["candidate_ratio"] >= 0.0
        assert record["index_build_seconds"] > 0.0


class TestNoArgs:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestCheck:
    def test_clean_index_passes(self, images, capsys):
        _, index_path = images
        assert main(["check", "--index", index_path]) == 0
        out = capsys.readouterr().out
        assert "index invariants" in out
        assert "plan soundness" in out
        assert "check: OK" in out

    def test_corrupt_index_fails(self, images, tmp_path, capsys):
        _, index_path = images
        from repro.index.postings import PostingsList, encode_gaps
        from repro.index.serialize import load_index, save_index

        index = load_index(index_path)
        key = next(iter(index.keys()))
        # Forge an out-of-range doc id behind the loaded image's back.
        index._postings[key] = PostingsList.from_ids(
            [index.n_docs + 7]
        )
        bad_path = str(tmp_path / "bad.idx")
        save_index(index, bad_path)
        assert main(["check", "--index", bad_path,
                     "--pattern", "clinton"]) == 1
        out = capsys.readouterr().out
        assert "IDX005" in out
        assert "check: FAILED" in out

    def test_lint_only_passes_on_repo(self, capsys):
        assert main(["check", "--lint"]) == 0
        out = capsys.readouterr().out
        assert "lint" in out

    def test_everything_disabled_is_usage_error(self, capsys):
        assert main(["check", "--no-concurrency"]) == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_bare_check_runs_concurrency_gate(self, capsys):
        # --concurrency defaults on: a bare `free check` is the
        # zero-findings CONC/RES gate over the installed package.
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "concurrency & lifecycle" in out
        assert "check: OK" in out

    def test_format_sarif(self, capsys):
        import json

        assert main(["check", "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        driver = payload["runs"][0]["tool"]["driver"]
        assert driver["name"] == "free-check"
        assert payload["runs"][0]["results"] == []
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert rule_ids == set()  # no findings -> no referenced rules

    def test_json_output(self, images, capsys):
        import json

        _, index_path = images
        assert main(["check", "--index", index_path,
                     "--pattern", "clinton", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "index invariants" in payload["sections"]
        assert "clinton" in payload["justifications"]

    def test_verbose_prints_justifications(self, images, capsys):
        _, index_path = images
        assert main(["check", "--index", index_path,
                     "--pattern", "motorola", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "justifications for" in out

    def test_build_report_auto_discovered(self, images, capsys):
        _, index_path = images
        assert os.path.exists(index_path + ".build.json")
        assert main(["check", "--index", index_path]) == 0
        out = capsys.readouterr().out
        assert "build report" in out
        assert "check: OK" in out

    def test_doctored_build_report_fails(self, images, tmp_path,
                                         capsys):
        import json

        _, index_path = images
        with open(index_path + ".build.json", encoding="utf-8") as f:
            payload = json.load(f)
        payload["n_keys"] += 5
        bad_path = str(tmp_path / "doctored.build.json")
        with open(bad_path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        assert main(["check", "--index", index_path,
                     "--build-report", bad_path]) == 1
        out = capsys.readouterr().out
        assert "BLD001" in out
        assert "check: FAILED" in out


class TestCpusText:
    """record['cpu_count'] may be None: os.cpu_count() can fail."""

    def test_known_count(self):
        from repro.cli import _cpus_text

        assert _cpus_text(8) == "8 cpus"

    def test_none_count(self):
        from repro.cli import _cpus_text

        assert _cpus_text(None) == "unknown cpus"

    def test_none_cpu_count_survives_the_bench_record(self):
        import json

        # The sharded bench record must serialize a None cpu_count
        # (JSON null), not crash or coerce it.
        record = {"cpu_count": None}
        assert json.loads(json.dumps(record))["cpu_count"] is None

    def test_bench_sharded_renders_none_cpu_count(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro import cli

        record = {
            "speedup": {"p50": 1.5},
            "io_speedup": {"p50": 2.0},
            "baseline_latency_seconds": {"p50": 0.01},
            "sharded_latency_seconds": {"p50": 0.005},
            "cpu_count": None,
        }
        monkeypatch.setattr(
            cli, "default_workload", lambda n_pages=None: None
        )
        monkeypatch.setattr(
            cli.runner_mod, "write_bench_sharded",
            lambda *args, **kwargs: record,
        )
        out = str(tmp_path / "b.json")
        assert main(["bench", "--experiment", "sharded",
                     "--out", out]) == 0
        text = capsys.readouterr().out
        assert "unknown cpus" in text
        assert "None" not in text


class TestIngestCli:
    DOCS = [
        "the cat sat on the mat",
        "william jefferson clinton",
        "motorola mpc750 chip",
        "nothing to see here",
        "the cat ran fast",
        "buy this mp3 song now",
        "another page of words",
        "clinton spoke again",
    ]

    def _write_log(self, path, lines):
        with open(path, "w", encoding="utf-8") as out:
            for line in lines:
                out.write(line + "\n")

    def _matched_texts(self, capsys):
        """(summary line, sorted matched texts) from search output."""
        out = capsys.readouterr().out
        lines = out.splitlines()
        texts = sorted(
            line.split(": ", 1)[1]
            for line in lines
            if line.startswith("  unit ")
        )
        return lines[0].split(" in ")[0], texts

    def test_ingest_compact_search_round_trip(self, tmp_path, capsys):
        log = str(tmp_path / "docs.log")
        self._write_log(log, self.DOCS)
        ingest_dir = str(tmp_path / "idx")
        assert main(["ingest", ingest_dir, log,
                     "--memtable-docs", "2"]) == 0
        out = capsys.readouterr().out
        assert f"+{len(self.DOCS)} docs, -0 docs" in out
        assert main(["search", ingest_dir, "clinton"]) == 0
        assert "2 matches" in capsys.readouterr().out
        assert main(["compact", ingest_dir]) == 0
        assert "free compact: merged" in capsys.readouterr().out
        assert main(["search", ingest_dir, "clinton"]) == 0
        assert "2 matches" in capsys.readouterr().out

    def test_deletes_then_compact_equals_one_shot_build(
        self, tmp_path, capsys
    ):
        """The acceptance round trip at the CLI level: ingest with
        interleaved deletes, compact to one segment, and answer
        byte-identically to a one-shot ingest of the survivors."""
        # Doc ids are assigned in log order: 0..7; delete 1 and 4.
        interleaved = (
            self.DOCS[:3] + ["!delete 1"] + self.DOCS[3:6]
            + ["!delete 4"] + self.DOCS[6:]
        )
        survivors = [
            text for position, text in enumerate(self.DOCS)
            if position not in (1, 4)
        ]
        dir_a = str(tmp_path / "interleaved")
        dir_b = str(tmp_path / "oneshot")
        log_a = str(tmp_path / "a.log")
        log_b = str(tmp_path / "b.log")
        self._write_log(log_a, interleaved)
        self._write_log(log_b, survivors)
        assert main(["ingest", dir_a, log_a,
                     "--memtable-docs", "2"]) == 0
        assert main(["compact", dir_a]) == 0
        assert main(["ingest", dir_b, log_b, "--seal"]) == 0
        assert main(["compact", dir_b]) == 0
        capsys.readouterr()
        for pattern in ("cat", "clinton", "mp3", "th. cat", "zzz"):
            assert main(["search", dir_a, pattern]) == 0
            summary_a, texts_a = self._matched_texts(capsys)
            assert main(["search", dir_b, pattern]) == 0
            summary_b, texts_b = self._matched_texts(capsys)
            assert summary_a == summary_b
            assert texts_a == texts_b

    def test_ingest_resumes_offsets(self, tmp_path, capsys):
        log = str(tmp_path / "docs.log")
        self._write_log(log, self.DOCS[:3])
        ingest_dir = str(tmp_path / "idx")
        assert main(["ingest", ingest_dir, log, "--seal"]) == 0
        capsys.readouterr()
        assert main(["ingest", ingest_dir, log]) == 0
        assert "+0 docs, -0 docs" in capsys.readouterr().out

    def test_explain_on_ingest_dir(self, tmp_path, capsys):
        log = str(tmp_path / "docs.log")
        self._write_log(log, self.DOCS)
        ingest_dir = str(tmp_path / "idx")
        assert main(["ingest", ingest_dir, log,
                     "--memtable-docs", "4"]) == 0
        capsys.readouterr()
        assert main(["explain", ingest_dir, "clinton"]) == 0
        out = capsys.readouterr().out
        assert "segment" in out

    def test_check_gates_ingest_dir(self, tmp_path, capsys):
        log = str(tmp_path / "docs.log")
        self._write_log(log, self.DOCS + ["!delete 3"])
        ingest_dir = str(tmp_path / "idx")
        assert main(["ingest", ingest_dir, log,
                     "--memtable-docs", "2"]) == 0
        capsys.readouterr()
        assert main(["check", "--index", ingest_dir,
                     "--pattern", "clinton"]) == 0
        out = capsys.readouterr().out
        assert "index invariants" in out
        assert "check: OK" in out

    def test_search_missing_pattern_is_clean_error(
        self, tmp_path, capsys
    ):
        # Two-arg form where the first is not a directory.
        assert main(["search", str(tmp_path / "nope.img"),
                     "clinton"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compact_missing_dir_is_clean_error(self, tmp_path, capsys):
        assert main(["compact", str(tmp_path / "missing")]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeCli:
    def test_bad_worker_count_is_a_clean_error(self, images, capsys):
        corpus_path, index_path = images
        assert main(["serve", corpus_path, index_path,
                     "--workers", "0"]) == 1
        assert "workers" in capsys.readouterr().err

    def test_bench_serve_branch_renders_summary(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro import cli

        record = {
            "phases": {
                "closed": {
                    "qps": 123.4,
                    "latency_seconds": {
                        "p50": 0.004, "p95": 0.009, "p99": 0.02,
                    },
                },
                "open": {},
            },
            "service": {"shed": 2, "timeouts": 1},
            "n_5xx": 0,
        }
        monkeypatch.setattr(
            cli, "default_workload", lambda n_pages=None: None
        )
        monkeypatch.setattr(
            cli.runner_mod, "write_bench_serve",
            lambda *args, **kwargs: record,
        )
        out = str(tmp_path / "BENCH_free_serve.json")
        assert main(["bench", "--experiment", "serve",
                     "--out", out]) == 0
        text = capsys.readouterr().out
        assert "serve: sustained 123 qps" in text
        assert "shed 2 timeouts 1 5xx 0" in text
