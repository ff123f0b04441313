"""E9 (ours): repeated-query serving — what the query-path cache buys.

The paper evaluates one-shot queries; a deployed engine re-serves a hot
pattern set continuously.  This benchmark issues the Figure 8 query set
N times against the multigram index at three caching tiers (none,
plan+matcher, full stack with answer cache) and checks the three
production claims:

* the plan cache hits on every repeat (hit rate -> (N-1)/N);
* total planning time drops with caching on;
* answers are bit-identical at every tier (the runner asserts it).
"""

import pytest

from repro.bench.report import format_table
from repro.bench.runner import run_repeated_queries
from repro.engine.free import FreeEngine
from repro.iomodel.diskmodel import DiskModel

REPEATS = 5


@pytest.fixture(scope="module")
def repeated_rows(workload):
    return run_repeated_queries(workload, repeats=REPEATS)


def test_repeated_query_report(repeated_rows, emit, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit("repeated_queries", format_table(
        repeated_rows,
        title=f"Repeated-query workload (Figure 8 set x{REPEATS}): "
              "query-path caching tiers",
    ))


def test_plan_cache_hits_on_repeats(repeated_rows):
    by_mode = {row["mode"]: row for row in repeated_rows}
    assert by_mode["plan-cache"]["plan_cache_hits"] > 0
    assert by_mode["plan-cache"]["plan_cache_hit_rate"] > 0
    assert by_mode["uncached"]["plan_cache_hits"] == 0


def test_caching_reduces_plan_time(repeated_rows):
    by_mode = {row["mode"]: row for row in repeated_rows}
    assert by_mode["plan-cache"]["plan_s"] < by_mode["uncached"]["plan_s"]


def test_answer_cache_skips_postings_io(repeated_rows):
    by_mode = {row["mode"]: row for row in repeated_rows}
    assert by_mode["full-cache"]["candidate_cache_hits"] > 0
    assert by_mode["full-cache"]["io"] <= by_mode["uncached"]["io"]


def test_matches_identical(repeated_rows):
    # run_repeated_queries raises internally on any mismatch; the row
    # totals double-check it from the outside.
    by_mode = {row["mode"]: row for row in repeated_rows}
    assert by_mode["plan-cache"]["matches"] == by_mode["uncached"]["matches"]
    assert by_mode["full-cache"]["matches"] == by_mode["uncached"]["matches"]


@pytest.mark.parametrize("cached", [True, False],
                         ids=["cached", "uncached"])
def test_bench_hot_query(benchmark, workload, cached):
    size = 256 if cached else 0
    engine = FreeEngine(
        workload.corpus, workload.multigram, disk=DiskModel(),
        plan_cache_size=size, answer_cache_bytes=size << 13,
        matcher_cache_size=256,
    )
    pattern = r"(Bill|William)( [A-Z][a-z]*)* Clinton"
    engine.search(pattern, collect_matches=False)  # warm
    benchmark(engine.search, pattern, collect_matches=False)
