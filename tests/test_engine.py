"""End-to-end engine tests: FREE vs Scan equivalence, first-k, ranking."""

import re

import pytest

from repro import (
    DiskModel,
    FreeEngine,
    InMemoryCorpus,
    ScanEngine,
    build_multigram_index,
)
from repro.bench.queries import BENCHMARK_QUERIES, NULL_PLAN_QUERIES
from repro.regex.matcher import to_stdlib_pattern
from repro.regex.parser import parse


def make_corpus():
    return InMemoryCorpus.from_texts([
        "the cat sat on the mat",
        "william jefferson clinton was president",
        "motorola mpc750 is a powerpc chip",
        '<a href="song.mp3">mp3 here</a>',
        "nothing interesting here at all",
        "william x clinton and william jefferson clinton",
        "the dog ran after the cat",
        '<script>var a=1;</script> call (408) 555-0199',
    ])


@pytest.fixture(scope="module")
def tiny():
    corpus = make_corpus()
    index = build_multigram_index(corpus, threshold=0.3, max_gram_len=8)
    return corpus, index


class TestEquivalence:
    """The core contract: index-assisted results == scan results."""

    QUERIES = [
        "cat",
        "william\\s+[a-z]+\\s+clinton",
        "motorola.*(xpc|mpc)[0-9]+",
        '<a href="[^"]*\\.mp3">',
        "(cat|dog)",
        "zzz_not_present",
        "\\(\\d\\d\\d\\) \\d\\d\\d-\\d\\d\\d\\d",
        "<script>.*</script>",
    ]

    @pytest.mark.parametrize("pattern", QUERIES)
    def test_same_matches(self, tiny, pattern):
        corpus, index = tiny
        free = FreeEngine(corpus, index)
        scan = ScanEngine(corpus)
        r_free = free.search(pattern)
        r_scan = scan.search(pattern)
        assert sorted((m.doc_id, m.start, m.end) for m in r_free.matches) \
            == sorted((m.doc_id, m.start, m.end) for m in r_scan.matches)

    @pytest.mark.parametrize("pattern", QUERIES)
    def test_candidates_superset_of_matching_units(self, tiny, pattern):
        corpus, index = tiny
        free = FreeEngine(corpus, index)
        report = free.search(pattern)
        matched_units = {m.doc_id for m in report.matches}
        assert len(matched_units) == report.matching_units
        assert report.n_candidates >= report.matching_units

    def test_fixture_equivalence_on_benchmarks(
        self, corpus, multigram_index
    ):
        free = FreeEngine(corpus, multigram_index)
        scan = ScanEngine(corpus)
        for name, pattern in BENCHMARK_QUERIES.items():
            free_count = free.search(pattern, collect_matches=False)
            scan_count = scan.search(pattern, collect_matches=False)
            assert free_count.n_matches == scan_count.n_matches, name

    def test_complete_index_equivalence(self, corpus, complete_index):
        free = FreeEngine(corpus, complete_index)
        scan = ScanEngine(corpus)
        for name in ("clinton", "powerpc", "stanford"):
            pattern = BENCHMARK_QUERIES[name]
            assert (
                free.search(pattern, collect_matches=False).n_matches
                == scan.search(pattern, collect_matches=False).n_matches
            ), name

    def test_presuf_index_equivalence(self, corpus, presuf_index):
        free = FreeEngine(corpus, presuf_index)
        scan = ScanEngine(corpus)
        for name in ("clinton", "sigmod", "mp3"):
            pattern = BENCHMARK_QUERIES[name]
            assert (
                free.search(pattern, collect_matches=False).n_matches
                == scan.search(pattern, collect_matches=False).n_matches
            ), name


class TestPlansInEngine:
    def test_null_queries_fall_back_to_scan(self):
        # A corpus where every character of the phone query is common,
        # so no gram is useful and the plan collapses to NULL.
        corpus = InMemoryCorpus.from_texts(
            [f"(0123456789-) call {i}" for i in range(4)]
        )
        index = build_multigram_index(corpus, threshold=0.3, max_gram_len=8)
        free = FreeEngine(corpus, index)
        report = free.search(r"\(\d\d\d\) \d\d\d-\d\d\d\d")
        assert report.used_full_scan
        assert report.n_candidates == len(corpus)

    def test_indexed_query_reads_fewer_units(self, tiny):
        corpus, index = tiny
        free = FreeEngine(corpus, index)
        report = free.search("motorola.*(xpc|mpc)[0-9]+")
        assert not report.used_full_scan
        assert report.n_units_read < len(corpus)

    def test_explain_smoke(self, tiny):
        corpus, index = tiny
        free = FreeEngine(corpus, index)
        text = free.explain("motorola")
        assert "LogicalPlan" in text and "PhysicalPlan" in text

    def test_scan_engine_has_no_physical_plan(self, tiny):
        corpus, _index = tiny
        scan = ScanEngine(corpus)
        logical, physical = scan.plan("abc")
        assert physical is None

    def test_min_candidate_ratio_guard(self, tiny):
        corpus, index = tiny
        # guard at 0: any candidate set "too large" -> scan
        engine = FreeEngine(corpus, index, min_candidate_ratio=0.0)
        report = engine.search("cat")
        assert report.used_full_scan

    def test_estimate(self, tiny):
        corpus, index = tiny
        engine = FreeEngine(corpus, index)
        cost = engine.estimate("motorola")
        assert cost is not None
        assert 0.0 <= cost.selectivity <= 1.0
        assert ScanEngine(corpus).estimate("motorola") is None


class TestFirstK:
    def test_limit_respected(self, tiny):
        corpus, index = tiny
        free = FreeEngine(corpus, index)
        report = free.first_k("cat", k=2)
        assert report.n_matches == 2
        assert report.truncated

    def test_no_truncation_when_few_matches(self, tiny):
        corpus, index = tiny
        report = FreeEngine(corpus, index).first_k("motorola", k=10)
        assert not report.truncated

    def test_first_k_is_prefix_of_full(self, tiny):
        corpus, index = tiny
        free = FreeEngine(corpus, index)
        full = free.search("cat").matches
        first = free.first_k("cat", k=2).matches
        assert [(m.doc_id, m.span) for m in first] == \
            [(m.doc_id, m.span) for m in full[:2]]

    def test_first_k_reads_fewer_units_on_scan(self, corpus):
        scan = ScanEngine(corpus)
        full = scan.search("<p>", collect_matches=False)
        first = scan.first_k("<p>", k=10)
        assert first.n_units_read <= full.n_units_read

    def test_zero_matches(self, tiny):
        corpus, index = tiny
        report = FreeEngine(corpus, index).first_k("zzz_never", k=10)
        assert report.n_matches == 0


class TestResultsAndRanking:
    def test_frequency_ranked(self, tiny):
        corpus, index = tiny
        free = FreeEngine(corpus, index)
        ranked = free.frequency_ranked("william [a-z]+ clinton")
        assert ranked[0][0] == "william jefferson clinton"
        assert ranked[0][1] == 2

    def test_count(self, tiny):
        corpus, index = tiny
        # "the cat sat on the mat" + "the dog ran after the cat"
        assert FreeEngine(corpus, index).count("cat") == 2

    def test_collect_matches_false_keeps_count(self, tiny):
        corpus, index = tiny
        report = FreeEngine(corpus, index).search(
            "cat", collect_matches=False
        )
        assert report.n_matches == 2
        assert report.matches == []

    def test_match_objects(self, tiny):
        corpus, index = tiny
        report = FreeEngine(corpus, index).search("mpc[0-9]+")
        (match,) = report.matches
        assert match.text == "mpc750"
        assert corpus.get(match.doc_id).text[match.start:match.end] \
            == "mpc750"

    def test_summary_string(self, tiny):
        corpus, index = tiny
        report = FreeEngine(corpus, index).search("cat")
        assert "cat" in report.summary()


class TestIOAccounting:
    def test_scan_charges_sequential(self, tiny):
        corpus, _ = tiny
        disk = DiskModel()
        scan = ScanEngine(corpus, disk=disk)
        scan.search("zzz_not_present", collect_matches=False)
        assert disk.sequential_chars == corpus.total_chars
        assert disk.random_chars == 0

    def test_index_charges_random(self, tiny):
        corpus, index = tiny
        disk = DiskModel()
        free = FreeEngine(corpus, index, disk=disk)
        report = free.search("motorola")
        assert not report.used_full_scan
        assert disk.random_accesses == report.n_units_read
        assert disk.sequential_chars == 0

    def test_io_cost_in_report(self, tiny):
        corpus, index = tiny
        free = FreeEngine(corpus, index, disk=DiskModel())
        r1 = free.search("motorola")
        r2 = free.search("motorola")
        # per-report deltas, not cumulative totals
        assert r1.io_cost == pytest.approx(r2.io_cost)

    def test_rare_query_io_far_below_scan(self, corpus, multigram_index):
        free = FreeEngine(corpus, multigram_index, disk=DiskModel())
        scan = ScanEngine(corpus, disk=DiskModel())
        pattern = BENCHMARK_QUERIES["powerpc"]
        fr = free.search(pattern, collect_matches=False)
        sr = scan.search(pattern, collect_matches=False)
        # the fixture boosts powerpc to 2% of pages, so the margin is
        # modest here; the benchmark-scale corpus shows orders of
        # magnitude (EXPERIMENTS.md)
        assert fr.io_cost * 2 < sr.io_cost


class TestReBackendEngine:
    def test_re_backend_equivalent(self, tiny):
        """Matching units agree with stdlib ``re`` over every unit."""
        corpus, index = tiny
        engine = FreeEngine(corpus, index)
        for pattern in ("cat", "motorola.*(xpc|mpc)[0-9]+"):
            oracle = re.compile(to_stdlib_pattern(parse(pattern)))
            report = engine.search(pattern, collect_matches=False)
            assert report.matching_units == sum(
                oracle.search(unit.text) is not None for unit in corpus
            )
