"""Query-path caching and per-query metrics (plan/answer/matcher LRUs).

Covers the cache layer end to end: the LRU primitive, cache soundness
(identical answers with caching on/off, invalidation on index change,
epoch keys on mutable indexes), and the QueryMetrics counters riding on
every SearchReport.
"""

import pytest

from repro import FreeEngine, InMemoryCorpus, build_multigram_index
from repro.bench.runner import run_repeated_queries
from repro.corpus.document import DataUnit
from repro.index.builder import MultigramIndexBuilder
from repro.index.segmented import SegmentedFreeEngine, SegmentedGramIndex
from repro.metrics import LRUCache, QueryMetrics

TEXTS = [
    "the cat sat on the mat",
    "william jefferson clinton",
    "motorola mpc750 chip",
    "nothing to see here",
    "the cat ran fast",
    "buy this mp3 song now",
    "another page of words",
    "clinton spoke again",
]


@pytest.fixture()
def corpus():
    return InMemoryCorpus.from_texts(TEXTS)


@pytest.fixture()
def index(corpus):
    return build_multigram_index(corpus, threshold=0.5, max_gram_len=5)


def make_engine(corpus, index, **kwargs):
    return FreeEngine(corpus, index, **kwargs)


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("b", "dflt") == "dflt"

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_capacity_zero_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.misses == 1 and cache.hits == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_clear_drops_entries_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_hit_rate_and_stats(self):
        cache = LRUCache(4)
        assert cache.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("zz")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["capacity"] == 4 and stats["entries"] == 1

    def test_contains_does_not_touch_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache  # membership probe, not a use
        cache.put("c", 3)
        assert "a" not in cache  # a was still the LRU entry

    def test_overwrite_refreshes(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache


class TestPlanCache:
    def test_second_search_hits(self, corpus, index):
        engine = make_engine(corpus, index)
        first = engine.search("clinton")
        second = engine.search("clinton")
        assert first.metrics.plan_cache_hit is False
        assert second.metrics.plan_cache_hit is True
        assert first.n_matches == second.n_matches == 2
        assert engine.plan_cache.stats()["hits"] == 1

    def test_disabled_plan_cache_never_hits(self, corpus, index):
        engine = make_engine(corpus, index, plan_cache_size=0)
        engine.search("clinton")
        report = engine.search("clinton")
        assert report.metrics.plan_cache_hit is False

    def test_key_includes_cover_policy(self, corpus, index):
        engine = make_engine(corpus, index)
        engine.search("clinton")
        engine.cover_policy = type(engine.cover_policy)("best")
        report = engine.search("clinton")
        assert report.metrics.plan_cache_hit is False

    def test_cached_results_identical(self, corpus, index):
        engine = make_engine(corpus, index)
        cold = engine.search("the cat")
        warm = engine.search("the cat")
        assert [m.text for m in cold.matches] == \
            [m.text for m in warm.matches]
        assert cold.n_candidates == warm.n_candidates


class TestCandidateCache:
    """The answer cache (it keeps the ``candidate_cache_hit`` flag and
    the ``candidates`` stats key of the cache it replaced)."""

    def test_hit_skips_postings_io(self, corpus, index):
        engine = make_engine(corpus, index, answer_cache_bytes=1 << 16)
        cold = engine.search("clinton")
        warm = engine.search("clinton")
        assert cold.metrics.candidate_cache_hit is False
        assert warm.metrics.candidate_cache_hit is True
        assert cold.io_detail["postings_read"] > 0
        assert warm.io_detail["postings_read"] == 0
        assert warm.io_cost == 0
        assert warm.metrics.units_confirmed == 0
        assert warm.n_matches == cold.n_matches
        assert warm.n_candidates == cold.n_candidates
        assert warm.matches == cold.matches

    def test_disabled_by_default(self, corpus, index):
        engine = make_engine(corpus, index)
        engine.search("clinton")
        report = engine.search("clinton")
        assert report.metrics.candidate_cache_hit is None
        assert report.io_detail["postings_read"] > 0
        assert engine.cache_stats()["candidates"]["misses"] == 0

    def test_scan_all_plans_cached_too(self, corpus, index):
        engine = make_engine(corpus, index, answer_cache_bytes=1 << 16)
        cold = engine.search("zzzqqq")  # nothing indexable -> full scan
        warm = engine.search("zzzqqq")
        assert cold.used_full_scan and warm.used_full_scan
        assert warm.metrics.candidate_cache_hit is True
        assert warm.n_matches == cold.n_matches == 0

    def test_results_equal_with_and_without(self, corpus, index):
        plain = make_engine(corpus, index)
        caching = make_engine(corpus, index, answer_cache_bytes=1 << 16)
        for pattern in ["clinton", "the cat", "mpc[0-9]+", "(cat|mp3)"]:
            expected = plain.search(pattern).n_matches
            assert caching.search(pattern).n_matches == expected
            assert caching.search(pattern).n_matches == expected  # warm


class TestInvalidation:
    def test_index_setter_clears_caches(self, corpus, index):
        engine = make_engine(corpus, index, answer_cache_bytes=1 << 16)
        engine.search("clinton")
        assert len(engine.plan_cache) > 0
        assert len(engine.answer_cache) > 0
        engine.index = build_multigram_index(
            corpus, threshold=0.9, max_gram_len=3
        )
        assert len(engine.plan_cache) == 0
        assert len(engine.answer_cache) == 0

    def test_matcher_cache_survives_index_swap(self, corpus, index):
        engine = make_engine(corpus, index)
        engine.search("clinton")
        matcher = engine._matcher("clinton")
        engine.index = index
        assert engine._matcher("clinton") is matcher

    def test_new_index_actually_used(self, corpus, index):
        engine = make_engine(corpus, index, answer_cache_bytes=1 << 16)
        before = engine.search("clinton")
        assert not before.used_full_scan
        engine.index = build_multigram_index(
            InMemoryCorpus.from_texts(["zz"] * 4), threshold=0.5,
            max_gram_len=3,
        )
        after = engine.search("clinton")
        # the new index has no useful keys: the plan must be recompiled
        # (full scan), not served from the old index's cache
        assert after.used_full_scan
        assert after.n_matches == before.n_matches


class TestSegmentedEpoch:
    BUILDER = MultigramIndexBuilder(threshold=0.5, max_gram_len=5)

    def engine_over(self, corpus):
        seg = SegmentedGramIndex.build(
            corpus, segment_docs=3, builder=self.BUILDER
        )
        return SegmentedFreeEngine(
            corpus, seg, answer_cache_bytes=1 << 16
        ), seg

    def test_epoch_bumps_on_mutation(self, corpus):
        engine, seg = self.engine_over(corpus)
        start = seg.epoch  # build() adds segments, each bumps it
        assert start == len(seg.segments)
        seg.add_documents([DataUnit(len(corpus), "clinton once more")])
        assert seg.epoch == start + 1
        assert seg.delete(0)
        assert seg.epoch == start + 2
        assert not seg.delete(999)  # no-op delete: epoch unchanged
        assert seg.epoch == start + 2

    def test_no_stale_candidates_after_add(self, corpus):
        texts = list(TEXTS)
        engine, seg = self.engine_over(corpus)
        assert engine.count("clinton") == 2
        assert engine.count("clinton") == 2  # prime the answer cache
        texts.append("president clinton returns")
        new_corpus = InMemoryCorpus.from_texts(texts)
        engine.corpus = new_corpus
        seg.add_documents([DataUnit(len(TEXTS), texts[-1])])
        assert engine.count("clinton") == 3  # epoch key -> no stale hit

    def test_no_stale_candidates_after_delete(self, corpus):
        engine, seg = self.engine_over(corpus)
        assert engine.count("clinton") == 2
        seg.delete(1)  # "william jefferson clinton"
        assert engine.count("clinton") == 1


class TestMatcherCacheBounded:
    def test_capacity_enforced(self, corpus, index):
        engine = make_engine(corpus, index, matcher_cache_size=2)
        for pattern in ["cat", "mat", "chip", "song"]:
            engine.search(pattern)
        assert len(engine.matcher_cache) <= 2

    def test_matcher_hit_flag(self, corpus, index):
        engine = make_engine(corpus, index)
        cold = engine.search("cat")
        warm = engine.search("cat")
        assert cold.metrics.matcher_cache_hit is False
        assert warm.metrics.matcher_cache_hit is True

    def test_cache_stats_shape(self, corpus, index):
        engine = make_engine(corpus, index)
        engine.search("cat")
        stats = engine.cache_stats()
        assert set(stats) == {"plan", "candidates", "matcher"}
        assert stats["plan"]["misses"] >= 1


class TestQueryMetrics:
    def test_postings_counters(self, corpus, index):
        engine = make_engine(corpus, index)
        report = engine.search("clinton")
        metrics = report.metrics
        assert metrics is not None
        assert len(metrics.lookups) > 0
        assert metrics.postings_entries_decoded > 0
        assert metrics.postings_cache_misses > 0

    def test_decoded_ids_cache_hits_on_second_query(self, corpus, index):
        engine = make_engine(corpus, index)
        engine.search("clinton")
        warm = engine.search("clinton").metrics
        # the GramIndex decoded-ids cache serves every lookup now
        assert warm.postings_cache_hits == len(warm.lookups)
        assert warm.postings_entries_decoded == 0

    def test_intersection_sizes_recorded(self, corpus, index):
        engine = make_engine(corpus, index)
        metrics = engine.search("the cat").metrics
        assert metrics.intersect_input >= metrics.intersect_output
        assert metrics.intersect_input > 0

    def test_prefilter_and_confirmation_counters(self, corpus, index):
        engine = make_engine(corpus, index)
        # "catx" is covered by the weaker "ca" AND "at": both cat-units
        # are candidates, yet neither contains the literal "catx", so
        # the prefilter rejects them before the automaton runs
        report = engine.search("catx")
        metrics = report.metrics
        assert report.n_units_read == 2
        assert metrics.prefilter_rejected == 2
        assert metrics.units_confirmed == 0
        assert report.n_matches == 0

    def test_phase_timings_present(self, corpus, index):
        metrics = make_engine(corpus, index).search("cat").metrics
        assert set(metrics.phase_seconds) == {"plan", "execute"}
        assert all(t >= 0 for t in metrics.phase_seconds.values())

    def test_io_mirror_matches_report(self, corpus, index):
        engine = make_engine(corpus, index)
        report = engine.search("clinton")
        assert report.metrics.postings_charged == \
            report.io_detail["postings_read"]
        assert report.metrics.random_accesses == \
            report.io_detail["random_accesses"]

    def test_as_dict_and_pretty(self, corpus, index):
        metrics = make_engine(corpus, index).search("cat").metrics
        flat = metrics.as_dict()
        assert flat["plan_cache_hit"] is False
        assert "query metrics:" in metrics.pretty()
        assert "lookups" in metrics.pretty()

    def test_scan_engine_metrics(self, corpus):
        engine = FreeEngine(corpus, index=None)
        metrics = engine.search("cat").metrics
        assert metrics.sequential_chars > 0
        assert metrics.candidate_cache_hit is None


class TestExplainAnalyze:
    def test_analyze_annotates_actuals(self, corpus, index):
        engine = make_engine(corpus, index)
        text = engine.explain("clinton", analyze=True)
        assert "analyze:" in text
        assert "est " in text and "actual" in text
        assert "candidates: actual" in text
        assert "query metrics:" in text

    def test_plain_explain_unchanged(self, corpus, index):
        text = make_engine(corpus, index).explain("clinton")
        assert "analyze:" not in text
        assert "estimated:" in text

    def test_analyze_without_index(self, corpus):
        text = FreeEngine(corpus, index=None).explain(
            "clinton", analyze=True
        )
        assert "sequential scan" in text
        assert "analyze:" in text


class TestRepeatedQueryRunner:
    def test_three_tiers_and_identical_matches(self, corpus, index):
        rows = run_repeated_queries(
            corpus=corpus, index=index,
            queries={"clinton": "clinton", "cat": "the cat"},
            repeats=3,
        )
        by_mode = {row["mode"]: row for row in rows}
        assert set(by_mode) == {"uncached", "plan-cache", "full-cache"}
        assert by_mode["plan-cache"]["plan_cache_hits"] == 4  # 2 q x 2
        assert by_mode["full-cache"]["candidate_cache_hits"] == 4
        assert len({row["matches"] for row in rows}) == 1

    def test_repeats_validated(self, corpus, index):
        with pytest.raises(ValueError):
            run_repeated_queries(
                corpus=corpus, index=index, queries={"q": "cat"},
                repeats=0,
            )
