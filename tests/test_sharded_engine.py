"""Sharded images through the one segmented engine: construction,
close semantics, introspection, tracing and observability."""

from __future__ import annotations

import pytest

from repro.corpus.store import InMemoryCorpus
from repro.engine.factory import wrap_index
from repro.engine.free import FreeEngine
from repro.errors import FreeError, IndexBuildError
from repro.index.builder import build_multigram_index
from repro.index.segmented import SegmentedFreeEngine
from repro.index.sharded import ShardedIndex
from repro.obs.registry import MetricsRegistry

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "sphinx of black quartz judge my vow",
    "how vexingly quick daft zebras jump",
    "the five boxing wizards jump quickly",
    "jackdaws love my big sphinx of quartz",
    "mr jock tv quiz phd bags few lynx",
    "quick zephyrs blow vexing daft jim",
]


@pytest.fixture(scope="module")
def corpus():
    return InMemoryCorpus.from_texts(TEXTS)


@pytest.fixture(scope="module")
def sharded(corpus):
    return ShardedIndex.build(corpus, 3, threshold=0.4, max_gram_len=4)


def matches_of(report):
    return [(m.doc_id, m.span) for m in report.matches]


class TestConstruction:
    def test_rejects_plain_gram_index(self, corpus):
        index = build_multigram_index(corpus, threshold=0.4, max_gram_len=4)
        with pytest.raises(IndexBuildError, match="SegmentedGramIndex"):
            SegmentedFreeEngine(corpus, index)

    def test_rejects_corpus_size_mismatch(self, corpus, sharded):
        smaller = InMemoryCorpus.from_texts(TEXTS[:-1])
        with pytest.raises(FreeError, match="docs"):
            wrap_index(smaller, sharded)

    def test_name_and_repr(self, corpus, sharded):
        engine = wrap_index(corpus, sharded)
        assert isinstance(engine, SegmentedFreeEngine)
        assert engine.name == "segmented"
        assert "3 segments" in repr(engine)

    def test_epoch_is_stable(self, corpus, sharded):
        # Shards are immutable: the answer-cache epoch never moves.
        engine = SegmentedFreeEngine(corpus, sharded)
        engine.search("quick")
        assert engine._cache_epoch() == sharded.epoch == 0


class TestClose:
    def test_engine_usable_after_close(self, corpus, sharded):
        with SegmentedFreeEngine(corpus, sharded) as engine:
            before = matches_of(engine.search("quick"))
        # Context exit dropped the caches; the engine still answers.
        assert matches_of(engine.search("quick")) == before
        engine.close()


class TestIntrospection:
    def test_explain_lists_every_shard(self, corpus, sharded):
        engine = SegmentedFreeEngine(corpus, sharded)
        text = engine.explain("quick")
        for ordinal in range(sharded.n_shards):
            assert f"segment {ordinal}" in text

    def test_explain_marks_shard_scans(self, corpus, sharded):
        engine = SegmentedFreeEngine(corpus, sharded)
        # A starred pattern requires no gram: every shard plan is NULL.
        assert "segment-scan" in engine.explain("z*")

    def test_explain_analyze_runs_the_query(self, corpus, sharded):
        engine = SegmentedFreeEngine(corpus, sharded)
        text = engine.explain("quick", analyze=True)
        assert "candidates" in text

    def test_estimate_is_undefined_per_shard(self, corpus, sharded):
        engine = SegmentedFreeEngine(corpus, sharded)
        assert engine.estimate("quick") is None


class TestTracing:
    def test_trace_postings_span_counts_shards(self, corpus, sharded):
        engine = SegmentedFreeEngine(corpus, sharded)
        report = engine.search("quick", trace=True)
        (span,) = report.trace.find("postings")
        assert span.attrs["segments"] == sharded.n_shards


class TestObservability:
    def test_query_counters_still_fold(self, corpus, sharded):
        registry = MetricsRegistry()
        engine = SegmentedFreeEngine(corpus, sharded, registry=registry)
        engine.search("quick")
        queries = registry.snapshot()["free_queries_total"]["samples"]
        assert queries == {"engine=segmented": 1.0}


class TestPathGating:
    def test_candidate_cache_hits_on_repeat(self, corpus, sharded):
        with SegmentedFreeEngine(
            corpus, sharded, answer_cache_bytes=1 << 16
        ) as engine:
            first = engine.search("quick")
            second = engine.search("quick")
        assert second.metrics.candidate_cache_hit
        assert matches_of(first) == matches_of(second)

    def test_scan_only_pattern_sets_full_scan_flag(self, corpus, sharded):
        engine = SegmentedFreeEngine(corpus, sharded)
        report = engine.search("z*")
        assert report.used_full_scan
        reference = FreeEngine(
            corpus,
            build_multigram_index(corpus, threshold=0.4, max_gram_len=4),
        ).search("z*")
        assert matches_of(report) == matches_of(reference)
