"""Physical plans cached per immutable index part.

The engine's plan cache keys a pattern's logical plan by the pattern
alone and keeps one physical plan per index part (flat index, segment,
shard) it was compiled against.  These tests count
``PhysicalPlan.compile`` calls to pin that down: a part is planned once
per pattern for its lifetime, a seal or merge plans only the segment it
created, ``explain`` shows the cached plans, and a compacted-away
segment is never kept alive by the cache.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.corpus.store import InMemoryCorpus
from repro.engine.free import FreeEngine
from repro.engine.sharded import ShardedFreeEngine
from repro.index.builder import MultigramIndexBuilder
from repro.index.ingest import IngestDirectory
from repro.index.segmented import SegmentedFreeEngine, SegmentedGramIndex
from repro.index.sharded import ShardedIndex
from repro.obs.registry import MetricsRegistry
from repro.plan.logical import LogicalPlan
from repro.plan.physical import CompiledPlans, PhysicalPlan

BUILDER = MultigramIndexBuilder(threshold=0.3, max_gram_len=5)

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

PATTERNS = ["cat", "clinton", "mp[0-9]"]


@pytest.fixture
def compiles(monkeypatch):
    """Ids of the indexes ``PhysicalPlan.compile`` ran against, in
    call order (ids, not the indexes: a test must not pin them)."""
    seen = []
    real = PhysicalPlan.compile

    def counting(logical, index, policy="all"):
        seen.append(id(index))
        return real(logical, index, policy)

    monkeypatch.setattr(PhysicalPlan, "compile", staticmethod(counting))
    return seen


def open_dir(path, **kwargs):
    kwargs.setdefault("builder", BUILDER)
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("memtable_docs", 100)
    kwargs.setdefault("auto_compact", False)
    return IngestDirectory(str(path), **kwargs)


def add_and_seal(directory, texts):
    for text in texts:
        directory.add(text)
    directory.seal()


class TestCompilesPerPart:
    def test_flat_index_compiles_once(self, compiles):
        corpus = InMemoryCorpus.from_texts(TEXTS)
        index = BUILDER.build(corpus)
        with FreeEngine(corpus, index, registry=MetricsRegistry()) as engine:
            for _ in range(5):
                engine.search("cat")
        assert len(compiles) == 1

    def test_segmented_candidates_compile_each_segment_once(self, compiles):
        seg = SegmentedGramIndex.build(
            InMemoryCorpus.from_texts(TEXTS), segment_docs=3,
            builder=BUILDER,
        )
        plans = CompiledPlans(LogicalPlan.from_pattern("cat"))
        seg.candidates(plans)
        # One plan per segment per query: the all-NULL test and the
        # execution share it.
        assert len(compiles) == len(seg.segments) == 3
        seg.candidates(plans)
        assert len(compiles) == 3

    def test_n_queries_over_k_segments_make_k_compiles(self, compiles):
        corpus = InMemoryCorpus.from_texts(TEXTS)
        seg = SegmentedGramIndex.build(
            corpus, segment_docs=3, builder=BUILDER
        )
        with SegmentedFreeEngine(
            corpus, seg, registry=MetricsRegistry()
        ) as engine:
            for _ in range(6):
                engine.search("cat")
        assert sorted(compiles) == sorted(
            id(segment.index) for segment in seg.segments
        )

    def test_seal_adds_exactly_one_compile(self, tmp_path, compiles):
        with open_dir(tmp_path) as directory, SegmentedFreeEngine(
            directory.corpus, directory.index, registry=MetricsRegistry()
        ) as engine:
            add_and_seal(directory, TEXTS[:3])
            add_and_seal(directory, TEXTS[3:6])
            for _ in range(4):
                engine.search("cat")
            assert len(compiles) == 2
            # Memtable documents are candidates wholesale: no plan.
            directory.add(TEXTS[6])
            engine.search("cat")
            assert len(compiles) == 2

            directory.add(TEXTS[7])
            directory.seal()
            after_seal = engine.search("cat")
            assert len(compiles) == 3
            assert compiles[-1] == id(directory.index.segments[-1].index)
            assert after_seal.metrics.plan_cache_hit is False
            warm = engine.search("cat")
            assert len(compiles) == 3
            assert warm.metrics.plan_cache_hit is True

    def test_merge_plans_only_the_new_segment(self, tmp_path, compiles):
        with open_dir(tmp_path) as directory, SegmentedFreeEngine(
            directory.corpus, directory.index, registry=MetricsRegistry()
        ) as engine:
            add_and_seal(directory, TEXTS[:4])
            add_and_seal(directory, TEXTS[4:])
            directory.delete(0)
            for pattern in PATTERNS:
                engine.search(pattern)
            before = len(compiles)
            directory.compact()
            (merged,) = directory.index.segments
            for _ in range(3):
                for pattern in PATTERNS:
                    engine.search(pattern)
            assert compiles[before:] == [id(merged.index)] * len(PATTERNS)

    def test_sharded_compiles_once_per_shard(self, compiles):
        corpus = InMemoryCorpus.from_texts(TEXTS)
        sharded = ShardedIndex.build(corpus, 3, threshold=0.3)
        with ShardedFreeEngine(
            corpus, sharded, registry=MetricsRegistry()
        ) as engine:
            for _ in range(4):
                engine.search("clinton")
        assert len(compiles) == 3

    def test_logical_hits_across_epochs(self, tmp_path):
        """The logical key carries no epoch, so adds between queries
        keep the plan cache hitting (the ``ingest_live`` shape)."""
        with open_dir(tmp_path, memtable_docs=2) as directory, (
            SegmentedFreeEngine(
                directory.corpus, directory.index,
                registry=MetricsRegistry(),
            )
        ) as engine:
            for text in TEXTS:
                directory.add(text)
                engine.search("cat")
            stats = engine.cache_stats()["plan"]
        assert stats["misses"] == 1
        assert stats["hits"] == len(TEXTS) - 1


    def test_thread_fanout_fills_every_shard_plan(self):
        """The thread pool plans shards concurrently into one entry; a
        lost update would leave a shard unplanned (and replanned on
        every later query)."""
        import sys

        corpus = InMemoryCorpus.from_texts(TEXTS * 4)
        sharded = ShardedIndex.build(corpus, 8, threshold=0.3)
        patterns = PATTERNS + ["the", "again", "c[a-z]t", "words|song"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardedFreeEngine(
                corpus, sharded, workers=4, pool="thread",
                registry=MetricsRegistry(),
            ) as threaded, ShardedFreeEngine(
                corpus, sharded, registry=MetricsRegistry()
            ) as sequential:
                for _ in range(3):
                    for pattern in patterns:
                        got = threaded.search(pattern)
                        want = sequential.search(pattern)
                        assert got.matches == want.matches
                for pattern in patterns:
                    plans = threaded._compiled_plans(pattern)
                    assert len(plans._physical) == sharded.n_shards
        finally:
            sys.setswitchinterval(interval)


class TestExplainShowsCachedPlans:
    def test_segmented_explain_reuses_query_plans(
        self, tmp_path, compiles
    ):
        with open_dir(tmp_path) as directory, SegmentedFreeEngine(
            directory.corpus, directory.index, registry=MetricsRegistry()
        ) as engine:
            add_and_seal(directory, TEXTS[:4])
            add_and_seal(directory, TEXTS[4:])
            engine.search("clinton")
            assert len(compiles) == 2
            text = engine.explain("clinton")
            assert len(compiles) == 2  # explain compiled nothing
            for ordinal in range(2):
                assert f"segment {ordinal}" in text

    def test_segmented_explain_warms_the_query(self, tmp_path, compiles):
        with open_dir(tmp_path) as directory, SegmentedFreeEngine(
            directory.corpus, directory.index, registry=MetricsRegistry()
        ) as engine:
            add_and_seal(directory, TEXTS)
            engine.explain("cat")
            assert len(compiles) == 1
            engine.search("cat")
            assert len(compiles) == 1  # the query ran explain's plan

    def test_sharded_explain_reuses_query_plans(self, compiles):
        corpus = InMemoryCorpus.from_texts(TEXTS)
        sharded = ShardedIndex.build(corpus, 2, threshold=0.3)
        with ShardedFreeEngine(
            corpus, sharded, registry=MetricsRegistry()
        ) as engine:
            engine.search("clinton")
            assert len(compiles) == 2
            text = engine.explain("clinton")
            assert len(compiles) == 2
            assert "shard 0" in text and "shard 1" in text


class TestNoPinning:
    def test_compaction_releases_victims_under_a_warm_engine(
        self, tmp_path
    ):
        """A full plan cache must not keep compacted-away segments (or
        their mmaps) alive: the cache's keys are weak."""
        with open_dir(tmp_path) as directory, SegmentedFreeEngine(
            directory.corpus, directory.index, registry=MetricsRegistry()
        ) as engine:
            for start in range(0, len(TEXTS), 2):
                add_and_seal(directory, TEXTS[start:start + 2])
            for pattern in PATTERNS:
                engine.search(pattern)
            assert len(engine.plan_cache) == len(PATTERNS)
            victims = [weakref.ref(s) for s in directory.index.segments]
            indexes = [
                weakref.ref(s.index) for s in directory.index.segments
            ]
            assert len(victims) == 4

            directory.compact()
            gc.collect()
            assert all(ref() is None for ref in victims)
            assert all(ref() is None for ref in indexes)
            # ...and the warm engine still answers from the merged
            # segment.
            assert engine.count("clinton") == 2

    def test_dropped_index_leaves_the_entry(self):
        corpus = InMemoryCorpus.from_texts(TEXTS)
        plans = CompiledPlans(LogicalPlan.from_pattern("cat"))
        index = BUILDER.build(corpus)
        plans.physical(index)
        probe = weakref.ref(index)
        del index
        gc.collect()
        assert probe() is None
        assert len(plans._physical) == 0
