"""The ``min_candidate_ratio`` cap threaded through the per-part loop.

The engine passes its candidate bound ``first_k`` into
:meth:`SegmentedGramIndex.candidates`, which caps each segment at
``first_k`` plus that segment's tombstone count.  A truncated segment
therefore still yields at least ``first_k`` live ids, so the scan
fallback fires exactly when the exhaustive live-candidate count
exceeds the ratio — and the answer never changes.  Capping a segment at
plain ``first_k`` would let tombstoned ids eat the cap: the merged list
would come back short, the fallback would not fire, and live matches
past the cut would be lost.  Checked on an in-memory segmented index,
a sharded image and an ingest directory.
"""

from __future__ import annotations

import pytest

from repro.corpus.document import DataUnit
from repro.corpus.store import InMemoryCorpus
from repro.engine.free import FreeEngine
from repro.engine.scan import ScanEngine
from repro.index.builder import MultigramIndexBuilder, build_multigram_index
from repro.index.ingest import IngestCorpus, IngestDirectory
from repro.index.segmented import SegmentedFreeEngine, SegmentedGramIndex
from repro.index.sharded import ShardedIndex
from repro.obs.registry import MetricsRegistry

PATTERN = "needle"
#: Fallback thresholds on both sides of every live count below.
RATIOS = (0.05, 0.2, 0.3, 0.4, 0.45, 0.5, 0.8)


def builder():
    # threshold 1.0: every gram is useful, so each segment plans a
    # real lookup for PATTERN instead of a segment-scan.
    return MultigramIndexBuilder(threshold=1.0, max_gram_len=6)


def texts():
    """Segment 0 (ids 0-9) is all needles; segment 1 (ids 10-19) has
    two.  Tombstoning ids 0-5 puts six deleted ids at the head of
    segment 0's postings, exactly where a cap truncates."""
    out = [f"needle {i} alpha" for i in range(10)]
    out += [
        f"needle {i} beta" if i in (15, 17) else f"hay {i} beta"
        for i in range(10, 20)
    ]
    return out


DELETED = range(6)


def fingerprint(report):
    return [(m.doc_id, m.span) for m in report.matches]


def exhaustive_count(engine):
    """Live candidates with no cap (the engine without a ratio)."""
    return engine.search(PATTERN, collect_matches=False).n_candidates


def check_fallback_rule(make_engine, corpus, truth):
    """Every ratio: fallback iff exhaustive count > ratio * live docs,
    and the matches equal the brute-force scan either way."""
    exhaustive = exhaustive_count(make_engine(None))
    outcomes = set()
    for ratio in RATIOS:
        report = make_engine(ratio).search(PATTERN)
        expected = exhaustive > ratio * len(corpus)
        assert report.metrics.optimizer_fallback is expected, ratio
        assert report.used_full_scan is expected, ratio
        assert fingerprint(report) == truth, ratio
        outcomes.add(expected)
    assert outcomes == {True, False}  # both sides were exercised


class TestSegmentedTombstones:
    @pytest.fixture()
    def parts(self):
        units = [DataUnit(i, text) for i, text in enumerate(texts())]
        seg_index = SegmentedGramIndex(builder())
        seg_index.add_documents(units[:10])
        seg_index.add_documents(units[10:])
        corpus = IngestCorpus(units)
        for doc_id in DELETED:
            assert seg_index.delete(doc_id)
            corpus.remove(doc_id)
        return seg_index, corpus

    def test_segments_plan_lookups(self, parts):
        seg_index, corpus = parts
        text = SegmentedFreeEngine(corpus, seg_index).explain(PATTERN)
        assert "segment-scan" not in text

    def test_fallback_iff_live_count_exceeds_ratio(self, parts):
        seg_index, corpus = parts
        truth = fingerprint(ScanEngine(corpus).search(PATTERN))
        assert [doc_id for doc_id, _ in truth] == [6, 7, 8, 9, 15, 17]

        def make(ratio):
            return SegmentedFreeEngine(
                corpus, seg_index, min_candidate_ratio=ratio,
                registry=MetricsRegistry(),
            )

        assert exhaustive_count(make(None)) == len(truth)
        check_fallback_rule(make, corpus, truth)

    def test_truncated_segment_keeps_first_k_live_ids(self, parts):
        seg_index, corpus = parts
        engine = SegmentedFreeEngine(corpus, seg_index)
        plans = engine._compiled_plans(PATTERN)
        # Cap 2: segment 0 reads 2 + 6 local ids and still yields two
        # live ones; segment 1 has exactly two.
        capped = seg_index.candidates(plans, first_k=2)
        assert capped == [6, 7, 15, 17]
        assert seg_index.candidates(plans) == [6, 7, 8, 9, 15, 17]


class TestShardedBound:
    def test_fallback_iff_live_count_exceeds_ratio(self):
        corpus = InMemoryCorpus.from_texts(texts())
        sharded = ShardedIndex.build(corpus, 2, builder=builder())
        truth = fingerprint(ScanEngine(corpus).search(PATTERN))

        def make(ratio):
            return SegmentedFreeEngine(
                corpus, sharded, min_candidate_ratio=ratio,
                registry=MetricsRegistry(),
            )

        check_fallback_rule(make, corpus, truth)
        flat = FreeEngine(
            corpus,
            build_multigram_index(corpus, threshold=1.0, max_gram_len=6),
            min_candidate_ratio=0.3,
        )
        assert fingerprint(flat.search(PATTERN)) == truth


class TestIngestBound:
    def test_fallback_iff_live_count_exceeds_ratio(self, tmp_path):
        with IngestDirectory(
            str(tmp_path / "ingest"), builder=builder(),
            memtable_docs=1000, auto_compact=False,
            registry=MetricsRegistry(),
        ) as directory:
            all_texts = texts()
            for text in all_texts[:10]:
                directory.add(text)
            directory.seal()
            for text in all_texts[10:]:
                directory.add(text)
            directory.seal()
            directory.add("needle in the memtable")
            for doc_id in DELETED:
                assert directory.delete(doc_id)
            corpus = directory.corpus
            truth = fingerprint(ScanEngine(corpus).search(PATTERN))
            assert len(truth) == 7

            def make(ratio):
                return SegmentedFreeEngine(
                    corpus, directory.index, min_candidate_ratio=ratio,
                    registry=MetricsRegistry(),
                )

            check_fallback_rule(make, corpus, truth)


class TestScanFallbackSkipsTombstones:
    """An in-memory corpus still holds tombstoned documents: the scan
    the ratio guard falls back to must neither read nor return them."""

    def test_fallback_answer_equals_index_answer(self):
        corpus = InMemoryCorpus.from_texts(
            ["abc one", "abc two", "xyz", "qrs"]
        )
        seg_index = SegmentedGramIndex.build(corpus)
        assert seg_index.delete(0)
        for ratio in (None, 0.1):
            report = SegmentedFreeEngine(
                corpus, seg_index, min_candidate_ratio=ratio,
                registry=MetricsRegistry(),
            ).search("abc")
            assert [m.doc_id for m in report.matches] == [1]
        assert report.used_full_scan and report.metrics.optimizer_fallback
        assert report.n_units_read == 3
        assert report.io_detail["sequential_chars"] == sum(
            len(corpus.get(doc_id).text) for doc_id in (1, 2, 3)
        )
