"""Segmented index tests: build, add, delete, merge, query equivalence."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import InMemoryCorpus, Matcher, ScanEngine, build_multigram_index
from repro.corpus.document import DataUnit
from repro.errors import IndexBuildError
from repro.index.builder import MultigramIndexBuilder
from repro.index.segmented import (
    Segment,
    SegmentedFreeEngine,
    SegmentedGramIndex,
)
from repro.plan.logical import LogicalPlan
from repro.plan.physical import CompiledPlans


def corpus_of(*texts):
    return InMemoryCorpus.from_texts(texts)


BUILDER = MultigramIndexBuilder(threshold=0.3, max_gram_len=5)


def seg_index_over(corpus, segment_docs=3):
    return SegmentedGramIndex.build(
        corpus, segment_docs=segment_docs, builder=BUILDER
    )


BASE_TEXTS = [
    "the cat sat on the mat",
    "william jefferson clinton",
    "motorola mpc750 chip",
    "nothing to see here",
    "the cat ran fast",
    "buy this mp3 song now",
    "another page of words",
    "clinton spoke again",
]


class TestBuild:
    def test_segment_count(self):
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus, segment_docs=3)
        assert len(seg.segments) == 3  # 3 + 3 + 2
        assert seg.n_docs == len(corpus)

    def test_segment_size_validation(self):
        with pytest.raises(IndexBuildError):
            SegmentedGramIndex.build(corpus_of("a"), segment_docs=0)

    def test_mismatched_segment_rejected(self):
        index = build_multigram_index(corpus_of("ab", "cd"))
        with pytest.raises(IndexBuildError):
            Segment([0], index)  # 1 global id, 2-doc index

    def test_duplicate_doc_id_rejected(self):
        corpus = corpus_of("aa", "bb")
        seg = seg_index_over(corpus)
        with pytest.raises(IndexBuildError):
            seg.add_documents([DataUnit(0, "dup")])

    def test_empty_add_rejected(self):
        seg = SegmentedGramIndex(BUILDER)
        with pytest.raises(IndexBuildError):
            seg.add_documents([])


class TestQueryEquivalence:
    QUERIES = ["cat", "clinton", "mpc[0-9]+", "zzz", "(cat|mp3)",
               "th. cat"]

    @pytest.mark.parametrize("pattern", QUERIES)
    @pytest.mark.parametrize("segment_docs", [1, 3, 100])
    def test_matches_scan(self, pattern, segment_docs):
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus, segment_docs=segment_docs)
        engine = SegmentedFreeEngine(corpus, seg)
        scan = ScanEngine(corpus)
        a = engine.search(pattern)
        b = scan.search(pattern)
        assert [(m.doc_id, m.span) for m in a.matches] == \
            [(m.doc_id, m.span) for m in b.matches]

    def test_per_segment_availability_differs(self):
        """A gram useful in one segment and useless in another must
        still be handled soundly (the reason plans compile per
        segment)."""
        # segment 1: 'xy' rare (sel 0.25 <= c); segment 2: universal
        texts = ["xy here", "aaa", "bbb", "ccc"] + ["xy common"] * 4
        corpus = corpus_of(*texts)
        seg = seg_index_over(corpus, segment_docs=4)
        plans = CompiledPlans(LogicalPlan.from_pattern("xy"))
        candidates = seg.candidates(plans)
        assert candidates is not None  # segment 1 can filter
        truth = {u.doc_id for u in corpus if "xy" in u.text}
        assert truth <= set(candidates)
        # segment 1's filtering really applied: docs 1-3 excluded
        assert {1, 2, 3}.isdisjoint(candidates)


class TestIncremental:
    def test_add_documents_searchable(self):
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus)
        engine = SegmentedFreeEngine(corpus, seg)
        before = engine.count("powerpc")
        assert before == 0
        unit = corpus.append_text("new powerpc page arrives")
        seg.add_documents([unit])
        assert engine.count("powerpc") == 1

    def test_delete_hides_matches(self):
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus)
        engine = SegmentedFreeEngine(corpus, seg)
        assert engine.count("clinton") == 2
        assert seg.delete(1)
        assert engine.count("clinton") == 1
        assert seg.n_deleted == 1

    def test_delete_unknown_or_double(self):
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus)
        assert not seg.delete(999)
        assert seg.delete(0)
        assert not seg.delete(0)

    def test_delete_affects_null_plan_queries_too(self):
        """Tombstones must apply even when the plan is a full scan."""
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus)
        engine = SegmentedFreeEngine(corpus, seg)
        # 'the' is common -> NULL plan in most segments
        before = engine.count("the")
        assert seg.delete(0)  # "the cat sat on the mat" has 2 'the'
        after = engine.count("the")
        assert after == before - 2

    def test_interleaved_adds_and_deletes(self):
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus)
        engine = SegmentedFreeEngine(corpus, seg)
        unit1 = corpus.append_text("cat number nine")
        seg.add_documents([unit1])
        seg.delete(0)
        seg.delete(4)
        unit2 = corpus.append_text("last cat standing")
        seg.add_documents([unit2])
        # remaining 'cat' docs: unit1, unit2
        assert engine.count("cat") == 2


class TestMerge:
    def test_merge_reduces_segments(self):
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus, segment_docs=1)
        assert len(seg.segments) == 8
        merges = seg.merge_segments(3, corpus)
        assert len(seg.segments) <= 3
        assert merges >= 5

    def test_merge_purges_tombstones(self):
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus, segment_docs=2)
        seg.delete(1)
        seg.merge_segments(1, corpus)
        assert seg.n_deleted == 0
        assert seg.n_live == len(BASE_TEXTS) - 1

    def test_merge_preserves_answers(self):
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus, segment_docs=1)
        engine = SegmentedFreeEngine(corpus, seg)
        seg.delete(3)
        before = {
            q: engine.count(q) for q in ("cat", "clinton", "mp3")
        }
        seg.merge_segments(2, corpus)
        after = {
            q: engine.count(q) for q in ("cat", "clinton", "mp3")
        }
        assert before == after

    def test_merge_validation(self):
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus)
        with pytest.raises(IndexBuildError):
            seg.merge_segments(0, corpus)

    def test_merge_to_one_equals_monolithic_build(self):
        """Fully merged, the segmented index IS the paper's index."""
        corpus = corpus_of(*BASE_TEXTS)
        seg = seg_index_over(corpus, segment_docs=2)
        seg.merge_segments(1, corpus)
        (only,) = seg.segments
        monolithic = BUILDER.build(corpus)
        assert set(only.index.keys()) == set(monolithic.keys())
        for key in monolithic.keys():
            local_ids = only.index.lookup(key).ids()
            global_ids = [only.global_ids[i] for i in local_ids]
            assert global_ids == monolithic.lookup(key).ids()


@settings(max_examples=50, deadline=None)
@given(
    texts=st.lists(
        st.text(alphabet="ab<", min_size=0, max_size=15),
        min_size=1, max_size=10,
    ),
    segment_docs=st.sampled_from([1, 2, 4]),
    pattern=st.sampled_from(["a+b", "(a|b)<", "ab", "<a?b"]),
    delete_first=st.booleans(),
)
def test_segmented_soundness_property(
    texts, segment_docs, pattern, delete_first
):
    corpus = InMemoryCorpus.from_texts(texts)
    seg = SegmentedGramIndex.build(
        corpus, segment_docs=segment_docs,
        builder=MultigramIndexBuilder(threshold=0.5, max_gram_len=3),
    )
    if delete_first:
        seg.delete(0)
    engine = SegmentedFreeEngine(corpus, seg)
    matcher = Matcher(pattern)
    expected = sum(
        matcher.count(u.text)
        for u in corpus
        if not (delete_first and u.doc_id == 0)
    )
    assert engine.count(pattern) == expected
