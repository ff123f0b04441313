"""Differential soundness: sharded execution is indistinguishable.

The sharded query path (``repro.index.sharded`` + ``repro.engine.sharded``)
must be a pure execution detail — for arbitrary regexes and corpora:

1. every shard-merged candidate set is a superset of the true matching
   units (the soundness invariant, shard-by-shard);
2. final search results are exactly equal across the unsharded
   :class:`FreeEngine`, :class:`ShardedFreeEngine` at N = 1, 2 and 7
   shards, cached and uncached, and the brute-force :class:`ScanEngine`;
3. the canonical byte serialization of a sharded result is identical to
   the single-shard one — not merely set-equal: ordering, counts and
   full-scan flags all agree.

The generators mirror ``tests/test_plan_soundness.py`` (tiny alphabet so
grams collide and cover sets are interesting).  The fixed-seed CI run
(`--hypothesis-seed` in ci.yml) keeps the corpus of examples stable.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.store import InMemoryCorpus
from repro.engine.free import FreeEngine
from repro.engine.scan import ScanEngine
from repro.engine.sharded import ShardedFreeEngine
from repro.index.builder import build_multigram_index
from repro.index.sharded import ShardedIndex
from repro.plan.logical import LogicalPlan
from repro.plan.physical import CompiledPlans
from repro.regex import ast
from repro.regex.charclass import CharClass
from repro.regex.matcher import Matcher

ALPHABET = "ab<"

#: N=1 (degenerate: must equal the unsharded engine structurally),
#: N=2 (generic split), N=7 (more shards than most generated corpora
#: have documents, so empty shards are exercised constantly).
SHARD_COUNTS = (1, 2, 7)


def asts(max_leaves=6):
    chars = st.sampled_from(ALPHABET).map(ast.Char.literal)
    classes = st.sets(
        st.sampled_from(ALPHABET), min_size=1, max_size=2
    ).map(lambda s: ast.Char(CharClass(s)))
    leaves = st.one_of(chars, chars, classes)  # bias towards literals
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: ast.concat(*t)),
            st.tuples(inner, inner).map(lambda t: ast.alt(*t)),
            inner.map(ast.Star),
            inner.map(ast.Plus),
            inner.map(ast.Opt),
        ),
        max_leaves=max_leaves,
    )


corpora = st.lists(
    st.text(alphabet=ALPHABET, min_size=0, max_size=20),
    min_size=1,
    max_size=8,
).map(InMemoryCorpus.from_texts)


def true_matching_units(corpus, matcher):
    return {u.doc_id for u in corpus if matcher.contains(u.text)}


def result_fingerprint(report):
    """Every *result* a search reports, canonically ordered.

    Execution-strategy fields (``used_full_scan``, candidate counts,
    I/O split) are deliberately excluded: each shard compiles against
    its own key directory, so a gram useful corpus-wide can be useless
    inside a shard and the same query legitimately runs as a lookup on
    one partition and a scan on another — while the answer stays
    byte-identical.
    """
    return (
        tuple((m.doc_id, m.span) for m in report.matches),
        report.n_matches_found,
        report.matching_units,
    )


def result_bytes(report):
    """Canonical byte serialization — 'byte-identical' is literal here."""
    return repr(result_fingerprint(report)).encode("utf-8")


@settings(max_examples=50, deadline=None)
@given(node=asts(), corpus=corpora, n_shards=st.sampled_from(SHARD_COUNTS))
def test_sharded_candidates_are_superset(node, corpus, n_shards):
    """Shard-merged candidates never lose a true match (soundness)."""
    sharded = ShardedIndex.build(
        corpus, n_shards, threshold=0.3, max_gram_len=4
    )
    merged = sharded.candidates(
        CompiledPlans(LogicalPlan.from_pattern(node))
    )
    candidates = (
        set(range(len(corpus))) if merged is None else set(merged)
    )
    matcher = Matcher(node, anchoring=False)
    truth = true_matching_units(corpus, matcher)
    assert truth <= candidates
    if merged is not None:
        # The merge must also be a well-formed global id list: sorted,
        # duplicate-free, in range.
        assert merged == sorted(set(merged))
        assert all(0 <= doc_id < len(corpus) for doc_id in merged)


@settings(max_examples=40, deadline=None)
@given(node=asts(), corpus=corpora)
def test_sharded_equals_unsharded_and_scan(node, corpus):
    """Unsharded, every shard count, and brute force all agree exactly."""
    pattern = node.to_pattern()
    index = build_multigram_index(corpus, threshold=0.3, max_gram_len=4)
    reference = result_fingerprint(FreeEngine(corpus, index).search(pattern))
    scan_report = ScanEngine(corpus).search(pattern)
    assert reference[0] == tuple(
        (m.doc_id, m.span) for m in scan_report.matches
    )
    for n_shards in SHARD_COUNTS:
        sharded = ShardedIndex.build(
            corpus, n_shards, threshold=0.3, max_gram_len=4
        )
        engine = ShardedFreeEngine(corpus, sharded)
        got = result_fingerprint(engine.search(pattern))
        assert got == reference, (
            f"n_shards={n_shards}: {got} != {reference}"
        )


@settings(max_examples=40, deadline=None)
@given(node=asts(), corpus=corpora)
def test_sharded_byte_identical_to_single_shard(node, corpus):
    """N-shard results serialize byte-for-byte like the 1-shard ones."""
    pattern = node.to_pattern()
    reports = {}
    for n_shards in SHARD_COUNTS:
        sharded = ShardedIndex.build(
            corpus, n_shards, threshold=0.3, max_gram_len=4
        )
        reports[n_shards] = ShardedFreeEngine(corpus, sharded).search(pattern)
    baseline = result_bytes(reports[1])
    for n_shards in SHARD_COUNTS[1:]:
        assert result_bytes(reports[n_shards]) == baseline


@settings(max_examples=30, deadline=None)
@given(node=asts(), corpus=corpora, n_shards=st.sampled_from(SHARD_COUNTS))
def test_cached_equals_uncached(node, corpus, n_shards):
    """Candidate/plan caches never change answers, sharded or not."""
    pattern = node.to_pattern()
    sharded = ShardedIndex.build(
        corpus, n_shards, threshold=0.3, max_gram_len=4
    )
    uncached = ShardedFreeEngine(corpus, sharded, candidate_cache_size=0)
    cached = ShardedFreeEngine(corpus, sharded, candidate_cache_size=32)
    reference = result_fingerprint(uncached.search(pattern))
    first = cached.search(pattern)
    second = cached.search(pattern)  # served from the candidate cache
    assert result_fingerprint(first) == reference
    assert result_fingerprint(second) == reference
    assert second.metrics.candidate_cache_hit


# -- fixed (non-Hypothesis) differential checks on a realistic corpus ------

PATTERNS = [
    "ab",
    "a+b",
    "(a|b)<",
    "a(a|b)*<b",
    "<a?b+",
]


@pytest.fixture(scope="module")
def small_corpus():
    texts = [
        "".join(ALPHABET[(i * 7 + j * 3) % 3] for j in range(5 + i % 17))
        for i in range(60)
    ]
    return InMemoryCorpus.from_texts(texts)


def test_parallel_process_pool_byte_identical(small_corpus):
    """The fork-pool parallel path reproduces sequential bytes exactly."""
    corpus = small_corpus
    index = build_multigram_index(corpus, threshold=0.3, max_gram_len=4)
    reference_engine = FreeEngine(corpus, index)
    sharded = ShardedIndex.build(corpus, 3, threshold=0.3, max_gram_len=4)
    sequential = ShardedFreeEngine(corpus, sharded, workers=1)
    with ShardedFreeEngine(
        corpus, sharded, workers=2, pool="process"
    ) as parallel:
        for pattern in PATTERNS:
            r_ref = reference_engine.search(pattern)
            r_seq = sequential.search(pattern)
            r_par = parallel.search(pattern)
            assert result_bytes(r_seq) == result_bytes(r_par)
            assert result_fingerprint(r_par) == result_fingerprint(r_ref)
            assert r_par.n_units_read == r_seq.n_units_read
            assert r_par.used_full_scan == r_seq.used_full_scan


def test_parallel_thread_pool_candidates_identical(small_corpus):
    """The thread fan-out (postings only) merges the same candidates."""
    corpus = small_corpus
    sharded = ShardedIndex.build(corpus, 4, threshold=0.3, max_gram_len=4)
    sequential = ShardedFreeEngine(corpus, sharded, workers=1)
    with ShardedFreeEngine(
        corpus, sharded, workers=3, pool="thread"
    ) as threaded:
        for pattern in PATTERNS:
            assert result_bytes(threaded.search(pattern)) == \
                result_bytes(sequential.search(pattern))


def test_batch_search_matches_individual_searches(small_corpus):
    """search_batch shares candidates but answers like N plain searches."""
    corpus = small_corpus
    sharded = ShardedIndex.build(corpus, 2, threshold=0.3, max_gram_len=4)
    engine = ShardedFreeEngine(corpus, sharded)
    individual = [
        result_fingerprint(engine.search(p)) for p in PATTERNS + PATTERNS
    ]
    batched = engine.search_batch(PATTERNS + PATTERNS)
    assert [result_fingerprint(r) for r in batched] == individual
    # Duplicate patterns in one batch reuse the group's candidate set.
    assert any(r.metrics.batch_candidates_reused for r in batched)
