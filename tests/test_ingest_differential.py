"""Differential property harness for the ingest lifecycle.

Random interleavings of add / delete / seal / compact must leave the
directory answering exactly like a flat one-shot FreeEngine over the
surviving corpus: candidate lists are sound over-approximations of the
brute-force truth, and search results are byte-identical (same doc,
same span, same text) — before *and* after a close/reopen cycle, so
recovery is inside the property, not a separate best-effort test.
"""

import shutil
import tempfile

from hypothesis import given, settings, strategies as st

from repro.corpus.store import InMemoryCorpus
from repro.engine.free import FreeEngine
from repro.index.builder import MultigramIndexBuilder
from repro.index.ingest import IngestDirectory
from repro.index.segmented import SegmentedFreeEngine
from repro.regex import Matcher
from repro.obs.registry import MetricsRegistry
from repro.plan.logical import LogicalPlan
from repro.plan.physical import CompiledPlans

BUILDER = MultigramIndexBuilder(threshold=0.5, max_gram_len=3)

PATTERNS = ["ab", "a+b", "(a|b)<", "<a?b"]

TEXT = st.text(alphabet="ab<", min_size=0, max_size=12)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), TEXT),
        st.tuples(st.just("del"), st.integers(min_value=0,
                                              max_value=99)),
        st.tuples(st.just("seal"), st.just(0)),
        st.tuples(st.just("compact"), st.just(0)),
    ),
    min_size=1,
    max_size=25,
)


def apply_ops(directory, ops, after_op=None):
    """Drive the directory and a dict model through the same ops;
    ``after_op(model)`` runs after each one when given."""
    model = {}
    for op, arg in ops:
        if op == "add":
            doc_id = directory.add(arg)
            assert doc_id not in model
            model[doc_id] = arg
        elif op == "del":
            live = sorted(model)
            if live:
                victim = live[arg % len(live)]
                assert directory.delete(victim)
                del model[victim]
            else:
                assert not directory.delete(arg)
        elif op == "seal":
            directory.seal()
        elif op == "compact":
            directory.compact()
        if after_op is not None:
            after_op(model)
    return model


def check_candidates_sound(directory, model):
    """candidates ⊇ the brute-force matching doc set, and ⊆ live docs."""
    live = set(model)
    for pattern in PATTERNS:
        matcher = Matcher(pattern)
        truth = {
            doc_id for doc_id, text in model.items()
            if matcher.count(text) > 0
        }
        candidates = directory.index.candidates(
            CompiledPlans(LogicalPlan.from_pattern(pattern))
        )
        assert candidates is not None  # sparse ids: never "scan all"
        assert truth <= set(candidates) <= live
        assert candidates == sorted(candidates)


def check_search_identical(directory, model):
    """Search results equal a flat rebuild of the surviving corpus."""
    survivors = sorted(model)
    dense = {doc_id: ordinal for ordinal, doc_id in enumerate(survivors)}
    seg_engine = SegmentedFreeEngine(
        directory.corpus, directory.index, registry=MetricsRegistry()
    )
    if not survivors:
        with seg_engine:
            for pattern in PATTERNS:
                assert seg_engine.search(pattern).n_matches == 0
        return
    flat_corpus = InMemoryCorpus.from_texts(
        [model[doc_id] for doc_id in survivors]
    )
    flat_index = BUILDER.build(flat_corpus)
    with seg_engine, FreeEngine(flat_corpus, flat_index) as flat:
        for pattern in PATTERNS:
            a = seg_engine.search(pattern)
            b = flat.search(pattern)
            assert sorted(
                (dense[m.doc_id], m.start, m.end, m.text)
                for m in a.matches
            ) == sorted(
                (m.doc_id, m.start, m.end, m.text) for m in b.matches
            )
            assert a.n_matches == b.n_matches


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_ingest_differential_property(ops):
    tmpdir = tempfile.mkdtemp(prefix="free-ingest-diff-")
    try:
        with IngestDirectory(
            tmpdir,
            builder=BUILDER,
            memtable_docs=3,
            fanout=2,
            auto_compact=True,
            registry=MetricsRegistry(),
        ) as directory:
            model = apply_ops(directory, ops)
            check_candidates_sound(directory, model)
            check_search_identical(directory, model)
            generation = directory.generation
        # Recovery is part of the property: reopen and re-verify.
        with IngestDirectory(
            tmpdir,
            builder=BUILDER,
            memtable_docs=3,
            fanout=2,
            registry=MetricsRegistry(),
        ) as reopened:
            assert reopened.generation == generation
            survivors = {
                unit.doc_id: unit.text for unit in reopened.corpus
            }
            assert survivors == model
            check_candidates_sound(reopened, model)
            check_search_identical(reopened, model)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_warm_engine_tracks_every_op(ops):
    """One engine, held open across the whole op stream, answers like
    the dict model after every op.

    Its plan cache stays warm throughout, so this is the property that
    plans cached per segment never outlive what they were compiled
    for: seals and compactions mount new segments under the engine,
    and tombstones and the memtable change between queries.
    """
    matchers = {pattern: Matcher(pattern) for pattern in PATTERNS}

    tmpdir = tempfile.mkdtemp(prefix="free-ingest-warm-")
    try:
        with IngestDirectory(
            tmpdir,
            builder=BUILDER,
            memtable_docs=3,
            fanout=2,
            auto_compact=True,
            registry=MetricsRegistry(),
        ) as directory, SegmentedFreeEngine(
            directory.corpus, directory.index, registry=MetricsRegistry()
        ) as engine:

            def check(model):
                for pattern, matcher in matchers.items():
                    expected = sorted(
                        (doc_id, start, end)
                        for doc_id, text in model.items()
                        for start, end in matcher.finditer(text)
                    )
                    report = engine.search(pattern)
                    assert sorted(
                        (m.doc_id, m.start, m.end) for m in report.matches
                    ) == expected

            check(apply_ops(directory, ops, after_op=check))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


@settings(max_examples=25, deadline=None)
@given(ops=OPS, crash_after=st.integers(min_value=0, max_value=24))
def test_ingest_recovery_prefix_property(ops, crash_after):
    """Killing the process after any prefix of the op stream recovers
    exactly the acknowledged prefix state."""
    tmpdir = tempfile.mkdtemp(prefix="free-ingest-crash-")
    prefix = ops[: crash_after % (len(ops) + 1)]
    try:
        directory = IngestDirectory(
            tmpdir,
            builder=BUILDER,
            memtable_docs=3,
            fanout=2,
            auto_compact=True,
            registry=MetricsRegistry(),
        )
        model = apply_ops(directory, prefix)
        del directory  # no close(): simulate a kill
        with IngestDirectory(
            tmpdir,
            builder=BUILDER,
            memtable_docs=3,
            fanout=2,
            registry=MetricsRegistry(),
        ) as reopened:
            survivors = {
                unit.doc_id: unit.text for unit in reopened.corpus
            }
            assert survivors == model
            check_search_identical(reopened, model)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
