"""Ingest-while-query: one writer, many readers, zero exceptions.

The lifecycle's concurrency contract: a single writer thread may add,
delete, seal, and compact while any number of reader threads query the
same live ``corpus``/``index`` pair through private engines.  Readers
must never see an exception, epochs must be monotone, and a segment
image unlinked by compaction must stay readable for a reader holding
the pre-compaction snapshot (POSIX unlinked-mmap semantics).
"""

import os
import threading

from repro.index.builder import MultigramIndexBuilder
from repro.index.ingest import IngestDirectory, is_segment_file
from repro.index.segmented import SegmentedFreeEngine
from repro.obs.registry import MetricsRegistry
from repro.plan.logical import LogicalPlan
from repro.plan.physical import CompiledPlans

BUILDER = MultigramIndexBuilder(threshold=0.3, max_gram_len=5)

PATTERNS = ["cat", "clinton", "mpc[0-9]+", "(cat|mp3)", "page"]

N_DOCS = 90
N_READERS = 3


def _doc_text(position):
    tags = ["the cat sat", "william clinton", "motorola mpc750",
            "buy this mp3", "plain words only"]
    return f"page {position} {tags[position % len(tags)]}"


def _writer(directory, errors):
    try:
        live = []
        for position in range(N_DOCS):
            doc_id = directory.add(_doc_text(position))
            live.append(doc_id)
            if position % 7 == 6:
                directory.delete(live.pop(0))
        directory.compact()
    except Exception as exc:
        errors.append(f"writer: {type(exc).__name__}: {exc}")


def _reader(directory, stop, errors, epochs):
    engine = SegmentedFreeEngine(
        directory.corpus, directory.index, registry=MetricsRegistry()
    )
    try:
        with engine:
            position = 0
            while not stop.is_set():
                epochs.append(directory.epoch)
                pattern = PATTERNS[position % len(PATTERNS)]
                position += 1
                engine.search(pattern, collect_matches=True)
    except Exception as exc:
        errors.append(f"reader: {type(exc).__name__}: {exc}")


def test_ingest_while_query_no_exceptions(tmp_path):
    with IngestDirectory(
        str(tmp_path),
        builder=BUILDER,
        memtable_docs=8,
        fanout=2,
        auto_compact=True,
        registry=MetricsRegistry(),
    ) as directory:
        errors = []
        epoch_logs = [[] for _ in range(N_READERS)]
        stop = threading.Event()
        writer = threading.Thread(
            target=_writer, args=(directory, errors), name="writer"
        )
        readers = [
            threading.Thread(
                target=_reader,
                args=(directory, stop, errors, epoch_logs[i]),
                name=f"reader-{i}",
            )
            for i in range(N_READERS)
        ]
        writer.start()
        for thread in readers:
            thread.start()
        writer.join(timeout=120)
        assert not writer.is_alive(), "writer deadlocked"
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
            assert not thread.is_alive(), "reader deadlocked"

        assert errors == []
        # Every reader made progress and saw monotone epochs.
        for log in epoch_logs:
            assert log, "reader never ran"
            assert all(a <= b for a, b in zip(log, log[1:]))
        # The writer's final compact left a consistent single view.
        stats = directory.stats()
        assert stats["n_tombstones"] == 0
        expected_live = N_DOCS - (N_DOCS // 7)
        assert stats["n_live"] == expected_live
        assert len(directory.corpus) == expected_live


def test_unlinked_segment_stays_readable(tmp_path):
    """A reader holding the pre-compaction snapshot keeps answering
    from victim segments even after their images are unlinked."""
    with IngestDirectory(
        str(tmp_path),
        builder=BUILDER,
        memtable_docs=2,
        auto_compact=False,
        registry=MetricsRegistry(),
    ) as directory:
        for position in range(8):
            directory.add(_doc_text(position))
        old_segments, _ = directory.index.snapshot()
        assert len(old_segments) == 4
        old_names = [segment.file_name for segment in old_segments]

        directory.compact()

        # The victims' images are gone from the directory...
        remaining = [
            name for name in os.listdir(str(tmp_path))
            if is_segment_file(name)
        ]
        assert len(remaining) == 1
        assert not set(old_names) & set(remaining)
        # ...but the held snapshot still serves lookups and candidate
        # queries out of the unlinked mmaps.
        plans = CompiledPlans(LogicalPlan.from_pattern("cat"), "all")
        for segment in old_segments:
            candidates = segment.candidates(plans.physical(segment.index))
            for gid in candidates:
                assert gid in segment.global_ids
            assert list(segment.index.keys()) is not None


def test_readers_see_each_doc_exactly_once(tmp_path):
    """During seal and merge there is no instant where a doc is
    answered twice (memtable + segment) or zero times."""
    with IngestDirectory(
        str(tmp_path),
        builder=BUILDER,
        memtable_docs=4,
        fanout=2,
        auto_compact=True,
        registry=MetricsRegistry(),
    ) as directory:
        errors = []
        stop = threading.Event()
        counts = []

        def reader():
            engine = SegmentedFreeEngine(
                directory.corpus, directory.index,
                registry=MetricsRegistry(),
            )
            try:
                with engine:
                    while not stop.is_set():
                        report = engine.search(
                            "uniquetoken", collect_matches=True
                        )
                        counts.append(report.n_matches)
            except Exception as exc:
                errors.append(f"{type(exc).__name__}: {exc}")

        # One doc carries the token; once acknowledged, every
        # concurrent observation must count it exactly once, through
        # seals and merges.
        directory.add("the one uniquetoken doc")
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for position in range(40):
                directory.add(_doc_text(position))
            directory.compact()
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert errors == []
        assert counts, "reader never ran"
        assert set(counts) == {1}
