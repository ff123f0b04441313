"""Edge-case shard shapes + the first-k merge-order regression.

Every degenerate partition the sharder can produce — empty shards,
one-doc shards, everything in one shard, more shards than documents —
must build, pass ``free check``, serialize, and answer queries through
the one segmented engine exactly like the unsharded engine.  The second
half pins the merge-order contract: candidates are unioned in *global
doc-id order*, which is what makes first-k truncation read the same
unit prefix sharded as unsharded.
"""

from __future__ import annotations

import pytest

from repro.analysis import run_check
from repro.corpus.store import InMemoryCorpus
from repro.engine.factory import open_engine
from repro.engine.free import FreeEngine
from repro.index.builder import build_multigram_index
from repro.index.segmented import SegmentedFreeEngine
from repro.index.serialize import load_any_index, save_sharded_index
from repro.index.sharded import ShardedIndex

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "sphinx of black quartz judge my vow",
    "how vexingly quick daft zebras jump",
    "the five boxing wizards jump quickly",
    "jackdaws love my big sphinx of quartz",
    "mr jock tv quiz phd bags few lynx",
    "quick zephyrs blow vexing daft jim",
    "two driven jocks help fax my big quiz",
    "five quacking zephyrs jolt my wax bed",
]

PATTERNS = ["quick", "qu", "j(ump|udge|olt)", "five .* (jugs|wizards)"]


@pytest.fixture(scope="module")
def corpus():
    return InMemoryCorpus.from_texts(TEXTS)


@pytest.fixture(scope="module")
def reference(corpus):
    index = build_multigram_index(corpus, threshold=0.4, max_gram_len=4)
    return FreeEngine(corpus, index)


def fingerprint(report):
    return (
        [(m.doc_id, m.span) for m in report.matches],
        report.n_matches_found,
        report.matching_units,
    )


#: (label, n_shards) — every degenerate partition shape.
EDGE_SHAPES = [
    ("all-in-one-shard", 1),
    ("one-doc-per-shard", len(TEXTS)),
    ("more-shards-than-docs", len(TEXTS) + 5),
    ("generic-split", 3),
]


@pytest.mark.parametrize("label,n_shards", EDGE_SHAPES)
class TestEdgeShapes:
    def build(self, corpus, n_shards):
        return ShardedIndex.build(
            corpus, n_shards, threshold=0.4, max_gram_len=4
        )

    def test_builds_with_expected_partition(self, corpus, label, n_shards):
        sharded = self.build(corpus, n_shards)
        assert sharded.n_shards == n_shards
        assert sharded.n_docs == len(corpus)
        ranges = sharded.doc_ranges()
        assert ranges[0][0] == 0 and ranges[-1][1] == len(corpus)
        if n_shards > len(corpus):
            empties = [r for r in ranges if r[0] == r[1]]
            assert len(empties) == n_shards - len(corpus)

    def test_passes_free_check(self, corpus, label, n_shards):
        sharded = self.build(corpus, n_shards)
        report = run_check(index=sharded, patterns=PATTERNS)
        assert report.ok, [f.message for f in report.findings]

    def test_answers_identically(self, corpus, reference, label, n_shards):
        sharded = self.build(corpus, n_shards)
        engine = SegmentedFreeEngine(corpus, sharded)
        for pattern in PATTERNS:
            assert fingerprint(engine.search(pattern)) == \
                fingerprint(reference.search(pattern)), pattern

    def test_serializes_and_answers_identically(
        self, corpus, reference, label, n_shards, tmp_path
    ):
        sharded = self.build(corpus, n_shards)
        path = str(tmp_path / "edge.fsi")
        save_sharded_index(sharded, path)
        assert isinstance(load_any_index(path), ShardedIndex)
        with open_engine(corpus, path) as engine:
            for pattern in PATTERNS:
                assert fingerprint(engine.search(pattern)) == \
                    fingerprint(reference.search(pattern)), pattern


class TestMergeOrderRegression:
    """The union merge must preserve global doc-id order.

    Regression for the bug class where collecting shard results out of
    shard order interleaves doc ids and makes a first-k query read a
    different unit prefix than the unsharded engine.
    """

    def test_sharded_candidates_are_globally_sorted(self, corpus):
        sharded = ShardedIndex.build(
            corpus, 4, threshold=0.4, max_gram_len=4
        )
        engine = SegmentedFreeEngine(corpus, sharded)
        for pattern in PATTERNS:
            candidates = engine._candidates(pattern)
            if candidates is None:
                continue
            assert candidates == sorted(set(candidates)), pattern

    @pytest.mark.parametrize("n_shards", [1, 3, len(TEXTS) + 5])
    def test_first_k_truncation_identical(
        self, corpus, reference, n_shards
    ):
        """limit=k reads the same match prefix sharded as unsharded."""
        sharded = ShardedIndex.build(
            corpus, n_shards, threshold=0.4, max_gram_len=4
        )
        engine = SegmentedFreeEngine(corpus, sharded)
        pattern = "qu"  # many matches spread across every shard
        full = reference.search(pattern)
        assert full.n_matches_found > 3
        for k in (1, 2, 3, full.n_matches_found):
            r_ref = reference.search(pattern, limit=k)
            r_shd = engine.search(pattern, limit=k)
            assert fingerprint(r_shd) == fingerprint(r_ref), (n_shards, k)
            assert r_shd.truncated == r_ref.truncated, (n_shards, k)
            # The k matches are exactly the unlimited run's first k —
            # the global-order prefix, not some shard's local prefix.
            assert [m.doc_id for m in r_shd.matches] == \
                [m.doc_id for m in full.matches][:k]
