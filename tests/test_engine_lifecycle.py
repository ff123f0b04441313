"""Engine lifecycle regressions: fork-registry leaks, close semantics,
and epoch-keyed plan caching under long-lived engines.

The ``free serve`` service holds engines for the life of the process,
which turned two latent bugs into real ones:

* a :class:`ShardedFreeEngine` whose ``close()`` was never reached left
  its ``_FORK_SHARED`` registry entry behind forever (the registry held
  a strong reference, so the engine could not even be collected);
* the plan cache was keyed without the index epoch, so an engine kept
  warm across a mutable index's epoch bump could execute a stale
  physical plan — and silently drop candidates whose grams the
  mutation removed.  Physical plans are now kept against the index
  object *and* the epoch they were compiled for.
"""

from __future__ import annotations

import gc

import pytest

from repro.corpus.document import DataUnit
from repro.corpus.store import InMemoryCorpus
from repro.engine.free import FreeEngine
from repro.engine.sharded import _FORK_SHARED, ShardedFreeEngine
from repro.index.builder import build_multigram_index
from repro.index.sharded import ShardedIndex


@pytest.fixture(scope="module")
def small_corpus():
    return InMemoryCorpus([
        DataUnit(i, f"unit {i} powerpc stanford filler text block")
        for i in range(24)
    ])


@pytest.fixture(scope="module")
def small_sharded(small_corpus):
    return ShardedIndex.build(small_corpus, 2, threshold=0.3)


class TestForkRegistryLifecycle:
    def test_close_pops_the_fork_token(
        self, small_corpus, small_sharded
    ):
        engine = ShardedFreeEngine(
            small_corpus, small_sharded, workers=2
        )
        engine._ensure_pool()
        token = engine._fork_token
        assert token is not None and token in _FORK_SHARED
        engine.close()
        assert token not in _FORK_SHARED
        assert engine._fork_token is None

    def test_close_is_idempotent(self, small_corpus, small_sharded):
        engine = ShardedFreeEngine(
            small_corpus, small_sharded, workers=2
        )
        engine._ensure_pool()
        engine.close()
        engine.close()  # second close: no error, still unregistered
        assert engine._fork_token is None

    def test_context_manager_pops_the_token(
        self, small_corpus, small_sharded
    ):
        with ShardedFreeEngine(
            small_corpus, small_sharded, workers=2
        ) as engine:
            engine._ensure_pool()
            token = engine._fork_token
            assert token in _FORK_SHARED
        assert token not in _FORK_SHARED

    def test_abandoned_engines_leave_a_bounded_registry(
        self, small_corpus, small_sharded
    ):
        """Construct-and-drop in a loop WITHOUT close(): no leak.

        This is the serve/bench failure mode — an exception (or a
        careless caller) skips close().  The weakref registry plus the
        GC finalizer must still retire every token.
        """
        before = len(_FORK_SHARED)
        tokens = []
        for _ in range(10):
            engine = ShardedFreeEngine(
                small_corpus, small_sharded, workers=2
            )
            engine._ensure_pool()  # registers the fork token
            tokens.append(engine._fork_token)
            del engine  # dropped with no close()
        gc.collect()
        assert len(_FORK_SHARED) == before
        assert all(token not in _FORK_SHARED for token in tokens)

    def test_registry_reference_does_not_pin_the_engine(
        self, small_corpus, small_sharded
    ):
        import weakref

        engine = ShardedFreeEngine(
            small_corpus, small_sharded, workers=2
        )
        engine._ensure_pool()
        probe = weakref.ref(engine)
        del engine
        gc.collect()
        # A strong registry entry would keep this alive forever.
        assert probe() is None

    def test_parallel_search_still_works_through_weak_registry(
        self, small_corpus, small_sharded
    ):
        with ShardedFreeEngine(
            small_corpus, small_sharded, workers=2
        ) as engine:
            report = engine.search("powerpc", collect_matches=False)
            assert report.n_matches == len(small_corpus)


class TestFreeEngineClose:
    def test_context_manager_clears_caches(self, small_corpus):
        index = build_multigram_index(small_corpus, threshold=0.3)
        with FreeEngine(small_corpus, index) as engine:
            engine.search("powerpc", collect_matches=False)
            assert len(engine._plan_cache) > 0
        assert len(engine._plan_cache) == 0


class TestPlanCacheEpoch:
    def test_epoch_bump_invalidates_cached_plans(self, small_corpus):
        """A warm engine must re-plan after the index bumps its epoch.

        This is the serve scenario: the service holds one engine for
        days while a mutable index (the segmented wrapper) applies
        updates, each bumping ``epoch``.  A stale physical plan can
        reference gram keys a mutation removed — wrong *results*, not
        just wrong speed — so each physical plan is kept with the epoch
        it was compiled at.
        """
        index = build_multigram_index(small_corpus, threshold=0.3)
        engine = FreeEngine(small_corpus, index)
        _, first = engine.plan("stanford")
        assert engine.plan("stanford")[1] is first  # warm: cached plan
        # The mutable-index protocol (FREE005): mutate, bump epoch.
        index.epoch = index.epoch + 1
        _, replanned = engine.plan("stanford")
        assert replanned is not first
        # And the new plan is itself cached at the new epoch.
        assert engine.plan("stanford")[1] is replanned

    def test_stale_epoch_entries_do_not_resurface(self, small_corpus):
        index = build_multigram_index(small_corpus, threshold=0.3)
        engine = FreeEngine(small_corpus, index)
        _, at_zero = engine.plan("powerpc")
        index.epoch = 1
        _, at_one = engine.plan("powerpc")
        index.epoch = 0  # roll back (e.g. snapshot restore)
        # Only the newest epoch's plan is kept per index, so a rollback
        # re-plans: neither an older plan nor epoch 1's may come back.
        _, rolled_back = engine.plan("powerpc")
        assert rolled_back is not at_zero and rolled_back is not at_one
        assert rolled_back == at_zero  # same contents, same plan
        index.epoch = 1
        _, again = engine.plan("powerpc")
        assert again is not at_one and again is not rolled_back

    def test_search_results_follow_the_epoch(self, small_corpus):
        """End to end: post-bump searches reflect re-planning."""
        index = build_multigram_index(small_corpus, threshold=0.3)
        engine = FreeEngine(
            small_corpus, index, candidate_cache_size=8
        )
        r1 = engine.search("stanford", collect_matches=False)
        index.epoch = index.epoch + 1
        r2 = engine.search("stanford", collect_matches=False)
        # Same (unchanged) index contents: identical answers, but the
        # second run re-planned and re-executed rather than serving
        # epoch-0 cache entries.
        assert r2.n_matches == r1.n_matches
        assert r2.metrics is not None
        assert not r2.metrics.plan_cache_hit
