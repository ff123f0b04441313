"""Differential soundness: FREEIDX1 and FREEIDX2 answer identically.

The same corpus is indexed once, serialized in both image formats, and
loaded back; for the whole benchmark query set the two images must
produce **byte-identical candidate lists** and identical
``QueryMetrics`` lookup records — the v2 layout (lazy directory,
block-skip decode) may change *when* bytes are decoded, never *what*
the executor returns.  Checked unsharded and sharded.
"""

import pytest

from repro.bench.queries import BENCHMARK_QUERIES
from repro.corpus.synthesis import build_corpus
from repro.engine.executor import execute_plan
from repro.engine.free import FreeEngine
from repro.index.builder import build_multigram_index
from repro.index.serialize import (
    load_any_index,
    load_index,
    save_index,
    save_sharded_index,
)
from repro.index.sharded import ShardedIndex
from repro.metrics import QueryMetrics
from repro.plan.logical import LogicalPlan
from repro.plan.physical import CompiledPlans, CoverPolicy, PhysicalPlan

@pytest.fixture(scope="module")
def corpus():
    return build_corpus(n_pages=60, seed=3)


@pytest.fixture(scope="module")
def images(corpus, tmp_path_factory):
    """(eager v1 index, mapped v2 index) over the same build."""
    index = build_multigram_index(corpus, threshold=0.1, max_gram_len=8)
    root = tmp_path_factory.mktemp("diff")
    v1, v2 = str(root / "v1.idx"), str(root / "v2.idx")
    save_index(index, v1, version=1)
    save_index(index, v2, version=2)
    return load_index(v1), load_index(v2)


@pytest.fixture(scope="module")
def sharded_images(corpus, tmp_path_factory):
    sharded = ShardedIndex.build(corpus, 3, threshold=0.1)
    root = tmp_path_factory.mktemp("diff-sharded")
    v1, v2 = str(root / "v1.fsi"), str(root / "v2.fsi")
    save_sharded_index(sharded, v1, version=1)
    save_sharded_index(sharded, v2, version=2)
    return load_any_index(v1), load_any_index(v2)


def _candidates(index, pattern):
    metrics = QueryMetrics()
    logical = LogicalPlan.from_pattern(pattern)
    physical = PhysicalPlan.compile(logical, index, CoverPolicy("all"))
    if physical.is_full_scan:
        return None, metrics
    return (
        execute_plan(physical, index, None, metrics),
        metrics,
    )


def _lookup_counts(metrics):
    return [(r.key, r.n_ids) for r in metrics.lookups]


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_candidates_byte_identical(images, name):
    eager, mapped = images
    pattern = BENCHMARK_QUERIES[name]
    c1, m1 = _candidates(eager, pattern)
    c2, m2 = _candidates(mapped, pattern)
    assert c1 == c2
    assert _lookup_counts(m1) == _lookup_counts(m2)


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_sharded_candidates_byte_identical(sharded_images, name):
    v1, v2 = sharded_images
    plans = CompiledPlans(LogicalPlan.from_pattern(BENCHMARK_QUERIES[name]))
    m1, m2 = QueryMetrics(), QueryMetrics()
    c1 = v1.candidates(plans, metrics=m1)
    c2 = v2.candidates(plans, metrics=m2)
    assert c1 == c2
    assert _lookup_counts(m1) == _lookup_counts(m2)


def test_first_k_prefix_identical(images):
    # The first_k upper-bound probe must truncate both formats to the
    # same sorted prefix (the streaming kernel's early exit).
    eager, mapped = images
    for pattern in BENCHMARK_QUERIES.values():
        logical = LogicalPlan.from_pattern(pattern)
        for index_pair in [(eager, mapped)]:
            results = []
            for index in index_pair:
                physical = PhysicalPlan.compile(
                    logical, index, CoverPolicy("all")
                )
                if physical.is_full_scan:
                    results.append(None)
                else:
                    results.append(
                        execute_plan(physical, index, None, None, first_k=5)
                    )
            assert results[0] == results[1]


def test_engine_reports_identical(corpus, images):
    eager, mapped = images
    engines = [FreeEngine(corpus, index) for index in images]
    for pattern in BENCHMARK_QUERIES.values():
        r1 = engines[0].search(pattern, collect_matches=True)
        r2 = engines[1].search(pattern, collect_matches=True)
        assert r1.n_candidates == r2.n_candidates
        assert r1.n_matches == r2.n_matches
        assert [m.doc_id for m in r1.matches] == \
            [m.doc_id for m in r2.matches]
