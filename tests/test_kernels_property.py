"""Property-based cross-backend equivalence for the postings kernels.

For arbitrary sorted id lists — including empty lists, single ids,
ids past 2**35 and right at the int64 edge — every numpy kernel
operation must return exactly what the python reference returns, and
the cursor path must agree block-for-block on blocked lists with
first_k truncation landing on and across block boundaries.  The whole
module skips when numpy is absent (the python kernel *is* the
reference, so there is nothing to compare).
"""

import pytest
from hypothesis import example, given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.index.kernels import NumpyKernel, PythonKernel  # noqa: E402
from repro.index.postings import (  # noqa: E402
    BlockCursor,
    BlockedPostingsList,
    ListCursor,
)

PY = PythonKernel()


def sorted_ids(max_value=200, max_size=40):
    return st.lists(
        st.integers(0, max_value), max_size=max_size, unique=True
    ).map(sorted)


# Mixes everyday ids with ones past 2**35 and wedged against 2**63-1 /
# beyond it, so int64 edge handling and the overflow fallback both get
# exercised by the same properties.
def edge_ids():
    return st.lists(
        st.one_of(
            st.integers(0, 100),
            st.integers(2**35, 2**35 + 50),
            st.integers(2**63 - 4, 2**63 + 4),
        ),
        max_size=20,
        unique=True,
    ).map(sorted)


@settings(max_examples=200, deadline=None)
@given(st.lists(sorted_ids(), min_size=1, max_size=4))
def test_intersect_many_matches_python(lists):
    assert NumpyKernel().intersect_many(lists) == PY.intersect_many(lists)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(sorted_ids(), min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(0, 30)),
)
def test_union_many_matches_python(lists, limit):
    assert NumpyKernel().union_many(lists, limit) == \
        PY.union_many(lists, limit)


@settings(max_examples=200, deadline=None)
@given(sorted_ids(), sorted_ids())
def test_pairwise_ops_match_python(a, b):
    kernel = NumpyKernel()
    assert kernel.intersect_sorted(a, b) == PY.intersect_sorted(a, b)
    assert kernel.difference_sorted(a, b) == PY.difference_sorted(a, b)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(edge_ids(), min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(0, 10)),
)
def test_edge_ids_match_python(lists, limit):
    kernel = NumpyKernel()
    assert kernel.intersect_many(lists) == PY.intersect_many(lists)
    assert kernel.union_many(lists, limit) == PY.union_many(lists, limit)
    if len(lists) >= 2:
        assert kernel.intersect_sorted(lists[0], lists[1]) == \
            PY.intersect_sorted(lists[0], lists[1])
        assert kernel.difference_sorted(lists[0], lists[1]) == \
            PY.difference_sorted(lists[0], lists[1])


def _cursors(id_lists, block_size):
    """One blocked cursor per list; empty lists become list cursors
    (the writer never emits a blocked list with zero ids)."""
    out = []
    for ids in id_lists:
        if ids:
            out.append(BlockCursor(
                BlockedPostingsList.from_ids(ids, block_size), None
            ))
        else:
            out.append(ListCursor([]))
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        sorted_ids(max_value=500, max_size=80), min_size=1, max_size=3
    ),
    st.sampled_from([4, 16, 128]),
    st.one_of(st.none(), st.integers(0, 90)),
)
def test_intersect_cursors_matches_python(id_lists, block_size, limit):
    # first_k truncation: limits spanning 0, mid-block, exactly a
    # block boundary (multiples of block_size land there) and past
    # the end all appear in the sampled range.
    numpy_result = NumpyKernel().intersect_cursors(
        _cursors(id_lists, block_size), limit
    )
    python_result = PY.intersect_cursors(
        _cursors(id_lists, block_size), limit
    )
    assert numpy_result == python_result


@settings(max_examples=100, deadline=None)
@given(
    st.lists(edge_ids(), min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(0, 10)),
)
# A block whose cumulative sum wraps past 2**63 by exactly one step: the
# wrapped difference is positive again, so only a sign test catches it.
@example(id_lists=[[0, 1, 2, 3, 2**63 - 4, 2**63 - 3, 2**63]] * 2, limit=None)
def test_intersect_cursors_edge_ids_match_python(id_lists, limit):
    assert NumpyKernel().intersect_cursors(_cursors(id_lists, 4), limit) \
        == PY.intersect_cursors(_cursors(id_lists, 4), limit)


@settings(max_examples=100, deadline=None)
@given(st.lists(sorted_ids(), max_size=3))
def test_union_ordering_and_uniqueness(lists):
    result = NumpyKernel().union_many(lists)
    assert result == sorted(set(result))
