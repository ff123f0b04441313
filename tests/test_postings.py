"""Postings codec and merge-operation tests (unit + property)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.postings import (
    BLOCK_SIZE,
    BlockCursor,
    BlockedPostingsList,
    ListCursor,
    PostingsList,
    cursor_for,
    decode_gaps,
    difference_sorted,
    encode_blocks,
    encode_gaps,
    encode_varint,
    intersect_cursors,
    intersect_many,
    intersect_sorted,
    union_many,
    varint_len,
)
from repro.metrics import QueryMetrics


class TestVarint:
    def test_small_values_one_byte(self):
        out = bytearray()
        encode_varint(0, out)
        encode_varint(127, out)
        assert len(out) == 2

    def test_large_values_multi_byte(self):
        out = bytearray()
        encode_varint(128, out)
        assert len(out) == 2
        out2 = bytearray()
        encode_varint(1 << 28, out2)
        assert len(out2) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1, bytearray())


#: Edge-case id sequences every codec (flat v1 stream, blocked v2
#: payload) must round-trip identically: empty, single id, ids past
#: 2^35 (beyond any 5-byte varint), and a maximal single gap.
EDGE_ID_SETS = [
    [],
    [0],
    [7],
    [1 << 35],
    [(1 << 40) + 3],
    [0, (1 << 35) + 1],
    [(1 << 40) - 2, (1 << 40) - 1],
    list(range(0, 700, 7)) + [1 << 36, (1 << 36) + 1],
]


class TestVarintEdgeCases:
    @pytest.mark.parametrize("ids", EDGE_ID_SETS)
    def test_flat_codec_roundtrip(self, ids):
        assert decode_gaps(encode_gaps(ids)) == ids

    @pytest.mark.parametrize("ids", EDGE_ID_SETS)
    @pytest.mark.parametrize("block_size", [1, 3, BLOCK_SIZE])
    def test_blocked_codec_roundtrip(self, ids, block_size):
        plist = BlockedPostingsList.from_ids(ids, block_size=block_size)
        assert plist.ids() == ids
        assert len(plist) == len(ids)

    @pytest.mark.parametrize("ids", EDGE_ID_SETS)
    def test_blocked_equals_flat_twin(self, ids):
        # nbytes / raw / equality all report the flat v1 encoding.
        flat = PostingsList.from_ids(ids)
        blocked = BlockedPostingsList.from_ids(ids, block_size=3)
        assert blocked == flat
        assert blocked.nbytes == flat.nbytes
        assert blocked.raw == flat.raw

    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, (1 << 35) - 1, 1 << 35, 1 << 63]
    )
    def test_varint_len_matches_encoding(self, value):
        out = bytearray()
        encode_varint(value, out)
        assert varint_len(value) == len(out)


class TestGapCodec:
    def test_roundtrip_simple(self):
        ids = [0, 1, 5, 100, 10_000]
        assert decode_gaps(encode_gaps(ids)) == ids

    def test_empty(self):
        assert decode_gaps(encode_gaps([])) == []

    def test_dense_run_is_one_byte_per_id(self):
        ids = list(range(1000))
        assert len(encode_gaps(ids)) == 1000

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            encode_gaps([3, 3])
        with pytest.raises(ValueError):
            encode_gaps([5, 2])

    def test_truncated_data_rejected(self):
        data = encode_gaps([1 << 20])
        with pytest.raises(ValueError):
            decode_gaps(data[:-1] + b"\x80")

    @settings(max_examples=200, deadline=None)
    @given(ids=st.lists(st.integers(0, 1 << 40), unique=True))
    def test_roundtrip_property(self, ids):
        ids = sorted(ids)
        assert decode_gaps(encode_gaps(ids)) == ids


class TestPostingsList:
    def test_from_ids_sorts_and_dedupes(self):
        plist = PostingsList.from_ids([5, 1, 5, 3])
        assert plist.ids() == [1, 3, 5]
        assert len(plist) == 3

    def test_from_sorted_fast_path(self):
        plist = PostingsList.from_sorted_ids([1, 2, 9])
        assert plist.ids() == [1, 2, 9]

    def test_contains(self):
        plist = PostingsList.from_ids([2, 4, 8])
        assert 4 in plist
        assert 5 not in plist

    def test_iter(self):
        assert list(PostingsList.from_ids([3, 1])) == [1, 3]

    def test_equality(self):
        assert PostingsList.from_ids([1, 2]) == PostingsList.from_ids([2, 1])
        assert PostingsList.from_ids([1]) != PostingsList.from_ids([2])

    def test_nbytes_compression(self):
        dense = PostingsList.from_sorted_ids(list(range(500)))
        assert dense.nbytes == 500  # 1 byte per gap of 0


class TestMerges:
    def test_intersect_basic(self):
        assert intersect_sorted([1, 3, 5], [3, 5, 7]) == [3, 5]

    def test_intersect_disjoint(self):
        assert intersect_sorted([1, 2], [3, 4]) == []

    def test_intersect_empty(self):
        assert intersect_sorted([], [1]) == []

    def test_intersect_skewed_sizes(self):
        big = list(range(0, 10_000, 2))
        small = [4, 5, 9_998]
        assert intersect_sorted(small, big) == [4, 9_998]
        assert intersect_sorted(big, small) == [4, 9_998]

    def test_intersect_many_smallest_first(self):
        lists = [list(range(100)), [5, 50], list(range(0, 100, 5))]
        assert intersect_many(lists) == [5, 50]

    def test_intersect_many_empty_input(self):
        assert intersect_many([]) == []

    def test_union_basic(self):
        assert union_many([[1, 3], [2, 3], [4]]) == [1, 2, 3, 4]

    def test_union_single(self):
        assert union_many([[1, 2]]) == [1, 2]

    def test_union_empty(self):
        assert union_many([]) == []
        assert union_many([[], []]) == []

    def test_difference(self):
        assert difference_sorted([1, 2, 3, 4], [2, 4]) == [1, 3]
        assert difference_sorted([1, 2], []) == [1, 2]

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.integers(0, 200), unique=True),
        b=st.lists(st.integers(0, 200), unique=True),
    )
    def test_intersect_equals_set_semantics(self, a, b):
        a, b = sorted(a), sorted(b)
        assert intersect_sorted(a, b) == sorted(set(a) & set(b))

    @settings(max_examples=200, deadline=None)
    @given(
        lists=st.lists(
            st.lists(st.integers(0, 100), unique=True).map(sorted),
            max_size=5,
        )
    )
    def test_union_equals_set_semantics(self, lists):
        expected = sorted(set().union(*[set(l) for l in lists]) if lists
                          else set())
        assert union_many(lists) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        lists=st.lists(
            st.lists(st.integers(0, 60), unique=True).map(sorted),
            min_size=1,
            max_size=4,
        )
    )
    def test_intersect_many_equals_set_semantics(self, lists):
        expected = set(lists[0])
        for lst in lists[1:]:
            expected &= set(lst)
        assert intersect_many(lists) == sorted(expected)

    def test_intersect_many_single_list_is_a_fresh_copy(self):
        # The 1-list fast path returns a fresh list, mirroring
        # union_many: callers may mutate the result without corrupting
        # the (possibly cached) input postings.
        only = [1, 2, 3]
        result = intersect_many([only])
        assert result == only
        assert result is not only

    def test_union_many_single_list_is_a_fresh_copy(self):
        only = [1, 2, 3]
        result = union_many([only])
        assert result == only
        assert result is not only

    def test_union_many_limit_is_sorted_prefix(self):
        lists = [[1, 5, 9], [2, 5, 10], [3]]
        full = union_many(lists)
        for limit in range(len(full) + 2):
            assert union_many(lists, limit=limit) == full[:limit]

    def test_ids_past_int64(self):
        # Ids are python ints: nothing narrows them to a machine word.
        a = [1, 2**63 - 1, 2**64, 2**64 + 10]
        b = [2, 2**63 - 1, 2**64 + 10]
        assert intersect_sorted(a, b) == [2**63 - 1, 2**64 + 10]
        assert intersect_many([a, b]) == [2**63 - 1, 2**64 + 10]
        assert union_many([a, b]) == sorted(set(a) | set(b))
        assert difference_sorted(a, b) == [1, 2**64]
        cursors = [
            BlockCursor(BlockedPostingsList.from_ids(a, block_size=2)),
            ListCursor(b),
        ]
        assert intersect_cursors(cursors) == [2**63 - 1, 2**64 + 10]


class TestEncodeBlocks:
    def test_block_shapes(self):
        ids = list(range(0, 100, 2))  # 50 ids
        blocks, payload = encode_blocks(ids, block_size=16)
        assert [n for _f, n, _b in blocks] == [16, 16, 16, 2]
        assert [f for f, _n, _b in blocks] == [0, 32, 64, 96]
        assert sum(b for _f, _n, b in blocks) == len(payload)

    def test_blocks_decode_independently(self):
        ids = list(range(10, 1000, 3))
        blocks, payload = encode_blocks(ids, block_size=7)
        offset = 0
        decoded = []
        for first, _n, byte_len in blocks:
            body = payload[offset : offset + byte_len]
            decoded.append(first)
            decoded.extend(decode_gaps(body, previous=first))
            offset += byte_len
        assert decoded == ids

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            encode_blocks([3, 3], block_size=4)

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            encode_blocks([1], block_size=0)


class TestBlockedPostingsList:
    def test_from_flat_wraps_v1_stream(self):
        ids = [4, 9, 100]
        data = encode_gaps(ids)
        plist = BlockedPostingsList.from_flat(data, len(ids))
        assert not plist.has_skip_table
        assert plist.n_blocks == 1
        assert plist.block_table == []
        assert plist.ids() == ids
        assert plist.blocked_nbytes == len(data)
        assert plist.raw == data

    def test_flat_count_mismatch_raises(self):
        data = encode_gaps([1, 2, 3])
        plist = BlockedPostingsList.from_flat(data, 99)
        with pytest.raises(ValueError):
            plist.block_ids(0)

    def test_block_count_mismatch_raises(self):
        good = BlockedPostingsList.from_ids(range(20), block_size=8)
        bad = BlockedPostingsList(
            good._buf,
            good._first_ids,
            [8, 8, 99],  # lies about the last block
            good._block_bounds,
            20,
            good.nbytes,
        )
        with pytest.raises(ValueError):
            bad.block_ids(2)

    def test_block_decode_charges_metrics_once(self):
        plist = BlockedPostingsList.from_ids(range(30), block_size=10)
        metrics = QueryMetrics()
        first = plist.block_ids(1, metrics)
        again = plist.block_ids(1, metrics)  # memo hit: no new charge
        assert first is again
        assert metrics.postings_blocks_decoded == 1
        assert metrics.postings_entries_decoded == 10
        assert metrics.postings_bytes_decoded > 0


class TestCursors:
    def test_list_cursor_next_geq(self):
        cursor = ListCursor([2, 4, 8])
        assert cursor.next_geq(0) == 2
        assert cursor.next_geq(4) == 4
        assert cursor.next_geq(5) == 8
        assert cursor.next_geq(9) is None

    def test_block_cursor_header_answers_without_decode(self):
        plist = BlockedPostingsList.from_ids(range(0, 400, 2),
                                             block_size=16)
        metrics = QueryMetrics()
        cursor = BlockCursor(plist, metrics)
        # 32 is block 1's first id: the skip-table header alone
        # answers, leaving every block encoded.
        assert cursor.next_geq(32) == 32
        assert metrics.postings_blocks_decoded == 0
        assert metrics.postings_blocks_skipped == 1

    def test_block_cursor_skips_blocks(self):
        plist = BlockedPostingsList.from_ids(range(100), block_size=4)
        metrics = QueryMetrics()
        cursor = BlockCursor(plist, metrics)
        assert cursor.next_geq(81) == 81
        # Landed in one block (81 is not a block header), having
        # skipped straight over the earlier ones.
        assert metrics.postings_blocks_decoded == 1
        assert metrics.postings_blocks_skipped > 0

    def test_block_cursor_to_list_resumes_mid_block(self):
        ids = list(range(0, 90, 3))
        plist = BlockedPostingsList.from_ids(ids, block_size=7)
        cursor = BlockCursor(plist)
        assert cursor.next_geq(40) == 42
        assert cursor.to_list() == [i for i in ids if i >= 42]
        assert cursor.to_list() == []

    def test_cursor_for_picks_by_layout(self):
        blocked = BlockedPostingsList.from_ids([1, 2], block_size=2)
        flat = PostingsList.from_ids([1, 2])
        assert isinstance(cursor_for(blocked), BlockCursor)
        assert isinstance(cursor_for(flat), ListCursor)

    @settings(max_examples=200, deadline=None)
    @given(
        lists=st.lists(
            st.lists(st.integers(0, 120), unique=True).map(sorted),
            min_size=1,
            max_size=4,
        ),
        block_size=st.integers(1, 9),
    )
    def test_intersect_cursors_equals_set_semantics(
        self, lists, block_size
    ):
        expected = set(lists[0])
        for lst in lists[1:]:
            expected &= set(lst)
        cursors = [
            BlockCursor(
                BlockedPostingsList.from_ids(lst, block_size=block_size)
            )
            for lst in lists
        ]
        assert intersect_cursors(cursors) == sorted(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        lists=st.lists(
            st.lists(st.integers(0, 60), unique=True).map(sorted),
            min_size=2,
            max_size=4,
        ),
        limit=st.integers(0, 8),
    )
    def test_intersect_cursors_limit_is_prefix(self, lists, limit):
        expected = set(lists[0])
        for lst in lists[1:]:
            expected &= set(lst)
        cursors = [ListCursor(lst) for lst in lists]
        result = intersect_cursors(cursors, limit=limit)
        assert result == sorted(expected)[:limit]

    def test_intersect_cursors_mixed_layouts(self):
        a = BlockedPostingsList.from_ids(range(0, 300, 2), block_size=8)
        b = list(range(0, 300, 3))
        result = intersect_cursors([BlockCursor(a), ListCursor(b)])
        assert result == list(range(0, 300, 6))

    def test_intersect_cursors_blocked_limit_is_prefix(self):
        left = BlockedPostingsList.from_ids(range(0, 600, 2), block_size=16)
        right = list(range(0, 600, 3))
        full = intersect_cursors([BlockCursor(left), ListCursor(right)])
        assert full == list(range(0, 600, 6))
        for limit in (0, 1, 5, len(full), len(full) + 3):
            result = intersect_cursors(
                [BlockCursor(left), ListCursor(right)], limit=limit
            )
            assert result == full[:limit]

    def test_intersect_cursors_flat_blocked_list(self):
        # A FREEIDX1 stream wrapped as a one-block BlockedPostingsList.
        ids = list(range(0, 100, 5))
        flat = BlockedPostingsList.from_flat(encode_gaps(ids), len(ids))
        other = ListCursor(list(range(0, 100, 4)))
        result = intersect_cursors([BlockCursor(flat), other])
        assert result == list(range(0, 100, 20))
