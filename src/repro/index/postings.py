"""Compressed postings lists and their merge operations.

A postings list is a sorted set of doc ids.  We store it gap-compressed:
consecutive ids are delta-encoded and each delta is written as a LEB128
varint, the standard layout of production inverted indexes (Lucene,
codesearch).  Table 3 counts *postings*, so the codec also lets us
report honest byte sizes for the index-size comparison.

Two physical layouts share that codec:

* a flat gap stream (:class:`PostingsList`, the ``FREEIDX1`` payload);
* fixed-size *blocks* of gaps, each headed by its first id, so a reader
  can skip a whole block by comparing one integer
  (:class:`BlockedPostingsList`, the ``FREEIDX2`` payload, decoded
  lazily block by block straight out of a memory map).

Merge operations implement the Boolean connectives of the access plan:

* AND — pairwise *galloping* (exponential-probe) intersection, ordered
  smallest-list-first, so the cost is near O(min |a|, |b| * log), plus
  a streaming *leapfrog* kernel over cursors
  (:func:`intersect_cursors`) that uses the block skip tables to avoid
  decoding non-overlapping blocks at all;
* OR — k-way heap merge with duplicate elimination.

:class:`PostingsKernel` bundles the three the plan executor calls.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import InternalError

if TYPE_CHECKING:
    from repro.metrics import QueryMetrics

#: Ids per block in the blocked (FREEIDX2) layout.  128 matches the
#: Lucene postings block and keeps a block's decode cost a few
#: microseconds while still amortising the 16-byte block header.
BLOCK_SIZE = 128

ByteSource = Union[bytes, bytearray, memoryview]


def encode_varint(value: int, out: bytearray) -> None:
    """Append one LEB128 varint to ``out``."""
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def varint_len(value: int) -> int:
    """Encoded size of one varint, without encoding it."""
    if value < 0:
        raise ValueError("varints are unsigned")
    if value == 0:
        return 1
    return (value.bit_length() + 6) // 7


def encode_gaps(sorted_ids: Sequence[int], previous: int = -1) -> bytes:
    """Delta + varint encode a strictly increasing id sequence.

    ``previous`` seeds the delta chain; the default ``-1`` makes the
    first gap equal to the first id (the flat v1 stream).  Block
    writers pass the block's first id so the payload only carries the
    ids after it.
    """
    out = bytearray()
    for doc_id in sorted_ids:
        if doc_id <= previous:
            raise ValueError("ids must be strictly increasing")
        encode_varint(doc_id - previous - 1, out)
        previous = doc_id
    return bytes(out)


def decode_gaps(data: ByteSource, previous: int = -1) -> List[int]:
    """Inverse of :func:`encode_gaps`.

    Accepts any byte buffer — including a :class:`memoryview` over a
    memory-mapped index image, so block decodes copy nothing until the
    ids themselves materialise.  The inner loop binds everything it
    touches to locals; this function is the hottest few lines of the
    query path.
    """
    ids: List[int] = []
    append = ids.append
    current = previous
    value = 0
    shift = 0
    for byte in data:
        if byte & 0x80:
            value |= (byte & 0x7F) << shift
            shift += 7
        else:
            current += (value | (byte << shift)) + 1
            append(current)
            value = 0
            shift = 0
    if shift != 0:
        raise ValueError("truncated varint in postings data")
    return ids


class PostingsList:
    """An immutable, gap-compressed sorted set of doc ids."""

    __slots__ = ("_data", "_count")

    def __init__(self, data: bytes, count: int):
        self._data = data
        self._count = count

    @staticmethod
    def from_ids(ids: Iterable[int]) -> "PostingsList":
        """Build from any iterable of ids (sorted and deduplicated)."""
        unique = sorted(set(ids))
        return PostingsList(encode_gaps(unique), len(unique))

    @staticmethod
    def from_sorted_ids(sorted_ids: Sequence[int]) -> "PostingsList":
        """Build from an already strictly-increasing sequence (fast path)."""
        return PostingsList(encode_gaps(sorted_ids), len(sorted_ids))

    def ids(self) -> List[int]:
        """Decode to a sorted list of doc ids."""
        return decode_gaps(self._data)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self.ids())

    def __contains__(self, doc_id: int) -> bool:
        return _binary_search(self.ids(), doc_id)

    @property
    def nbytes(self) -> int:
        """Compressed size in bytes (Table 3 size accounting)."""
        return len(self._data)

    @property
    def raw(self) -> bytes:
        return self._data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PostingsList)
            and self._count == other._count
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self._count, self._data))

    def __repr__(self) -> str:
        return f"PostingsList({self._count} ids, {self.nbytes} bytes)"


def encode_blocks(
    sorted_ids: Sequence[int], block_size: int = BLOCK_SIZE
) -> Tuple[List[Tuple[int, int, int]], bytes]:
    """Chunk a strictly increasing id sequence into skip blocks.

    Returns ``(blocks, payload)`` where ``blocks`` is a list of
    ``(first_id, n_ids, byte_len)`` triples — the skip table the v2
    directory serializes — and ``payload`` is the concatenation of the
    block bodies.  A block body gap-encodes the ids *after* the first
    one (the header already names it), so every block decodes
    independently of its predecessors.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    blocks: List[Tuple[int, int, int]] = []
    payload = bytearray()
    previous = -1
    for start in range(0, len(sorted_ids), block_size):
        chunk = sorted_ids[start : start + block_size]
        first = chunk[0]
        if first <= previous:
            raise ValueError("ids must be strictly increasing")
        body = encode_gaps(chunk[1:], previous=first)
        blocks.append((first, len(chunk), len(body)))
        payload += body
        previous = chunk[-1]
    return blocks, bytes(payload)


class BlockedPostingsList(PostingsList):
    """A postings list decoded lazily, block by block, from a buffer.

    Views (never copies) a slice of a memory-mapped ``FREEIDX2`` image.
    Two forms share the class:

    * **flat** (``first_ids is None``) — the payload is one plain v1
      gap stream holding every id; short lists (at most one block)
      carry no skip table at all, which keeps the v2 directory small
      and its parse trivial;
    * **blocked** — the skip table (parallel lists of block first ids,
      id counts and payload offsets) lives on the object, and the gap
      bytes stay in the map until a block is actually needed.

    Decoded blocks are memoised per list, so repeated queries pay the
    decode once, exactly like the v1 per-key decoded-ids cache.  The
    constructor *adopts* the sequences it is given (no defensive
    copies) — it sits on the cold-start path.

    Subclasses :class:`PostingsList` so every existing consumer —
    equality tests, ``ids()``, the v1 writer, Table 3 accounting —
    keeps working: ``nbytes``/``raw`` report the *flat v1 encoding*
    (materialised on first touch), which is also what ``__eq__`` and
    ``__hash__`` compare, making a blocked list equal to its flat
    twin's re-encoding.
    """

    __slots__ = (
        "_buf",
        "_first_ids",
        "_block_counts",
        "_block_bounds",
        "_raw_bytes",
        "_blocks_cache",
        "_owner",
    )

    def __init__(
        self,
        buf: ByteSource,
        first_ids: Optional[Sequence[int]],
        block_counts: Optional[Sequence[int]],
        block_bounds: Optional[Sequence[int]],
        count: int,
        raw_bytes: int,
        owner: Optional[object] = None,
    ):
        # Deliberately no super().__init__: ``_data`` (the flat v1
        # encoding) stays unset until ``__getattr__`` materialises it.
        self._buf = buf
        #: None marks the flat form: the whole payload is one v1 gap
        #: stream (and equals the flat encoding byte for byte).
        self._first_ids = first_ids
        self._block_counts = block_counts
        # Block i's payload is buf[block_bounds[i]:block_bounds[i+1]];
        # len(block_bounds) == n_blocks + 1.
        self._block_bounds = block_bounds
        self._count = count
        self._raw_bytes = raw_bytes
        # Bounded by this list's block count, so it can never grow
        # past the list's own decoded size.
        self._blocks_cache: Dict[int, List[int]] = {}  # noqa: FREE004
        self._owner = owner

    @staticmethod
    def from_ids(
        ids: Iterable[int], block_size: int = BLOCK_SIZE
    ) -> "BlockedPostingsList":
        """Build an in-memory blocked list (tests, conversion).

        Always materialises an explicit skip table, even for a single
        block — the writer, not this helper, decides when a list is
        short enough for the flat form.
        """
        unique = sorted(set(ids))
        blocks, payload = encode_blocks(unique, block_size)
        bounds = [0]
        for _first, _n, byte_len in blocks:
            bounds.append(bounds[-1] + byte_len)
        raw_bytes = len(encode_gaps(unique))
        return BlockedPostingsList(
            payload,
            [b[0] for b in blocks],
            [b[1] for b in blocks],
            bounds,
            len(unique),
            raw_bytes,
        )

    @staticmethod
    def from_flat(
        data: ByteSource,
        count: int,
        owner: Optional[object] = None,
    ) -> "BlockedPostingsList":
        """Wrap one flat v1 gap stream as a lazily-decoded list."""
        return BlockedPostingsList(
            data, None, None, None, count, len(data), owner=owner
        )

    @property
    def has_skip_table(self) -> bool:
        return self._first_ids is not None

    @property
    def n_blocks(self) -> int:
        if self._first_ids is None:
            return 1
        return len(self._first_ids)

    @property
    def block_table(self) -> List[Tuple[int, int, int]]:
        """The skip table as ``(first_id, n_ids, byte_len)`` triples
        (empty for the flat form, which has no skip table)."""
        if self._first_ids is None or self._block_counts is None:
            return []
        bounds = self._block_bounds or [0]
        return [
            (first, count, bounds[i + 1] - bounds[i])
            for i, (first, count) in enumerate(
                zip(self._first_ids, self._block_counts)
            )
        ]

    def block_ids(
        self, index: int, metrics: Optional["QueryMetrics"] = None
    ) -> List[int]:
        """Decode (and memoise) one block; charges ``metrics`` only on
        an actual decode, never on a memo hit."""
        cached = self._blocks_cache.get(index)
        if cached is not None:
            return cached
        if self._first_ids is None:
            if index != 0:
                raise IndexError(index)
            ids = decode_gaps(self._buf)
            n_bytes = len(self._buf)
            if len(ids) != self._count:
                raise ValueError(
                    f"flat payload decoded {len(ids)} ids, "
                    f"directory says {self._count}"
                )
        else:
            if self._block_bounds is None or self._block_counts is None:
                raise InternalError("blocked list missing its skip table")
            start = self._block_bounds[index]
            end = self._block_bounds[index + 1]
            first = self._first_ids[index]
            ids = [first]
            ids.extend(decode_gaps(self._buf[start:end], previous=first))
            n_bytes = end - start
            if len(ids) != self._block_counts[index]:
                raise ValueError(
                    f"block {index} decoded {len(ids)} ids, "
                    f"directory says {self._block_counts[index]}"
                )
        self._blocks_cache[index] = ids
        if metrics is not None:
            metrics.record_block_decode(len(ids), n_bytes)
        return ids

    def ids(self) -> List[int]:
        """Decode all blocks to one fresh sorted id list."""
        out: List[int] = []
        for i in range(self.n_blocks):
            out.extend(self.block_ids(i))
        if len(out) != self._count:
            raise ValueError(
                f"blocks decoded {len(out)} ids, "
                f"directory says {self._count}"
            )
        return out

    @property
    def nbytes(self) -> int:
        """Flat v1-equivalent compressed size (Table 3 accounting)."""
        return self._raw_bytes

    @property
    def blocked_nbytes(self) -> int:
        """Size of the stored payload (excluding the skip table)."""
        if self._block_bounds is None:
            return len(self._buf)
        return self._block_bounds[-1]

    def __getattr__(self, name: str) -> bytes:
        # ``_data`` (the flat v1 gap stream) is materialised on first
        # touch: ``raw``, ``__eq__`` and ``__hash__`` all read it.  The
        # flat form already *is* that stream, so it copies bytes only.
        if name == "_data":
            if self._first_ids is None:
                data = bytes(self._buf)
            else:
                data = encode_gaps(self.ids())
            self._data = data
            return data
        raise AttributeError(name)

    def __repr__(self) -> str:
        return (
            f"BlockedPostingsList({self._count} ids, "
            f"{self.n_blocks} blocks)"
        )


class ListCursor:
    """A seekable cursor over an already-decoded sorted id list."""

    __slots__ = ("_ids", "_pos", "count")

    def __init__(self, ids: Sequence[int]):
        self._ids = ids
        self._pos = 0
        #: Total ids — the executor orders AND inputs by this.
        self.count = len(ids)

    def next_geq(self, target: int) -> Optional[int]:
        """Smallest id >= ``target`` at or after the cursor, or None.

        Positions the cursor *at* the returned id (repeat calls with
        the same target are stable); targets must be non-decreasing.
        """
        ids = self._ids
        pos = bisect_left(ids, target, self._pos)
        self._pos = pos
        if pos < len(ids):
            return ids[pos]
        return None

    def to_list(self) -> List[int]:
        """The remaining ids as a fresh list; exhausts the cursor."""
        remaining = list(self._ids[self._pos :])
        self._pos = len(self._ids)
        return remaining


class BlockCursor:
    """A seekable cursor over a :class:`BlockedPostingsList`.

    ``next_geq`` first binary-searches the skip table's first ids, so
    seeking across non-overlapping regions jumps whole blocks without
    decoding them; only blocks the target actually lands in are
    decoded (and memoised on the list).  When the cursor sits at the
    start of an undecoded block whose first id already answers the
    query, it returns that header value and leaves the block encoded.
    """

    __slots__ = ("_plist", "_metrics", "_block", "_ids", "_pos", "count")

    def __init__(
        self,
        plist: BlockedPostingsList,
        metrics: Optional["QueryMetrics"] = None,
    ):
        self._plist = plist
        self._metrics = metrics
        self._block = 0
        self._ids: Optional[List[int]] = None
        self._pos = 0
        self.count = len(plist)

    def next_geq(self, target: int) -> Optional[int]:
        plist = self._plist
        first_ids = plist._first_ids
        if first_ids is None:
            # Flat form: a single implicit block, decoded on first
            # touch (still lazy — an AND that exhausts another cursor
            # first may never decode it at all).
            ids = self._ids
            if ids is None:
                ids = plist.block_ids(0, self._metrics)
                self._ids = ids
            pos = bisect_left(ids, target, self._pos)
            self._pos = pos
            if pos < len(ids):
                return ids[pos]
            return None
        n_blocks = len(first_ids)
        block = self._block
        if block >= n_blocks:
            return None
        # Last block whose first id is <= target, never moving back.
        jump_to = bisect_right(first_ids, target, block + 1) - 1
        if jump_to > block:
            skipped = jump_to - block
            if self._ids is not None:
                skipped -= 1  # current block was already decoded
            if self._metrics is not None and skipped > 0:
                self._metrics.postings_blocks_skipped += skipped
            block = jump_to
            self._block = block
            self._ids = None
            self._pos = 0
        ids = self._ids
        if ids is None and first_ids[block] >= target:
            # The header alone answers: leave the block encoded.
            return first_ids[block]
        if ids is None:
            ids = plist.block_ids(block, self._metrics)
            self._ids = ids
        pos = bisect_left(ids, target, self._pos)
        if pos < len(ids):
            self._pos = pos
            return ids[pos]
        # Exhausted this block; the next block's first id (if any) is
        # >= target by choice of ``jump_to``.
        self._block = block + 1
        self._ids = None
        self._pos = 0
        if block + 1 >= n_blocks:
            return None
        return first_ids[block + 1]

    def to_list(self) -> List[int]:
        """The remaining ids as a fresh list; exhausts the cursor."""
        plist = self._plist
        if plist._first_ids is None:
            ids = self._ids
            if ids is None:
                ids = plist.block_ids(0, self._metrics)
                self._ids = ids
            remaining = list(ids[self._pos :])
            self._pos = len(ids)
            return remaining
        n_blocks = len(plist._first_ids)
        out: List[int] = []
        block = self._block
        if self._ids is not None:
            out.extend(self._ids[self._pos :])
            block += 1
        for i in range(block, n_blocks):
            out.extend(plist.block_ids(i, self._metrics))
        self._block = n_blocks
        self._ids = None
        self._pos = 0
        return out


PostingsCursor = Union[ListCursor, BlockCursor]


def cursor_for(
    plist: PostingsList, metrics: Optional["QueryMetrics"] = None
) -> PostingsCursor:
    """The cheapest cursor for a postings list: block-skipping for
    blocked lists, a plain list cursor (full decode) otherwise."""
    if isinstance(plist, BlockedPostingsList):
        return BlockCursor(plist, metrics)
    return ListCursor(plist.ids())


def intersect_cursors(
    cursors: Sequence[PostingsCursor], limit: Optional[int] = None
) -> List[int]:
    """Leapfrog AND of several cursors; always returns a fresh list.

    Round-robins ``next_geq`` across the cursors: each one seeks to
    the current candidate id, and an id is emitted only once all of
    them land on it — so blocks (or list regions) that cannot contain
    a common id are skipped without being decoded.  ``limit`` stops
    after that many results, making the output a *prefix* of the full
    intersection (the ``first_k`` early exit of Section 5.4).
    """
    if limit is not None and limit <= 0:
        return []
    if not cursors:
        return []
    if len(cursors) == 1:
        ids = cursors[0].to_list()
        return ids[:limit] if limit is not None else ids
    ordered = sorted(cursors, key=lambda c: c.count)
    result: List[int] = []
    append = result.append
    k = len(ordered)
    target = ordered[0].next_geq(0)
    if target is None:
        return result
    agreed = 1
    i = 0
    while True:
        i += 1
        if i == k:
            i = 0
        value = ordered[i].next_geq(target)
        if value is None:
            return result
        if value == target:
            agreed += 1
            if agreed == k:
                append(target)
                if limit is not None and len(result) >= limit:
                    return result
                agreed = 0
                target += 1
        else:
            target = value
            agreed = 1


def _binary_search(ids: List[int], target: int) -> bool:
    lo, hi = 0, len(ids)
    while lo < hi:
        mid = (lo + hi) // 2
        if ids[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo < len(ids) and ids[lo] == target


def intersect_sorted(a: List[int], b: List[int]) -> List[int]:
    """Galloping intersection of two sorted id lists."""
    if len(a) > len(b):
        a, b = b, a
    result: List[int] = []
    lo = 0
    n = len(b)
    for value in a:
        # Exponential probe forward in b from lo.
        step = 1
        hi = lo
        while hi < n and b[hi] < value:
            lo = hi + 1
            hi += step
            step <<= 1
        hi = min(hi, n)
        # Binary search in (lo-1, hi].
        left, right = lo, hi
        while left < right:
            mid = (left + right) // 2
            if b[mid] < value:
                left = mid + 1
            else:
                right = mid
        lo = left
        if lo < n and b[lo] == value:
            result.append(value)
            lo += 1
        elif lo >= n:
            break
    return result


def intersect_many(lists: Sequence[List[int]]) -> List[int]:
    """AND of several sorted lists, smallest-first for early shrink.

    Fast paths: one list is *copied* (the same fresh-list guarantee
    every other path — and :func:`union_many` — gives, so callers may
    mutate the result without corrupting the index's cached lists),
    two lists go straight to the galloping kernel without the
    sort/fold machinery.
    """
    if not lists:
        return []
    if len(lists) == 1:
        return list(lists[0])
    if len(lists) == 2:
        return intersect_sorted(lists[0], lists[1])
    ordered = sorted(lists, key=len)
    result = ordered[0]
    for other in ordered[1:]:
        if not result:
            return []
        result = intersect_sorted(result, other)
    return result


def _union_two(a: List[int], b: List[int]) -> List[int]:
    """Linear two-way merge with duplicate elimination."""
    result: List[int] = []
    append = result.append
    i = j = 0
    n_a, n_b = len(a), len(b)
    while i < n_a and j < n_b:
        x, y = a[i], b[j]
        if x < y:
            append(x)
            i += 1
        elif y < x:
            append(y)
            j += 1
        else:
            append(x)
            i += 1
            j += 1
    if i < n_a:
        result.extend(a[i:])
    elif j < n_b:
        result.extend(b[j:])
    return result


def union_many(
    lists: Sequence[List[int]], limit: Optional[int] = None
) -> List[int]:
    """OR of several sorted lists (k-way heap merge, deduplicated).

    Fast paths: one list is copied directly, two lists use a linear
    merge instead of the heap.  ``limit`` truncates the union to its
    first ``limit`` ids (a sorted prefix — the ``first_k`` early
    exit); the fresh-copy guarantee holds on every path.
    """
    if limit is not None and limit <= 0:
        return []
    nonempty = [lst for lst in lists if lst]
    if not nonempty:
        return []
    if len(nonempty) == 1:
        only = nonempty[0]
        return only[:limit] if limit is not None else list(only)
    if limit is None and len(nonempty) == 2:
        return _union_two(nonempty[0], nonempty[1])
    result: List[int] = []
    append = result.append
    last = -1
    for value in heapq.merge(*nonempty):
        if value != last:
            append(value)
            last = value
            if limit is not None and len(result) >= limit:
                break
    return result


class PostingsKernel:
    """The set operations the plan executor runs on postings lists.

    Stateless: the one instance, :data:`PYTHON_KERNEL`, serves every
    engine and thread.  ``name`` is the backend label query metrics
    report (``kernel_backend``).  Every operation returns a fresh list
    the caller owns.
    """

    name = "python"

    intersect_many = staticmethod(intersect_many)
    union_many = staticmethod(union_many)
    intersect_cursors = staticmethod(intersect_cursors)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


#: The shared kernel every engine and executor uses.
PYTHON_KERNEL = PostingsKernel()
