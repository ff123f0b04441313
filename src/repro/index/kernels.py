"""Pluggable postings kernels: pure-python and numpy-vectorized.

The query path spends most of its time decoding gap-compressed
postings blocks and combining the resulting sorted id lists (the AND /
OR connectives of the access plan).  FREEIDX2 was laid out for exactly
this — fixed 128-id blocks that decode independently — so the whole
filter phase can run data-parallel when numpy is available.

A :class:`PostingsKernel` bundles the five set operations the executor
calls.  Two implementations share the interface:

* :class:`PythonKernel` — delegates to the tuned pure-python kernels in
  :mod:`repro.index.postings`; always available, zero state, and the
  reference semantics every other backend must match byte for byte;
* :class:`NumpyKernel` — decodes a varint block into one ``int64``
  array (vectorized LEB128: terminator mask, ``reduceat`` over 7-bit
  limbs, cumulative sum of gaps) exactly once per (block, epoch) into a
  small bounded LRU, then intersects/unions with ``searchsorted``
  merges.  Block skipping survives vectorization: the AND kernel
  gallops over each list's block *first ids* and decodes only blocks
  the driver's candidates actually land in.

Backend selection is by name — ``python``, ``numpy``, or ``auto``
(numpy when importable) — via :func:`resolve_kernel`, with the
``FREE_KERNEL`` environment variable as a session-wide override.
Indexes carry only the backend *name* (``kernel_backend``); engines
resolve it to a private kernel *instance*, so the decoded-block cache
is never shared across threads.

Fallback rules (the numpy backend must never change results):

* ids that cannot live in ``int64`` — a gap wider than 56 bits, a
  block first id above ``2**63 - 1``, or an overflowing cumulative
  sum — demote that operation to the pure-python kernel per call;
* numpy absent: ``auto`` resolves to ``python``; an explicit
  ``numpy`` request raises :class:`KernelError`.
"""

from __future__ import annotations

import itertools
import os
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Union

from repro.errors import FreeError
from repro.index import postings as _py
from repro.index.postings import (
    BlockCursor,
    BlockedPostingsList,
    ListCursor,
    PostingsCursor,
    PostingsList,
)
from repro.metrics import LRUCache

if TYPE_CHECKING:
    from repro.metrics import QueryMetrics

#: Environment variable overriding the default backend name.
KERNEL_ENV_VAR = "FREE_KERNEL"

#: Names :func:`resolve_kernel` accepts.
KERNEL_CHOICES = ("python", "numpy", "auto")

#: Decoded-block LRU entries per :class:`NumpyKernel` (one entry is one
#: 128-id ``int64`` array, about 1 KiB — the default bounds the cache
#: near 1 MiB per engine).
DEFAULT_DECODED_CACHE_BLOCKS = 1024

_INT64_MAX = 2**63 - 1

#: Longest varint the vectorized decoder accepts: 8 bytes carry 56
#: payload bits, so every per-block arithmetic step stays inside int64.
_MAX_VECTOR_VARINT_BYTES = 8

#: LRU sentinel for "this block's ids do not fit int64" (cache values
#: must not be None).
_OVERFLOW = object()

#: Process-wide source of decoded-block cache tokens.  A token is
#: assigned to a postings list the first time a numpy kernel touches it
#: and identifies that *object* for the rest of its life — unlike
#: ``id()`` it is never reused, so a mutated index (which builds new
#: list objects, i.e. a new epoch) can never alias a stale cache entry.
_TOKENS = itertools.count()


class KernelError(FreeError):
    """An unknown or unavailable postings-kernel backend was requested."""


def numpy_available() -> bool:
    """True when ``import numpy`` succeeds in this interpreter."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _token_of(plist: PostingsList) -> int:
    token = getattr(plist, "_kernel_token", None)
    if token is None:
        token = next(_TOKENS)
        plist._kernel_token = token
    return token


class PostingsKernel:
    """The set-operation bundle the plan executor calls.

    Every method takes and returns plain sorted ``List[int]`` (or
    cursors) with semantics identical to the module-level functions in
    :mod:`repro.index.postings`; results are always fresh lists the
    caller owns.
    """

    #: Bounded backend label ("python" or "numpy") for metrics.
    name = "abstract"

    def intersect_sorted(self, a: List[int], b: List[int]) -> List[int]:
        raise NotImplementedError

    def intersect_many(self, lists: Sequence[List[int]]) -> List[int]:
        raise NotImplementedError

    def union_many(
        self, lists: Sequence[List[int]], limit: Optional[int] = None
    ) -> List[int]:
        raise NotImplementedError

    def difference_sorted(self, a: List[int], b: List[int]) -> List[int]:
        raise NotImplementedError

    def intersect_cursors(
        self,
        cursors: Sequence[PostingsCursor],
        limit: Optional[int] = None,
    ) -> List[int]:
        raise NotImplementedError

    def clone(self) -> "PostingsKernel":
        """An independent instance safe for another thread.

        Stateless kernels return themselves; kernels holding mutable
        caches return a fresh instance (the sharded engine hands each
        shard worker its own clone).
        """
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PythonKernel(PostingsKernel):
    """The reference backend: today's tuned pure-python kernels."""

    name = "python"

    def intersect_sorted(self, a: List[int], b: List[int]) -> List[int]:
        return _py.intersect_sorted(a, b)

    def intersect_many(self, lists: Sequence[List[int]]) -> List[int]:
        return _py.intersect_many(lists)

    def union_many(
        self, lists: Sequence[List[int]], limit: Optional[int] = None
    ) -> List[int]:
        return _py.union_many(lists, limit)

    def difference_sorted(self, a: List[int], b: List[int]) -> List[int]:
        return _py.difference_sorted(a, b)

    def intersect_cursors(
        self,
        cursors: Sequence[PostingsCursor],
        limit: Optional[int] = None,
    ) -> List[int]:
        return _py.intersect_cursors(cursors, limit)


#: Shared stateless instance — :class:`PythonKernel` holds no caches,
#: so one object safely serves every engine and thread.
PYTHON_KERNEL = PythonKernel()


class NumpyKernel(PostingsKernel):
    """Vectorized backend over ``int64`` arrays.

    Owns a bounded decoded-block LRU keyed ``(list token, block)``, so
    repeated queries decode each hot block once.  The instance is NOT
    thread-safe (the LRU mutates on reads); engines hold a private
    instance each and never share one across worker threads.
    """

    name = "numpy"

    def __init__(
        self, cache_blocks: int = DEFAULT_DECODED_CACHE_BLOCKS
    ):
        if not numpy_available():
            raise KernelError(
                "the numpy postings kernel needs numpy installed; "
                "use --kernel python (or auto) instead"
            )
        import numpy

        self._np = numpy
        self._decoded = LRUCache(cache_blocks)

    @property
    def decoded_cache(self) -> LRUCache:
        """The decoded-block LRU (bench/diagnostic introspection)."""
        return self._decoded

    def clone(self) -> "NumpyKernel":
        return NumpyKernel(self._decoded.capacity)

    # -- array building ----------------------------------------------------

    def _as_array(self, ids: Sequence[int]) -> Optional[Any]:
        """A sorted id list as int64, or None when a value overflows."""
        try:
            return self._np.asarray(ids, dtype=self._np.int64)
        except OverflowError:
            return None

    def _decode_gaps_array(
        self, buf: _py.ByteSource, previous: int
    ) -> Optional[Any]:
        """Vectorized :func:`repro.index.postings.decode_gaps`.

        Returns the decoded ids as int64, or None when they cannot be
        represented (caller falls back to the python decoder).  Raises
        the same ``ValueError`` as the scalar decoder on a truncated
        varint, so corrupt images fail identically on both backends.
        """
        np = self._np
        data = np.frombuffer(bytes(buf), dtype=np.uint8)
        if data.size == 0:
            return np.empty(0, dtype=np.int64)
        ends = np.flatnonzero((data & 0x80) == 0)
        if ends.size == 0 or int(ends[-1]) != data.size - 1:
            raise ValueError("truncated varint in postings data")
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        lengths = ends - starts + 1
        if int(lengths.max()) > _MAX_VECTOR_VARINT_BYTES:
            return None  # a gap may exceed 56 bits: python handles it
        if previous > _INT64_MAX:
            return None
        # Each byte's position inside its varint selects its 7-bit
        # limb's shift; reduceat sums the limbs per varint.
        offsets = (
            np.arange(data.size, dtype=np.int64)
            - np.repeat(starts, lengths)
        )
        limbs = (data & 0x7F).astype(np.int64) << (7 * offsets)
        gaps = np.add.reduceat(limbs, starts)
        ids = previous + np.cumsum(gaps + 1)
        # int64 wrap-around: every true id is >= 0 and every step is
        # under 2**56, so the first wrapped id is always negative (a
        # step test would itself overflow).  Demote to the python
        # decoder.
        if int(ids.min()) < 0:
            return None
        return ids

    def _decode_block_fresh(
        self,
        plist: BlockedPostingsList,
        index: int,
        metrics: Optional["QueryMetrics"],
    ) -> Optional[Any]:
        """Decode one block to int64 (no cache), charging ``metrics``.

        None means the block's ids overflow int64; ``ValueError`` on a
        count mismatch matches :meth:`BlockedPostingsList.block_ids`.
        """
        np = self._np
        if plist._first_ids is None:
            if index != 0:
                raise IndexError(index)
            decoded = self._decode_gaps_array(plist._buf, -1)
            n_bytes = len(plist._buf)
            expect = plist._count
            label = "flat payload"
        else:
            if plist._block_bounds is None or plist._block_counts is None:
                return None
            first = plist._first_ids[index]
            if first > _INT64_MAX:
                return None
            start = plist._block_bounds[index]
            end = plist._block_bounds[index + 1]
            body = self._decode_gaps_array(
                plist._buf[start:end], first
            )
            decoded = (
                None
                if body is None
                else np.concatenate(
                    (np.asarray([first], dtype=np.int64), body)
                )
            )
            n_bytes = end - start
            expect = plist._block_counts[index]
            label = f"block {index}"
        if decoded is None:
            return None
        if decoded.size != expect:
            raise ValueError(
                f"{label} decoded {decoded.size} ids, "
                f"directory says {expect}"
            )
        if metrics is not None:
            metrics.record_block_decode(int(decoded.size), n_bytes)
        return decoded

    def _block_array(
        self,
        plist: BlockedPostingsList,
        index: int,
        metrics: Optional["QueryMetrics"],
    ) -> Optional[Any]:
        """One block as a cached int64 array (None on overflow)."""
        key = (_token_of(plist), index)
        cached = self._decoded.get(key)
        if cached is not None:
            return None if cached is _OVERFLOW else cached
        decoded = self._decode_block_fresh(plist, index, metrics)
        self._decoded.put(key, _OVERFLOW if decoded is None else decoded)
        return decoded

    def _cursor_array(
        self, cursor: PostingsCursor
    ) -> Optional[Any]:
        """A *fresh* cursor's full id set as int64, without advancing
        it (so a later python fallback sees untouched cursors).  None
        when any id overflows int64."""
        np = self._np
        if isinstance(cursor, BlockCursor):
            plist = cursor._plist
            if plist._first_ids is None:
                return self._block_array(plist, 0, cursor._metrics)
            parts = []
            for block in range(len(plist._first_ids)):
                arr = self._block_array(plist, block, cursor._metrics)
                if arr is None:
                    return None
                parts.append(arr)
            if not parts:
                return np.empty(0, dtype=np.int64)
            return np.concatenate(parts)
        return self._as_array(cursor._ids)

    # -- set operations ----------------------------------------------------

    def _intersect_arrays(self, small: Any, large: Any) -> Any:
        """Sorted-array intersection via a searchsorted membership
        probe of the smaller side into the larger."""
        np = self._np
        if small.size > large.size:
            small, large = large, small
        if small.size == 0 or large.size == 0:
            return np.empty(0, dtype=np.int64)
        pos = np.searchsorted(large, small)
        hit = large[np.minimum(pos, large.size - 1)] == small
        return small[hit]

    def intersect_sorted(self, a: List[int], b: List[int]) -> List[int]:
        if not a or not b:
            return []
        arr_a = self._as_array(a)
        arr_b = self._as_array(b)
        if arr_a is None or arr_b is None:
            return _py.intersect_sorted(a, b)
        result: List[int] = self._intersect_arrays(arr_a, arr_b).tolist()
        return result

    def intersect_many(self, lists: Sequence[List[int]]) -> List[int]:
        if not lists:
            return []
        if len(lists) == 1:
            return list(lists[0])
        arrays = [self._as_array(lst) for lst in lists]
        if any(arr is None for arr in arrays):
            return _py.intersect_many(lists)
        arrays.sort(key=lambda arr: arr.size)  # type: ignore[union-attr]
        result = arrays[0]
        for other in arrays[1:]:
            if result.size == 0:  # type: ignore[union-attr]
                return []
            result = self._intersect_arrays(result, other)
        out: List[int] = result.tolist()  # type: ignore[union-attr]
        return out

    def union_many(
        self, lists: Sequence[List[int]], limit: Optional[int] = None
    ) -> List[int]:
        if limit is not None and limit <= 0:
            return []
        nonempty = [lst for lst in lists if lst]
        if not nonempty:
            return []
        if len(nonempty) == 1:
            only = nonempty[0]
            return only[:limit] if limit is not None else list(only)
        arrays = [self._as_array(lst) for lst in nonempty]
        if any(arr is None for arr in arrays):
            return _py.union_many(lists, limit)
        merged = self._np.unique(self._np.concatenate(arrays))
        if limit is not None:
            merged = merged[:limit]
        result: List[int] = merged.tolist()
        return result

    def difference_sorted(self, a: List[int], b: List[int]) -> List[int]:
        if not a:
            return []
        if not b:
            return list(a)
        arr_a = self._as_array(a)
        arr_b = self._as_array(b)
        if arr_a is None or arr_b is None:
            return _py.difference_sorted(a, b)
        np = self._np
        pos = np.searchsorted(arr_b, arr_a)
        hit = arr_b[np.minimum(pos, arr_b.size - 1)] == arr_a
        result: List[int] = arr_a[~hit].tolist()
        return result

    def intersect_cursors(
        self,
        cursors: Sequence[PostingsCursor],
        limit: Optional[int] = None,
    ) -> List[int]:
        if limit is not None and limit <= 0:
            return []
        if not cursors:
            return []
        if len(cursors) == 1:
            ids = cursors[0].to_list()
            return ids[:limit] if limit is not None else ids
        if not all(map(_is_fresh_cursor, cursors)):
            # Partially-advanced cursors cannot be re-driven from the
            # skip tables; only the streaming kernel handles them.
            return _py.intersect_cursors(cursors, limit)
        ordered = sorted(cursors, key=lambda c: c.count)
        driver = self._cursor_array(ordered[0])
        if driver is None:
            return _py.intersect_cursors(cursors, limit)
        for cursor in ordered[1:]:
            if driver.size == 0:
                return []
            driver = self._filter_with_cursor(driver, cursor)
            if driver is None:
                return _py.intersect_cursors(cursors, limit)
        result: List[int] = (
            driver[:limit] if limit is not None else driver
        ).tolist()
        return result

    def _filter_with_cursor(
        self, driver: Any, cursor: PostingsCursor
    ) -> Optional[Any]:
        """Keep the driver ids present in ``cursor``'s list, decoding
        only the blocks the driver actually lands in (None demotes the
        whole AND to the python kernel)."""
        np = self._np
        if isinstance(cursor, ListCursor):
            other = self._as_array(cursor._ids)
            if other is None:
                return None
            return self._intersect_arrays(driver, other)
        plist = cursor._plist
        first_ids = plist._first_ids
        if first_ids is None:
            other = self._block_array(plist, 0, cursor._metrics)
            if other is None:
                return None
            return self._intersect_arrays(driver, other)
        firsts = self._as_array(first_ids)
        if firsts is None:
            return None
        # The galloping seek, vectorized: every driver id maps to the
        # one block that could contain it (the last block whose first
        # id is <= the target); ids before block 0 match nothing.
        block_of = np.searchsorted(firsts, driver, side="right") - 1
        keep = np.zeros(driver.size, dtype=bool)
        inside = block_of >= 0
        for block in np.unique(block_of[inside]).tolist():
            ids = self._block_array(plist, block, cursor._metrics)
            if ids is None:
                return None
            sel = block_of == block
            values = driver[sel]
            pos = np.searchsorted(ids, values)
            keep[sel] = ids[np.minimum(pos, ids.size - 1)] == values
        return driver[keep]


def _is_fresh_cursor(cursor: PostingsCursor) -> bool:
    if isinstance(cursor, BlockCursor):
        return (
            cursor._block == 0
            and cursor._pos == 0
            and cursor._ids is None
        )
    return cursor._pos == 0


def resolve_kernel(
    name: Optional[Union[str, PostingsKernel]] = None,
    env: Optional[str] = None,
) -> PostingsKernel:
    """Resolve a backend request to a kernel instance.

    Precedence: an explicit ``name`` wins, then the ``FREE_KERNEL``
    environment variable, then the ``python`` default.  ``auto`` picks
    numpy when importable.  Already-constructed kernels pass through,
    so engines can share one explicit instance when they choose to.
    """
    if isinstance(name, PostingsKernel):
        return name
    if name is None:
        env_name = (
            env if env is not None else os.environ.get(KERNEL_ENV_VAR)
        )
        name = env_name if env_name else "python"
    if name == "auto":
        name = "numpy" if numpy_available() else "python"
    if name == "python":
        return PYTHON_KERNEL
    if name == "numpy":
        return NumpyKernel()
    raise KernelError(
        f"unknown postings kernel {name!r} "
        f"(choose from {', '.join(KERNEL_CHOICES)})"
    )
