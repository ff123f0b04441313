"""On-disk index images: save and load gram indexes, flat or sharded.

Two single-index image formats share the leading-magic convention.

v1 — eager flat layout (little-endian)::

    magic 'FREEIDX1' |
    meta_len u32 | meta json (kind, n_docs, threshold, max_gram_len) |
    n_keys u32 |
    per key: key_len u16 | key utf-8 |
             posting_count u32 | data_len u32 | gap-varint postings

    The postings bytes are stored verbatim — the in-memory and on-disk
    representations are the same compressed form — but loading decodes
    every payload up front to validate it, so cold-start is O(total
    postings).

v2 — zero-copy blocked layout (little-endian)::

    magic 'FREEIDX2' |
    meta_len u32 | meta json (v1 fields + block_size) |
    n_keys u32 | dir_len u64 | postings_len u64 |
    entry offset table: n_keys x u32 (entry offsets, for binary search) |
    per key (sorted by utf-8 bytes):
        key_len u16 | key utf-8 |
        count u32 | raw_bytes u32 | data_off u32 | data_len u32 |
        n_blocks u32 |
        per block: first_id u64 | n_ids u16 | byte_len u32 |
    postings region: concatenated payloads

    A key with at most ``block_size`` ids stores ``n_blocks == 0`` and
    its payload is the plain v1 gap stream (one implicit block — no
    skip table, no per-block overhead; in a multigram directory most
    keys are short lists, so this is what keeps v2 images close to v1
    size).  Longer lists are chunked into fixed-size blocks of
    delta-varints: each block's first id lives in the directory (the
    skip table) and a block's payload gap-encodes only the ids after
    it, so every block decodes independently.

    ``load_index`` memory-maps the file and returns a
    :class:`MappedGramIndex` in O(1): *nothing* per key is parsed at
    load.  Lookups binary-search the sorted key directory straight in
    the map, parse that one entry, and hand out
    :class:`~repro.index.postings.BlockedPostingsList` views that
    decode lazily, per block.  Cold-start is O(header), not O(keys)
    and not O(postings).  The map stays alive as long as the index or
    any postings list references it and is released by garbage
    collection.  ``raw_bytes`` records the flat v1-equivalent size per
    key so Table 3 byte accounting is identical across formats.

    The trade for the O(1) load: per-entry structural validation moves
    from load time to ``free check`` (IDX010/IDX011/IDX012) — load
    still proves the image is complete (every region in bounds, every
    truncation caught), while unsorted directories, lying skip tables
    and corrupt payloads are the analyzer's job, exactly like
    checksum-verify in Lucene.  Payload damage surfaces as
    ``ValueError`` at first decode rather than silently shrinking a
    candidate set.

A sharded index image embeds one complete single-index stream (of
either version) per shard::

    magic 'FREESHRD' |
    meta_len u32 | meta json (n_shards, n_docs, doc_ranges) |
    per shard: a full 'FREEIDX1' or 'FREEIDX2' stream as above

:func:`load_any_index` dispatches on the leading magic so the CLI can
open any image kind from one ``--index`` flag, and :func:`convert_index`
migrates between versions (``free convert``).
"""

from __future__ import annotations

import json
import mmap
import struct
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.errors import SerializationError
from repro.index.multigram import GramIndex
from repro.index.postings import (
    BLOCK_SIZE,
    BlockedPostingsList,
    PostingsList,
    decode_gaps,
    encode_blocks,
)
from repro.index.stats import IndexStats
from repro.metrics import LRUCache

if TYPE_CHECKING:
    from repro.index.sharded import ShardedIndex

_MAGIC = b"FREEIDX1"
_MAGIC_V2 = b"FREEIDX2"
_SHARD_MAGIC = b"FREESHRD"
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
#: v2 per-key directory entry after the key text:
#: count u32 | raw_bytes u32 | data_off u32 | data_len u32 | n_blocks u32
_V2_ENTRY = struct.Struct("<IIIII")
#: v2 skip-table row: first_id u64 | n_ids u16 | byte_len u32
_V2_BLOCK = struct.Struct("<QHI")

#: Format written by default.  v1 images remain fully loadable.
DEFAULT_VERSION = 2


def save_index(
    index: GramIndex, path: str, version: int = DEFAULT_VERSION
) -> None:
    """Write ``index`` to ``path`` in the single-index image format."""
    with open(path, "wb") as out:
        _write_index_stream(out, index, version)


def load_index(path: str) -> GramIndex:
    """Read a single-index image written by :func:`save_index`.

    Dispatches on the magic: ``FREEIDX1`` images are read eagerly (full
    decode validation), ``FREEIDX2`` images are memory-mapped in O(1)
    and decode lazily (:class:`MappedGramIndex`).
    """
    with open(path, "rb") as infile:
        magic = infile.read(len(_MAGIC))
        if magic == _MAGIC:
            return _read_index_stream(infile, path)
        if magic == _MAGIC_V2:
            buf = mmap.mmap(infile.fileno(), 0, access=mmap.ACCESS_READ)
            try:
                index, end = _read_index_stream_v2(buf, 0, path)
            except Exception:
                buf.close()
                raise
            total = len(buf)
            if end != total:
                # A standalone image ends exactly where its header
                # says (embedded shard streams are followed by the
                # next shard instead — the sharded reader allows
                # that, this entry point must not).
                index._view.release()
                buf.close()
                raise SerializationError(
                    f"{path!r}: {total - end} trailing bytes "
                    f"after the postings region"
                )
            return index
        raise SerializationError(f"{path!r}: bad magic {magic!r}")


def save_sharded_index(
    sharded: "ShardedIndex", path: str, version: int = DEFAULT_VERSION
) -> None:
    """Write a :class:`~repro.index.sharded.ShardedIndex` image."""
    meta = {
        "n_shards": sharded.n_shards,
        "n_docs": sharded.n_docs,
        "doc_ranges": [list(r) for r in sharded.doc_ranges()],
    }
    meta_bytes = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as out:
        out.write(_SHARD_MAGIC)
        out.write(_U32.pack(len(meta_bytes)))
        out.write(meta_bytes)
        for shard in sharded.shards:
            _write_index_stream(out, shard.index, version)


def load_sharded_index(path: str) -> "ShardedIndex":
    """Read a sharded image written by :func:`save_sharded_index`.

    Each embedded shard stream dispatches on its own magic, so a
    sharded image may mix eager v1 and memory-mapped v2 shards (as
    produced by partial migrations).  v2 shard streams are skipped
    over in O(1) — their directory header states the stream length —
    so a fully-v2 sharded image also loads in O(n_shards).
    """
    from repro.index.segmented import Segment
    from repro.index.sharded import ShardedIndex

    buf: Union[mmap.mmap, None] = None
    with open(path, "rb") as infile:
        magic = infile.read(len(_SHARD_MAGIC))
        if magic != _SHARD_MAGIC:
            raise SerializationError(f"{path!r}: bad magic {magic!r}")
        meta = json.loads(_read_block(infile, path).decode("utf-8"))
        shards = []
        for start, stop in meta["doc_ranges"]:
            shard_magic = infile.read(len(_MAGIC))
            if shard_magic == _MAGIC:
                index: GramIndex = _read_index_stream(infile, path)
            elif shard_magic == _MAGIC_V2:
                if buf is None:
                    buf = mmap.mmap(
                        infile.fileno(), 0, access=mmap.ACCESS_READ
                    )
                stream_start = infile.tell() - len(_MAGIC_V2)
                index, end = _read_index_stream_v2(
                    buf, stream_start, path
                )
                infile.seek(end)
            else:
                raise SerializationError(
                    f"{path!r}: bad embedded shard magic {shard_magic!r}"
                )
            if index.n_docs != stop - start:
                raise SerializationError(
                    f"{path!r}: shard image holds {index.n_docs} docs but "
                    f"the directory says [{start}, {stop})"
                )
            shards.append(Segment(list(range(start, stop)), index))
    sharded = ShardedIndex(shards)
    if sharded.n_docs != meta["n_docs"]:
        raise SerializationError(
            f"{path!r}: shards cover {sharded.n_docs} docs, "
            f"directory says {meta['n_docs']}"
        )
    return sharded


def load_any_index(path: str) -> Union[GramIndex, "ShardedIndex"]:
    """Open any image kind, dispatching on the leading magic."""
    with open(path, "rb") as infile:
        magic = infile.read(len(_MAGIC))
    if magic in (_MAGIC, _MAGIC_V2):
        return load_index(path)
    if magic == _SHARD_MAGIC:
        return load_sharded_index(path)
    raise SerializationError(f"{path!r}: bad magic {magic!r}")


def convert_index(
    src: str, dst: str, version: int = DEFAULT_VERSION
) -> Union[GramIndex, "ShardedIndex"]:
    """Rewrite the image at ``src`` to ``dst`` in ``version`` format.

    The migration path between formats (``free convert``): loads the
    source image (any version, flat or sharded) and re-serializes it.
    Lookup results are preserved exactly — both formats store the same
    gap-compressed postings, only the physical layout differs.
    Returns the loaded index for reporting.
    """
    index = load_any_index(src)
    if isinstance(index, GramIndex):
        save_index(index, dst, version)
    else:
        save_sharded_index(index, dst, version)
    return index


# ---------------------------------------------------------------------------
# The memory-mapped lazy index (v2 images)
# ---------------------------------------------------------------------------

class MappedGramIndex(GramIndex):
    """A :class:`GramIndex` whose directory lives in a memory map.

    The v2 lazy-lookup variant: construction is O(1) — no key, entry
    or posting is parsed until asked for.  ``__contains__``/``lookup``
    binary-search the sorted on-disk key table (utf-8 byte order, the
    writer's sort order), parse the one matching entry, and memoise
    the resulting :class:`~repro.index.postings.BlockedPostingsList`.
    ``covering_substrings`` replaces the in-memory
    :class:`~repro.index.directory.KeyTrie` walk with prefix-range
    probes against the same table, so the planner never forces a full
    directory scan either.  ``stats`` materialises on first access by
    walking every directory entry (no payload decode) — only offline
    consumers (``free info``, ``free check``, Table 3) pay for it.

    The public surface is exactly :class:`GramIndex`; every inherited
    method routes postings access through :meth:`lookup`, so caching,
    cursors and metrics behave identically to an eager index.
    """

    def __init__(
        self,
        buf: Union[mmap.mmap, bytes],
        path: str,
        meta: Dict[str, Any],
        n_keys: int,
        offsets_base: int,
        entries_base: int,
        postings_base: int,
        postings_len: int,
        ids_cache_size: int = 256,
    ):
        # Deliberately no super().__init__: the directory stays on
        # disk; ``_postings`` becomes the lookup memo (which also
        # means test/tooling code that plants a forged list in it
        # shadows the on-disk entry, same as for an eager index).
        self._postings: Dict[str, PostingsList] = {}
        self._absent: Set[str] = set()
        self._ids_cache = LRUCache(ids_cache_size)
        self._trie = None
        self.kind = str(meta["kind"])
        self.n_docs = int(meta["n_docs"])
        self.threshold = meta.get("threshold")
        self.max_gram_len = meta.get("max_gram_len")
        self._buf = buf
        self._view = memoryview(buf)
        self._path = path
        self._n_keys = n_keys
        self._offsets_base = offsets_base
        self._entries_base = entries_base
        self._postings_base = postings_base
        self._postings_len = postings_len
        self._corpus_chars = int(meta.get("corpus_chars") or 0)
        self._stats: Optional[IndexStats] = None

    # -- directory access over the map -----------------------------------

    def _key_at(self, ordinal: int) -> bytes:
        """The ordinal-th key's utf-8 bytes, straight from the map."""
        try:
            (rel,) = _U32.unpack_from(
                self._buf, self._offsets_base + 4 * ordinal
            )
            base = self._entries_base + rel
            (key_len,) = _U16.unpack_from(self._buf, base)
        except struct.error as exc:
            raise SerializationError(
                f"{self._path!r}: corrupt directory entry {ordinal}"
            ) from exc
        return bytes(self._buf[base + 2 : base + 2 + key_len])

    def _bisect_left(self, encoded: bytes) -> int:
        """First ordinal whose key is >= ``encoded`` (byte order)."""
        lo, hi = 0, self._n_keys
        while lo < hi:
            mid = (lo + hi) // 2
            if self._key_at(mid) < encoded:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _plist_at(self, ordinal: int) -> BlockedPostingsList:
        """Parse the ordinal-th entry into a lazily-decoded list."""
        try:
            (rel,) = _U32.unpack_from(
                self._buf, self._offsets_base + 4 * ordinal
            )
            base = self._entries_base + rel
            (key_len,) = _U16.unpack_from(self._buf, base)
            pos = base + 2 + key_len
            count, raw_bytes, data_off, data_len, n_blocks = (
                _V2_ENTRY.unpack_from(self._buf, pos)
            )
            pos += _V2_ENTRY.size
            if data_off + data_len > self._postings_len:
                raise SerializationError(
                    f"{self._path!r}: directory entry {ordinal} points "
                    f"outside the postings region"
                )
            data_base = self._postings_base + data_off
            payload = self._view[data_base : data_base + data_len]
            if n_blocks == 0:
                return BlockedPostingsList(
                    payload, None, None, None, count, raw_bytes,
                    owner=self._buf,
                )
            first_ids: List[int] = []
            block_counts: List[int] = []
            bounds = [0]
            for first_id, n_ids, byte_len in _V2_BLOCK.iter_unpack(
                bytes(self._buf[pos : pos + n_blocks * _V2_BLOCK.size])
            ):
                first_ids.append(first_id)
                block_counts.append(n_ids)
                bounds.append(bounds[-1] + byte_len)
            if len(first_ids) != n_blocks:
                raise SerializationError(
                    f"{self._path!r}: truncated skip table in "
                    f"directory entry {ordinal}"
                )
            return BlockedPostingsList(
                payload, first_ids, block_counts, bounds, count,
                raw_bytes, owner=self._buf,
            )
        except struct.error as exc:
            raise SerializationError(
                f"{self._path!r}: corrupt directory entry {ordinal}"
            ) from exc

    def _lookup_ordinal(self, ordinal: int, key: str) -> PostingsList:
        """Memoised entry fetch for a known (ordinal, key) pair."""
        plist = self._postings.get(key)
        if plist is None:
            plist = self._plist_at(ordinal)
            self._postings[key] = plist
        return plist

    # -- GramIndex surface -------------------------------------------------

    def __len__(self) -> int:
        return self._n_keys

    def __contains__(self, gram: str) -> bool:
        try:
            self.lookup(gram)
        except KeyError:
            return False
        return True

    def keys(self) -> Iterator[str]:
        return (
            self._key_at(ordinal).decode("utf-8")
            for ordinal in range(self._n_keys)
        )

    def items(self) -> Iterator[tuple]:
        """Iterate (key, PostingsList) pairs (analysis and diagnostics).

        Walks the directory sequentially (no binary searches) and
        memoises every entry — the analyzer visits them all anyway.
        """
        for ordinal in range(self._n_keys):
            key = self._key_at(ordinal).decode("utf-8")
            yield key, self._lookup_ordinal(ordinal, key)

    def lookup(self, gram: str) -> PostingsList:
        """Postings for an exact key; raises KeyError if absent."""
        plist = self._postings.get(gram)
        if plist is not None:
            return plist
        if gram in self._absent:
            raise KeyError(gram)
        encoded = gram.encode("utf-8")
        ordinal = self._bisect_left(encoded)
        if (
            ordinal >= self._n_keys
            or self._key_at(ordinal) != encoded
        ):
            self._absent.add(gram)
            raise KeyError(gram)
        return self._lookup_ordinal(ordinal, gram)

    def covering_substrings(self, gram: str) -> List[str]:
        """Keys occurring as substrings of ``gram`` (Section 4.3).

        Trie-free: for each start position, grow the candidate one
        character at a time and binary-search the key table; when no
        key extends the current prefix, no longer candidate at this
        start can be a key either, so the walk stops — the same early
        exit the in-memory trie descent gets for free.
        """
        found: List[str] = []
        seen: Set[str] = set()
        n = len(gram)
        max_len = self.max_gram_len or n
        for start in range(n):
            stop = min(max_len, n - start)
            for length in range(1, stop + 1):
                cand = gram[start : start + length]
                encoded = cand.encode("utf-8")
                ordinal = self._bisect_left(encoded)
                if ordinal >= self._n_keys:
                    break
                key = self._key_at(ordinal)
                if not key.startswith(encoded):
                    break  # nothing extends this prefix
                if key == encoded and cand not in seen:
                    seen.add(cand)
                    found.append(cand)
        return found

    @property
    def stats(self) -> IndexStats:
        """Table 3 statistics, materialised from the directory on
        first access (reads every entry, decodes no postings)."""
        if self._stats is None:
            stats = IndexStats(kind=self.kind, n_docs=self.n_docs)
            stats.fill_sizes(dict(self.items()))
            stats.corpus_chars = self._corpus_chars
            self._stats = stats
        return self._stats

    @stats.setter
    def stats(self, value: IndexStats) -> None:
        self._stats = value

    def __repr__(self) -> str:
        return (
            f"MappedGramIndex(kind={self.kind!r}, keys={self._n_keys}, "
            f"docs={self.n_docs}, path={self._path!r})"
        )


# ---------------------------------------------------------------------------
# Stream writers / readers
# ---------------------------------------------------------------------------

def _write_index_stream(
    out: BinaryIO, index: GramIndex, version: int = DEFAULT_VERSION
) -> None:
    """One complete single-index stream (magic included) into ``out``."""
    if version == 1:
        _write_index_stream_v1(out, index)
    elif version == 2:
        _write_index_stream_v2(out, index)
    else:
        raise SerializationError(f"unknown index image version {version}")


def _index_meta(index: GramIndex) -> Dict[str, Any]:
    return {
        "kind": index.kind,
        "n_docs": index.n_docs,
        "threshold": index.threshold,
        "max_gram_len": index.max_gram_len,
        # Corpus size in chars: lets `free check` verify the
        # Observation 3.8 postings bound on a loaded image without
        # re-reading the corpus.  Absent in old images (treated
        # as unknown on load).
        "corpus_chars": index.stats.corpus_chars,
    }


def _key_bytes(key: str) -> bytes:
    encoded = key.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise SerializationError(f"key too long: {len(encoded)}B")
    return encoded


def _write_index_stream_v1(out: BinaryIO, index: GramIndex) -> None:
    meta_bytes = json.dumps(_index_meta(index)).encode("utf-8")
    out.write(_MAGIC)
    out.write(_U32.pack(len(meta_bytes)))
    out.write(meta_bytes)
    out.write(_U32.pack(len(index)))
    for key in sorted(index.keys()):
        plist = index.lookup(key)
        encoded = _key_bytes(key)
        data = plist.raw
        out.write(_U16.pack(len(encoded)))
        out.write(encoded)
        out.write(_U32.pack(len(plist)))
        out.write(_U32.pack(len(data)))
        out.write(data)


def _write_index_stream_v2(
    out: BinaryIO, index: GramIndex, block_size: int = BLOCK_SIZE
) -> None:
    if not 1 <= block_size <= 0xFFFF:
        raise SerializationError(
            f"block_size {block_size} outside [1, 65535]"
        )
    meta = _index_meta(index)
    meta["block_size"] = block_size
    meta_bytes = json.dumps(meta).encode("utf-8")
    # Keys sorted by their utf-8 bytes so the fixed-width entry offset
    # table supports binary search over the raw image.
    keys = sorted(index.keys(), key=lambda k: k.encode("utf-8"))
    offsets = bytearray()
    entries = bytearray()
    payload = bytearray()
    for key in keys:
        plist = index.lookup(key)
        count = len(plist)
        raw = plist.raw
        if count <= block_size:
            # Short list: the flat v1 stream *is* the single block —
            # no skip table, no re-encode.
            blocks: List[Tuple[int, int, int]] = []
            body = raw
        else:
            blocks, body = encode_blocks(plist.ids(), block_size)
        if len(entries) > 0xFFFFFFFF or len(payload) > 0xFFFFFFFF:
            raise SerializationError(
                "index image exceeds the 4 GiB v2 region limit"
            )
        offsets += _U32.pack(len(entries))
        encoded = _key_bytes(key)
        entries += _U16.pack(len(encoded))
        entries += encoded
        entries += _V2_ENTRY.pack(
            count, len(raw), len(payload), len(body), len(blocks)
        )
        for first_id, n_ids, byte_len in blocks:
            entries += _V2_BLOCK.pack(first_id, n_ids, byte_len)
        payload += body
    out.write(_MAGIC_V2)
    out.write(_U32.pack(len(meta_bytes)))
    out.write(meta_bytes)
    out.write(_U32.pack(len(keys)))
    out.write(_U64.pack(len(offsets) + len(entries)))
    out.write(_U64.pack(len(payload)))
    out.write(offsets)
    out.write(entries)
    out.write(payload)


def _read_index_stream(infile: BinaryIO, path: str) -> GramIndex:
    """One v1 single-index image body (magic already consumed)."""
    meta = json.loads(_read_block(infile, path).decode("utf-8"))
    (n_keys,) = _U32.unpack(_read_exact(infile, _U32.size, path))
    postings: Dict[str, PostingsList] = {}
    for _ in range(n_keys):
        (key_len,) = _U16.unpack(_read_exact(infile, _U16.size, path))
        key = _read_exact(infile, key_len, path).decode("utf-8")
        (count,) = _U32.unpack(_read_exact(infile, _U32.size, path))
        (data_len,) = _U32.unpack(_read_exact(infile, _U32.size, path))
        data = _read_exact(infile, data_len, path)
        postings[key] = _validated_postings(data, count, key, path)
    index = GramIndex(
        postings,
        kind=meta["kind"],
        n_docs=meta["n_docs"],
        threshold=meta["threshold"],
        max_gram_len=meta["max_gram_len"],
    )
    index.stats.corpus_chars = int(meta.get("corpus_chars") or 0)
    return index


def _read_index_stream_v2(
    buf: Union[mmap.mmap, bytes], offset: int, path: str
) -> Tuple[MappedGramIndex, int]:
    """One v2 single-index stream starting at ``offset`` (at its magic).

    O(1): parses only the fixed header and proves the declared regions
    fit inside the buffer — which catches *every* truncation, since a
    well-formed stream ends exactly at ``postings_base + postings_len``.
    Per-key parsing is deferred to :class:`MappedGramIndex`; per-entry
    structural invariants are ``free check``'s job (IDX010..IDX012).

    Returns the index and the offset one past the stream's end.
    """
    total = len(buf)

    def need(pos: int, n: int, what: str) -> None:
        if pos + n > total:
            raise SerializationError(
                f"{path!r}: truncated index image ({what})"
            )

    pos = offset
    need(pos, len(_MAGIC_V2), "magic")
    if buf[pos : pos + len(_MAGIC_V2)] != _MAGIC_V2:
        raise SerializationError(f"{path!r}: bad magic at offset {offset}")
    pos += len(_MAGIC_V2)
    need(pos, _U32.size, "meta length")
    (meta_len,) = _U32.unpack_from(buf, pos)
    pos += _U32.size
    need(pos, meta_len, "meta json")
    try:
        meta = json.loads(bytes(buf[pos : pos + meta_len]).decode("utf-8"))
    except ValueError as exc:
        raise SerializationError(f"{path!r}: corrupt meta json") from exc
    if not isinstance(meta, dict) or "kind" not in meta:
        raise SerializationError(f"{path!r}: incomplete meta json")
    pos += meta_len
    need(pos, _U32.size + 2 * _U64.size, "directory header")
    (n_keys,) = _U32.unpack_from(buf, pos)
    pos += _U32.size
    (dir_len,) = _U64.unpack_from(buf, pos)
    pos += _U64.size
    (postings_len,) = _U64.unpack_from(buf, pos)
    pos += _U64.size
    offsets_base = pos
    if n_keys * _U32.size > dir_len:
        raise SerializationError(
            f"{path!r}: directory too small for {n_keys} keys"
        )
    entries_base = offsets_base + n_keys * _U32.size
    postings_base = offsets_base + dir_len
    end = postings_base + postings_len
    if end > total:
        raise SerializationError(
            f"{path!r}: truncated index image (directory/postings region)"
        )
    if int(meta.get("n_docs", -1)) < 0:
        raise SerializationError(f"{path!r}: invalid n_docs in meta")
    index = MappedGramIndex(
        buf,
        path,
        meta,
        n_keys,
        offsets_base,
        entries_base,
        postings_base,
        postings_len,
    )
    return index, end


def _validated_postings(
    data: bytes, count: int, key: str, path: str
) -> PostingsList:
    """Decode-check a postings payload before trusting it.

    Soundness depends on complete postings (candidates ⊇ matches), so a
    corrupt payload must fail the *load*, not silently shrink a result
    set later: an unterminated trailing varint raises ``ValueError`` in
    :func:`decode_gaps`, and a payload whose bytes happen to end on a
    varint boundary is caught by comparing the decoded count against
    the stored header count.
    """
    try:
        ids = decode_gaps(data)
    except ValueError as exc:
        raise SerializationError(
            f"{path!r}: corrupt postings for key {key!r}: {exc}"
        ) from exc
    if len(ids) != count:
        raise SerializationError(
            f"{path!r}: postings count mismatch for key {key!r}: "
            f"header says {count}, payload decodes to {len(ids)}"
        )
    return PostingsList(data, count)


def _read_block(infile: BinaryIO, path: str) -> bytes:
    (length,) = _U32.unpack(_read_exact(infile, _U32.size, path))
    return _read_exact(infile, length, path)


def _read_exact(infile: BinaryIO, n: int, path: str) -> bytes:
    data = infile.read(n)
    if len(data) != n:
        raise SerializationError(f"{path!r}: truncated index image")
    return data
