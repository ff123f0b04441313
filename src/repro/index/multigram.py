"""The queryable gram index (Figure 2: directory of keys + postings).

:class:`GramIndex` is the shared container for all three index flavours
of the evaluation — Complete (all k-grams), Multigram (minimal useful
grams) and Suffix (presuf shell).  It holds:

* a *directory*: the key set, kept wholly in memory as a
  :class:`~repro.index.directory.KeyTrie` (Section 5.2 stresses the
  directory is small enough for this), and
* one :class:`~repro.index.postings.PostingsList` per key.

The planner's two lookups are :meth:`__contains__` (is this gram a key?)
and :meth:`covering_substrings` (which keys occur inside this gram?).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import IndexBuildError
from repro.index.directory import KeyTrie
from repro.index.postings import (
    BlockCursor,
    BlockedPostingsList,
    ListCursor,
    PostingsCursor,
    PostingsList,
)
from repro.index.stats import IndexStats
from repro.metrics import LRUCache, QueryMetrics


class GramIndex:
    """An immutable inverted index from gram keys to postings lists.

    Args:
        postings: mapping from key to its postings list.
        kind: "complete" | "multigram" | "presuf" (reporting only).
        n_docs: corpus size the index was built over.
        threshold: the usefulness threshold c (None for Complete).
        max_gram_len: the key-length cutoff used at build time.
        stats: optional build statistics (filled by the builders).
        ids_cache_size: LRU capacity (in keys) of the decoded-postings
            cache used by :meth:`lookup_ids`; 0 disables it.  The index
            is immutable, so cached decodes never go stale.
    """

    def __init__(
        self,
        postings: Dict[str, PostingsList],
        kind: str,
        n_docs: int,
        threshold: Optional[float] = None,
        max_gram_len: Optional[int] = None,
        stats: Optional[IndexStats] = None,
        ids_cache_size: int = 256,
    ):
        if n_docs < 0:
            raise IndexBuildError("n_docs must be >= 0")
        self._postings = dict(postings)
        if "" in self._postings:
            raise IndexBuildError("cannot index the empty gram")
        self._ids_cache = LRUCache(ids_cache_size)
        self.kind = kind
        self.n_docs = n_docs
        self.threshold = threshold
        self.max_gram_len = max_gram_len
        # The directory trie is built lazily on first planner access:
        # membership tests go through the postings dict, so an index
        # that is only loaded (cold-start benchmark, `free convert`)
        # never pays the trie construction.
        self._trie: Optional[KeyTrie] = None
        self.stats = stats if stats is not None else self._derive_stats()

    def _derive_stats(self) -> IndexStats:
        stats = IndexStats(kind=self.kind, n_docs=self.n_docs)
        stats.fill_sizes(self._postings)
        return stats

    # -- directory queries -------------------------------------------------

    #: Content version stamp.  A plain :class:`GramIndex` is immutable,
    #: so it is always at epoch 0; mutable wrappers (the segmented
    #: index) bump their own counter.  The engine's answer-cache
    #: keys and the static analyzer both read this uniformly.
    epoch: int = 0

    def __contains__(self, gram: str) -> bool:
        return gram in self._postings

    def __len__(self) -> int:
        return len(self._postings)

    def keys(self) -> Iterator[str]:
        return iter(self._postings)

    def items(self) -> Iterator[tuple]:
        """Iterate (key, PostingsList) pairs (analysis and diagnostics)."""
        return iter(self._postings.items())

    def lookup(self, gram: str) -> PostingsList:
        """Postings for an exact key; raises KeyError if absent."""
        return self._postings[gram]

    def lookup_ids(
        self, gram: str, metrics: Optional[QueryMetrics] = None
    ) -> List[int]:
        """Decoded doc ids for an exact key, LRU-cached.

        Varint decoding is the CPU cost of a lookup, so hot keys are
        served from a bounded cache of decoded lists.  The returned
        list is shared with the cache — callers must treat it as
        immutable.  Raises KeyError if ``gram`` is not a key.
        """
        ids = self._ids_cache.get(gram)
        if ids is None:
            plist = self.lookup(gram)
            ids = plist.ids()
            self._ids_cache.put(gram, ids)
            if metrics is not None:
                metrics.record_lookup(
                    gram, len(ids), from_cache=False, n_bytes=plist.nbytes
                )
        elif metrics is not None:
            metrics.record_lookup(gram, len(ids), from_cache=True)
        return ids

    def lookup_cursor(
        self, gram: str, metrics: Optional[QueryMetrics] = None
    ) -> PostingsCursor:
        """A seekable cursor over a key's postings (streaming AND path).

        Blocked (FREEIDX2) lists get a skip-aware
        :class:`~repro.index.postings.BlockCursor` that decodes only
        the blocks the intersection actually lands in; flat lists —
        and blocked lists whose full decode already sits in the
        decoded-ids cache — fall back to a
        :class:`~repro.index.postings.ListCursor` over
        :meth:`lookup_ids`.  Raises KeyError if ``gram`` is not a key.
        """
        plist = self.lookup(gram)
        if isinstance(plist, BlockedPostingsList):
            if gram not in self._ids_cache:
                if metrics is not None:
                    metrics.record_lookup(
                        gram, len(plist), from_cache=False, lazy=True
                    )
                return BlockCursor(plist, metrics)
        return ListCursor(self.lookup_ids(gram, metrics))

    @property
    def ids_cache(self) -> LRUCache:
        """The decoded-postings cache (hit/miss stats for reporting)."""
        return self._ids_cache

    def covering_substrings(self, gram: str) -> List[str]:
        """Keys occurring as substrings of ``gram`` (Section 4.3)."""
        return self.trie.substrings_of(gram)

    def selectivity(self, gram: str) -> Optional[float]:
        """sel(gram) per Definition 3.1, or None if not a key."""
        try:
            plist = self.lookup(gram)
        except KeyError:
            return None
        if self.n_docs == 0:
            return None
        return len(plist) / self.n_docs

    @property
    def trie(self) -> KeyTrie:
        if self._trie is None:
            self._trie = KeyTrie.from_keys(self.keys())
        return self._trie

    def is_prefix_free(self) -> bool:
        """Theorem 3.9(3) validation hook."""
        return self.trie.is_prefix_free()

    def __repr__(self) -> str:
        return (
            f"GramIndex(kind={self.kind!r}, keys={len(self)}, "
            f"postings={self.stats.n_postings}, docs={self.n_docs})"
        )
