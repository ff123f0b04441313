"""Parallel index construction: map-reduce over corpus chunks.

The paper's Table 3 builds took 6-63 *hours*; the mining passes of
Algorithm 3.1 are embarrassingly parallel — document-frequency counting
is a sum over disjoint document sets, and the postings pass partitions
by document.  This module runs both as map-reduce over corpus chunks:

* **map**: each worker counts candidate grams (or extracts postings)
  over its chunk;
* **reduce**: partial counts are summed (postings concatenated — chunk
  doc-id ranges are disjoint and ordered, so concatenation preserves
  sorted order).

With ``workers > 1`` the maps run in a ``multiprocessing`` pool; with
``workers = 1`` the same code runs inline (useful for tests and
platforms without fork).  The result is **identical** to the sequential
:class:`~repro.index.builder.MultigramIndexBuilder` — asserted in
tests — because the reduction is exact, not approximate.
"""

from __future__ import annotations

import time
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.corpus.document import DataUnit
from repro.corpus.store import CorpusStore
from repro.errors import IndexBuildError
from repro.index.builder import MultigramIndexBuilder
from repro.index.multigram import GramIndex
from repro.index.postings import PostingsList
from repro.index.presuf import presuf_shell
from repro.index.stats import IndexStats

# -- map tasks (module level: must be picklable) ----------------------------


def _count_chunk(
    texts: List[str],
    expand: Set[str],
    lengths: List[int],
) -> Dict[str, int]:
    """Document frequencies of candidate grams over one text chunk."""
    prefix_len = lengths[0] - 1
    max_len = lengths[-1]
    counts: Dict[str, int] = {}
    for text in texts:
        seen: Set[str] = set()
        for i in range(len(text)):
            if prefix_len and text[i : i + prefix_len] not in expand:
                continue
            base = text[i : i + max_len]
            for length in lengths:
                if length > len(base):
                    break
                seen.add(base[:length])
        for gram in seen:
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def _postings_chunk(
    units: List[Tuple[int, str]],
    keys: Sequence[str],
) -> Dict[str, List[int]]:
    """Postings (global doc ids) for ``keys`` over one chunk."""
    from repro.index.directory import KeyTrie

    trie = KeyTrie()
    for key in keys:
        trie.insert(key)
    acc: Dict[str, List[int]] = {}
    for doc_id, text in units:
        hits: Set[str] = set()
        for i in range(len(text)):
            for key in trie.keys_starting_at(text, i):
                hits.add(key)
        for key in hits:
            acc.setdefault(key, []).append(doc_id)
    return acc


# -- the parallel builder -----------------------------------------------------


class ParallelMultigramBuilder:
    """Map-reduce variant of :class:`MultigramIndexBuilder`.

    Args:
        workers: process count; 1 runs the maps inline.
        chunk_docs: documents per map task (defaults to an even split
            into ~2 tasks per worker).
        (remaining args as in the sequential builder)
    """

    def __init__(
        self,
        threshold: float = 0.1,
        max_gram_len: int = 10,
        presuf: bool = False,
        lengths_per_pass: int = 2,
        workers: int = 2,
        chunk_docs: Optional[int] = None,
    ):
        if workers < 1:
            raise IndexBuildError("workers must be >= 1")
        # Reuse the sequential builder's validation.
        self._params = MultigramIndexBuilder(
            threshold=threshold,
            max_gram_len=max_gram_len,
            presuf=presuf,
            lengths_per_pass=lengths_per_pass,
        )
        self.workers = workers
        self.chunk_docs = chunk_docs

    # -- chunking ---------------------------------------------------------

    def _chunks(self, corpus: CorpusStore) -> List[List[DataUnit]]:
        n = len(corpus)
        if n == 0:
            return []
        per_chunk = self.chunk_docs or max(
            1, (n + 2 * self.workers - 1) // (2 * self.workers)
        )
        chunks: List[List[DataUnit]] = []
        current: List[DataUnit] = []
        for unit in corpus:
            current.append(unit)
            if len(current) == per_chunk:
                chunks.append(current)
                current = []
        if current:
            chunks.append(current)
        return chunks

    def _map(self, func, jobs):
        """Run map tasks inline or in a fork pool."""
        if self.workers == 1 or len(jobs) <= 1:
            return [func(*job) for job in jobs]
        ctx = get_context("fork")
        with ctx.Pool(processes=self.workers) as pool:
            return pool.starmap(func, jobs)

    # -- the build ----------------------------------------------------------

    def build(self, corpus: CorpusStore) -> GramIndex:
        started = time.perf_counter()
        params = self._params
        kind = "presuf" if params.presuf else "multigram"
        stats = IndexStats(
            kind=kind,
            n_docs=len(corpus),
            corpus_chars=corpus.total_chars,
        )
        keys = self.select_keys(corpus, stats)
        if params.presuf:
            keys = presuf_shell(keys)
        postings = self._build_postings(corpus, sorted(keys))
        stats.corpus_scans += 1
        index = GramIndex(
            postings,
            kind=kind,
            n_docs=len(corpus),
            threshold=params.threshold,
            max_gram_len=params.max_gram_len,
            stats=stats,
        )
        stats.fill_sizes(postings)
        stats.construction_seconds = time.perf_counter() - started
        return index

    def select_keys(self, corpus: CorpusStore, stats: IndexStats) -> Set[str]:
        """The Algorithm 3.1 loop with map-reduce counting passes."""
        params = self._params
        n_docs = len(corpus)
        if n_docs == 0:
            return set()
        max_count = params.threshold * n_docs
        chunks = self._chunks(corpus)
        text_chunks = [[u.text for u in chunk] for chunk in chunks]
        keys: Set[str] = set()
        expand: Set[str] = {""}
        k = 1
        while expand and k <= params.max_gram_len:
            lengths = list(range(
                k,
                min(k + params.lengths_per_pass, params.max_gram_len + 1),
            ))
            partials = self._map(
                _count_chunk,
                [(texts, expand, lengths) for texts in text_chunks],
            )
            counts: Dict[str, int] = {}
            for partial in partials:
                for gram, count in partial.items():
                    counts[gram] = counts.get(gram, 0) + count
            stats.corpus_scans += 1
            stats.pass_candidates.append(len(counts))
            for length in lengths:
                new_expand: Set[str] = set()
                for gram, count in counts.items():
                    if len(gram) != length or gram[:-1] not in expand:
                        continue
                    if count <= max_count:
                        keys.add(gram)
                    else:
                        new_expand.add(gram)
                expand = new_expand
            k = lengths[-1] + 1
        return keys

    def _build_postings(
        self, corpus: CorpusStore, keys: Sequence[str]
    ) -> Dict[str, PostingsList]:
        chunks = self._chunks(corpus)
        jobs = [
            ([(u.doc_id, u.text) for u in chunk], keys)
            for chunk in chunks
        ]
        partials = self._map(_postings_chunk, jobs)
        merged: Dict[str, List[int]] = {key: [] for key in keys}
        # Chunks are in doc-id order with disjoint ranges: concatenation
        # keeps each postings list strictly increasing.
        for partial in partials:
            for key, ids in partial.items():
                merged[key].extend(ids)
        return {
            key: PostingsList.from_sorted_ids(ids)
            for key, ids in merged.items()
        }


def build_multigram_index_parallel(
    corpus: CorpusStore,
    workers: int = 2,
    threshold: float = 0.1,
    max_gram_len: int = 10,
    presuf: bool = False,
) -> GramIndex:
    """One-call parallel builder (see :class:`ParallelMultigramBuilder`)."""
    return ParallelMultigramBuilder(
        threshold=threshold,
        max_gram_len=max_gram_len,
        presuf=presuf,
        workers=workers,
    ).build(corpus)
