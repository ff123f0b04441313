"""The Complete baseline: n-gram indexes for every n in a range.

Section 5.2 builds "nine n-gram indexes for n = 2, 3, ..., 10" as the
*optimal* comparison point — any substring of a regex (up to length 10)
can be looked up.  We materialize the union of those nine indexes as a
single :class:`~repro.index.multigram.GramIndex` whose key set is every
distinct gram of each length; the per-length split is recoverable from
``stats.keys_by_length``.

Beware of scale: the complete index's key count grows with the corpus
roughly linearly (Table 3: 103M keys on the paper's 4.5 GB), which is
exactly the cost the multigram index exists to avoid.  ``max_keys``
guards interactive use against runaway memory.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set

from repro.corpus.store import CorpusStore
from repro.errors import IndexBuildError
from repro.index.multigram import GramIndex
from repro.index.postings import PostingsList
from repro.index.stats import IndexStats


def build_complete_index(
    corpus: CorpusStore,
    k_values: Sequence[int] = tuple(range(2, 11)),
    max_keys: Optional[int] = 20_000_000,
) -> GramIndex:
    """Build the union of complete k-gram indexes for ``k_values``.

    Args:
        corpus: the data units to index.
        k_values: gram lengths (the paper uses 2..10).
        max_keys: safety valve; raise IndexBuildError beyond it
            (None disables the check).
    """
    if not k_values:
        raise IndexBuildError("k_values must be non-empty")
    if any(k < 1 for k in k_values):
        raise IndexBuildError("k-gram lengths must be >= 1")
    started = time.perf_counter()
    ks = sorted(set(k_values))
    max_k = ks[-1]
    acc: Dict[str, List[int]] = {}
    for unit in corpus:
        text = unit.text
        n = len(text)
        doc_grams: Set[str] = set()
        for i in range(n):
            window = text[i : i + max_k]
            for k in ks:
                if k > len(window):
                    break
                doc_grams.add(window[:k])
        doc_id = unit.doc_id
        for gram in doc_grams:
            ids = acc.get(gram)
            if ids is None:
                acc[gram] = [doc_id]
            else:
                ids.append(doc_id)
        if max_keys is not None and len(acc) > max_keys:
            raise IndexBuildError(
                f"complete index exceeded max_keys={max_keys}; "
                "use a smaller corpus or fewer k values"
            )
    postings = {
        gram: PostingsList.from_sorted_ids(ids) for gram, ids in acc.items()
    }
    stats = IndexStats(
        kind="complete",
        n_docs=len(corpus),
        corpus_chars=corpus.total_chars,
    )
    stats.corpus_scans = 1
    index = GramIndex(
        postings,
        kind="complete",
        n_docs=len(corpus),
        threshold=None,
        max_gram_len=max_k,
        stats=stats,
    )
    stats.fill_sizes(postings)
    stats.construction_seconds = time.perf_counter() - started
    return index
