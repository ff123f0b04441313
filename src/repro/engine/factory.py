"""Open an index image and wrap it in the matching engine.

The CLI, the benchmarks and the ``free serve`` service all need the
same dispatch: a FREESHRD image gets a
:class:`~repro.engine.sharded.ShardedFreeEngine`, a segmented (ingest)
index a :class:`~repro.index.segmented.SegmentedFreeEngine`, anything
else a plain :class:`~repro.engine.free.FreeEngine`.  Keeping the
dispatch here guarantees every entry point serves identical results for
identical images — the serve differential tests compare the HTTP
payload against an engine built through this same factory.

``open_engine`` also accepts an **ingest directory** (as written by
``free ingest`` / :class:`~repro.index.ingest.IngestDirectory`) in
place of an image path: the directory is opened read-only, supplies its
own live corpus, and is closed with the engine.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.corpus.store import CorpusStore
from repro.engine.free import FreeEngine
from repro.engine.sharded import ShardedFreeEngine
from repro.errors import IngestError
from repro.index.multigram import GramIndex
from repro.index.segmented import SegmentedFreeEngine, SegmentedGramIndex
from repro.index.serialize import load_any_index
from repro.index.sharded import ShardedIndex
from repro.obs.registry import MetricsRegistry

AnyIndex = Union[GramIndex, ShardedIndex, SegmentedGramIndex]


def wrap_index(
    corpus: CorpusStore,
    index: AnyIndex,
    workers: int = 1,
    registry: Optional[MetricsRegistry] = None,
    plan_cache_size: int = 128,
    candidate_cache_size: int = 0,
    matcher_cache_size: int = 128,
) -> FreeEngine:
    """Wrap an already-loaded index in the right engine kind.

    ``workers`` only applies to sharded images (per-shard fan-out);
    single-index images ignore it.  The service layer loads one index
    and calls this once per worker thread with that shared object.
    """
    if isinstance(index, ShardedIndex):
        return ShardedFreeEngine(
            corpus,
            index,
            workers=workers,
            registry=registry,
            plan_cache_size=plan_cache_size,
            candidate_cache_size=candidate_cache_size,
            matcher_cache_size=matcher_cache_size,
        )
    if isinstance(index, SegmentedGramIndex):
        return SegmentedFreeEngine(
            corpus,
            index,
            registry=registry,
            plan_cache_size=plan_cache_size,
            candidate_cache_size=candidate_cache_size,
            matcher_cache_size=matcher_cache_size,
        )
    return FreeEngine(
        corpus,
        index,
        registry=registry,
        plan_cache_size=plan_cache_size,
        candidate_cache_size=candidate_cache_size,
        matcher_cache_size=matcher_cache_size,
    )


def open_ingest_engine(
    path: str,
    registry: Optional[MetricsRegistry] = None,
    plan_cache_size: int = 128,
    candidate_cache_size: int = 0,
    matcher_cache_size: int = 128,
    read_only: bool = True,
) -> SegmentedFreeEngine:
    """Open an ingest directory and wrap its live view in an engine.

    The directory supplies both the corpus (exactly the surviving
    documents) and the segmented index; the engine owns the directory
    handle and closes it on ``engine.close()``.
    """
    from repro.index.ingest import IngestDirectory

    directory = IngestDirectory(
        path, create=False, read_only=read_only, registry=registry,
    )
    return SegmentedFreeEngine(
        directory.corpus,
        directory.index,
        registry=registry,
        plan_cache_size=plan_cache_size,
        candidate_cache_size=candidate_cache_size,
        matcher_cache_size=matcher_cache_size,
        owned=directory,
    )


def open_engine(
    corpus: Optional[CorpusStore],
    index_path: str,
    workers: int = 1,
    registry: Optional[MetricsRegistry] = None,
    plan_cache_size: int = 128,
    candidate_cache_size: int = 0,
    matcher_cache_size: int = 128,
) -> FreeEngine:
    """Load either index image kind — or an ingest directory — and wrap
    it in the right engine.

    For image paths ``corpus`` is required (images carry no document
    text).  For ingest directories pass ``corpus=None``: the directory
    holds exactly the live documents itself.
    """
    if os.path.isdir(index_path):
        return open_ingest_engine(
            index_path,
            registry=registry,
            plan_cache_size=plan_cache_size,
            candidate_cache_size=candidate_cache_size,
            matcher_cache_size=matcher_cache_size,
        )
    if corpus is None:
        raise IngestError(
            f"{index_path!r} is an index image: a corpus is required "
            "(only ingest directories carry their own documents)"
        )
    return wrap_index(
        corpus,
        load_any_index(index_path),
        workers=workers,
        registry=registry,
        plan_cache_size=plan_cache_size,
        candidate_cache_size=candidate_cache_size,
        matcher_cache_size=matcher_cache_size,
    )
