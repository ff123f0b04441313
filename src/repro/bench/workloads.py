"""Standard benchmark workloads, built once and shared.

Every benchmark module needs the same expensive artifacts — a corpus and
the three index flavours of Section 5.2 — so :func:`default_workload`
memoizes them per configuration.  Scale is a parameter; the default
(1,200 pages, ~2 MB) keeps the Complete index tractable on a laptop
while preserving every qualitative result (the paper's corpus is 4.5 GB;
see DESIGN.md's substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.corpus.store import InMemoryCorpus
from repro.corpus.synthesis import build_corpus
from repro.engine.free import FreeEngine
from repro.engine.scan import ScanEngine
from repro.index.builder import build_multigram_index
from repro.index.kgram import build_complete_index
from repro.index.multigram import GramIndex
from repro.iomodel.diskmodel import DiskModel

#: Default experiment scale (pages) and the paper's parameters.
DEFAULT_PAGES = 1200
DEFAULT_SEED = 20020226  # ICDE 2002
DEFAULT_THRESHOLD = 0.1
DEFAULT_MAX_GRAM = 10
#: Complete-index gram lengths: the paper uses 2..10; 2..8 keeps the
#: in-memory baseline affordable and changes no benchmark lookup (no
#: benchmark plan needs a gram longer than 8 once covers apply).
DEFAULT_COMPLETE_KS = tuple(range(2, 9))


@dataclass
class Workload:
    """A corpus plus the three Section 5.2 indexes and engines."""

    corpus: InMemoryCorpus
    multigram: GramIndex
    presuf: GramIndex
    complete: GramIndex
    threshold: float
    seed: int

    def engines(self) -> Dict[str, FreeEngine]:
        """Fresh engines (each with its own DiskModel) per call."""
        return {
            "scan": ScanEngine(self.corpus, disk=DiskModel()),
            "multigram": FreeEngine(
                self.corpus, self.multigram, disk=DiskModel()
            ),
            "complete": FreeEngine(
                self.corpus, self.complete, disk=DiskModel()
            ),
            "presuf": FreeEngine(self.corpus, self.presuf, disk=DiskModel()),
        }


_CACHE: Dict[Tuple, Workload] = {}


def default_workload(
    n_pages: int = DEFAULT_PAGES,
    seed: int = DEFAULT_SEED,
    threshold: float = DEFAULT_THRESHOLD,
    max_gram_len: int = DEFAULT_MAX_GRAM,
    complete_ks: Tuple[int, ...] = DEFAULT_COMPLETE_KS,
) -> Workload:
    """Build (or fetch) the standard workload for these parameters."""
    key = (n_pages, seed, threshold, max_gram_len, tuple(complete_ks))
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    corpus = build_corpus(n_pages=n_pages, seed=seed)
    workload = Workload(
        corpus=corpus,
        multigram=build_multigram_index(
            corpus, threshold=threshold, max_gram_len=max_gram_len
        ),
        presuf=build_multigram_index(
            corpus,
            threshold=threshold,
            max_gram_len=max_gram_len,
            presuf=True,
        ),
        complete=build_complete_index(corpus, k_values=complete_ks),
        threshold=threshold,
        seed=seed,
    )
    _CACHE[key] = workload
    return workload
