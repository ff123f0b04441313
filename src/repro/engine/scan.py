"""ScanEngine: the grep/awk-style full-scan baseline (Section 5's "Scan").

A thin subclass of :class:`~repro.engine.free.FreeEngine` with no index
attached — every query reads the whole corpus sequentially and runs the
automaton matcher (with its anchoring literal prefilter, which is also
what makes real grep fast on literal-bearing patterns).  Keeping the
code path shared guarantees the baseline and the indexed engine use the
*same* matcher, so measured differences come from the index alone.
"""

from __future__ import annotations

from typing import Optional

from repro.corpus.store import CorpusStore
from repro.engine.free import FreeEngine
from repro.iomodel.diskmodel import DiskModel


class ScanEngine(FreeEngine):
    """Full-corpus sequential scanning, no index."""

    def __init__(
        self,
        corpus: CorpusStore,
        disk: Optional[DiskModel] = None,
    ):
        super().__init__(corpus, index=None, disk=disk)
