"""The data unit: the granularity at which the corpus is indexed.

"By a *data unit*, we mean the unit in which the raw data is
partitioned.  This can be a web page (in the case of a web search
engine), a paragraph or a page (in the case of a document corpus)."
— Section 3.1.  FREE's postings lists point at data units, and the
confirmation step re-reads whole data units.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DataUnit:
    """One indexable unit of text (a web page in this reproduction).

    Attributes:
        doc_id: dense, zero-based identifier; postings refer to this.
        text: the page content.
        url: provenance (informational; empty for ad-hoc units).
    """

    doc_id: int
    text: str
    url: str = ""

    def __post_init__(self):
        if self.doc_id < 0:
            raise ValueError(f"doc_id must be >= 0, got {self.doc_id}")

    def __len__(self) -> int:
        return len(self.text)

    @property
    def size(self) -> int:
        """Length of the unit in characters (the |T_i| of Obs. 3.8)."""
        return len(self.text)
