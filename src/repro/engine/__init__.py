"""Runtime matching engine (Figure 3): plan execution + confirmation.

- :mod:`repro.engine.executor` — evaluate a physical plan into a
  candidate data-unit set (S14);
- :mod:`repro.engine.free` — :class:`FreeEngine`, the end-to-end
  query path: parse -> plan -> candidates -> confirm (S14);
- :mod:`repro.engine.scan` — :class:`ScanEngine`, the grep-style full
  scan baseline (S15);
- :mod:`repro.engine.results` — match records, search reports, and
  frequency-ranked answer strings (S17, Example 1.2).
"""

from __future__ import annotations

from repro.engine.free import FreeEngine
from repro.engine.results import Match, SearchReport, frequency_ranked
from repro.engine.scan import ScanEngine

__all__ = [
    "FreeEngine",
    "ScanEngine",
    "Match",
    "SearchReport",
    "frequency_ranked",
]
