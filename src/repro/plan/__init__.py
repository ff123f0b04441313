"""Query compilation: regex -> logical access plan -> physical plan.

- :mod:`repro.plan.logical` — Figure 5: OR/STAR rewrite, parse tree,
  STAR -> NULL, Table 2 NULL elimination (S11);
- :mod:`repro.plan.physical` — Section 4.3: adjust the logical plan to
  the keys actually present in an index (S12);
- :mod:`repro.plan.cost` — selectivity estimation and cover-choice
  policies (the optimization the paper defers to future work) (S13).
"""

from __future__ import annotations

from repro.plan.logical import LogicalPlan
from repro.plan.physical import CompiledPlans, PhysicalPlan, CoverPolicy
from repro.plan.sampling import SampledSelectivityEstimator

__all__ = [
    "CompiledPlans",
    "LogicalPlan",
    "PhysicalPlan",
    "CoverPolicy",
    "SampledSelectivityEstimator",
]
