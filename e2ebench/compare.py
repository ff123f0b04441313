"""``python -m e2ebench compare``: two sets of runs, metric by metric.

One row per workload x end-to-end metric: the base side's median, the
new side's median, the change, the bound and a verdict —

* ``regressed``: the new median is worse than the base median by more
  than the metric's bound;
* ``unresolved``: the base side's own run-to-run spread is wider than
  the bound, so a change of that size cannot be told from noise —
  unless every new run reads better than every base run;
* ``ok`` otherwise.

Each side may be several ``OUT.json`` files (medians are compared).
"""

from __future__ import annotations

import json
from statistics import median, quantiles
from typing import Any, Dict, List, Sequence, Tuple

from e2ebench.metrics import END_TO_END

#: ``error_rate`` rides along in OUT.json with a bound of zero.
_ROWS: Sequence[Tuple[str, str, str, float]] = tuple(END_TO_END) + (
    ("error_rate", "ratio", "lower", 0.0),
)


def _values(
    runs: Sequence[Dict[str, Any]], workload: str, metric: str
) -> List[float]:
    return [
        run["workloads"][workload]["end_to_end"][metric]["value"]
        for run in runs
    ]


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance with four or more runs, the full range with fewer."""
    centre = median(values)
    if len(values) < 2 or not centre:
        return 0.0
    if len(values) >= 4:
        quartiles = quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(centre)
    return (max(values) - min(values)) / abs(centre)


def judge(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    base_mid, new_mid = median(base), median(new)
    if better == "lower":
        worse_by = new_mid - base_mid
        all_better = max(new) < min(base)
    else:
        worse_by = base_mid - new_mid
        all_better = min(new) > max(base)
    if bound > 0 and spread(base) > bound and not all_better:
        return "unresolved"
    return "regressed" if worse_by > bound * abs(base_mid) else "ok"


def compare(
    base_runs: Sequence[Dict[str, Any]], new_runs: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    rows = []
    names = list(base_runs[0]["workloads"])
    for run in list(base_runs) + list(new_runs):
        if list(run["workloads"]) != names:
            raise ValueError(
                "compare: the results do not hold the same workloads"
            )
    for workload in names:
        for metric, unit, better, bound in _ROWS:
            base = _values(base_runs, workload, metric)
            new = _values(new_runs, workload, metric)
            base_mid, new_mid = median(base), median(new)
            rows.append({
                "workload": workload, "metric": metric, "unit": unit,
                "base": base_mid, "new": new_mid,
                "delta_pct": (
                    (new_mid - base_mid) / abs(base_mid) * 100
                    if base_mid else 0.0
                ),
                "bound_pct": bound * 100,
                "base_spread_pct": spread(base) * 100,
                "verdict": judge(base, new, better, bound),
            })
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<12} {'metric':<28} {'base':>12} {'new':>12} "
        f"{'delta%':>8} {'bound%':>7} {'spread%':>8} verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<12} {row['metric']:<28} {row['base']:>12.4f} "
            f"{row['new']:>12.4f} {row['delta_pct']:>+8.2f} "
            f"{row['bound_pct']:>7.1f} {row['base_spread_pct']:>8.2f} "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as infile:
            runs.append(json.load(infile))
    return runs


def main(base_paths: Sequence[str], new_paths: Sequence[str]) -> int:
    try:
        rows = compare(load(base_paths), load(new_paths))
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(render(rows))
    bad = [row for row in rows if row["verdict"] != "ok"]
    print(
        f"{len(rows)} rows: {len(rows) - len(bad)} ok, "
        f"{sum(r['verdict'] == 'regressed' for r in bad)} regressed, "
        f"{sum(r['verdict'] == 'unresolved' for r in bad)} unresolved"
    )
    return 1 if bad else 0
