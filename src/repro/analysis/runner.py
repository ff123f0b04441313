"""Orchestration for ``free check``: run analyzer families, merge reports.

The pre-deploy gate: load a (serialized or in-memory) index, statically
verify its structural invariants, compile the benchmark query set (or
user-supplied patterns) against it and prove every physical plan is a
sound weakening of its logical plan, and optionally lint the source
tree — all without executing a single query.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis import conc_checks, res_checks
from repro.analysis.build_checks import check_build_report
from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.index_checks import (
    check_gram_index,
    check_ingest_directory,
    check_segmented_index,
    check_sharded_index,
)
from repro.analysis.lint import _iter_python_files, _suppressed, lint_paths
from repro.analysis.plan_checks import check_plan_pair
from repro.bench.queries import BENCHMARK_QUERIES
from repro.errors import AnalysisError
from repro.index.multigram import GramIndex
from repro.index.segmented import SegmentedGramIndex
from repro.index.sharded import ShardedIndex
from repro.obs.buildreport import BuildReport, default_report_path
from repro.plan.logical import LogicalPlan
from repro.plan.physical import CoverPolicy, PhysicalPlan


def default_lint_root() -> str:
    """The installed ``repro`` package directory (what ``--lint`` scans)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def collect_rules() -> Dict[str, str]:
    """Every registered rule code -> one-line description.

    Feeds SARIF tool metadata and the docs' rule tables; spans the
    lint (FREE), concurrency (CONC) and lifecycle (RES) registries.
    """
    from repro.analysis.lint import RULES as lint_rules

    merged = dict(lint_rules)
    merged.update(conc_checks.RULES)
    merged.update(res_checks.RULES)
    return merged


def check_concurrency_paths(
    paths: Sequence[str],
) -> Tuple[List[Finding], Dict[str, List[str]]]:
    """Run the CONC/RES rule families over ``.py`` files under paths.

    Returns unsuppressed findings plus per-file justification lines
    (same contract as the plan analyzer's PLAN00x justifications); a
    ``# noqa``-suppressed finding drops its justification with it.
    Unreadable files and syntax errors raise
    :class:`~repro.errors.AnalysisError`, same as the lint family.
    """
    findings: List[Finding] = []
    justifications: Dict[str, List[str]] = {}
    for filename in _iter_python_files(paths):
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise AnalysisError(
                f"cannot read {filename!r}: {exc}"
            ) from exc
        lines = source.splitlines()
        hits = conc_checks.check_source(source, filename)
        hits += res_checks.check_source(source, filename)
        kept = [
            (finding, justification)
            for finding, justification in hits
            if not _suppressed(finding, lines)
        ]
        if kept:
            findings.extend(finding for finding, _ in kept)
            justifications[filename] = [
                justification.render() for _, justification in kept
            ]
    return findings, justifications


def run_check(
    index: Optional[
        Union[GramIndex, SegmentedGramIndex, str]
    ] = None,
    patterns: Optional[Sequence[str]] = None,
    lint: bool = False,
    lint_root: Optional[str] = None,
    policy: Union[CoverPolicy, str] = CoverPolicy.ALL,
    corpus_chars: Optional[int] = None,
    build_report: Optional[Union[BuildReport, str]] = None,
    concurrency: bool = False,
    concurrency_root: Optional[str] = None,
) -> AnalysisReport:
    """Run the requested analyzer families and return one merged report.

    Args:
        index: a built index, a segmented or sharded index, or a path
            to a serialized index image (single-index ``FREEIDX1`` or
            sharded ``FREESHRD``); None skips index and plan analysis.
        patterns: regexes whose plan pairs to verify against ``index``;
            defaults to the ten benchmark queries of Figure 8 when an
            index is present.  An explicit empty sequence skips plan
            analysis.
        lint: run the FREE lint rules.
        lint_root: directory/file to lint (default: the installed
            ``repro`` package).
        policy: cover policy used when compiling physical plans.
        corpus_chars: corpus size for the Observation 3.8 bound
            (default: whatever the index's stats recorded).
        build_report: a :class:`BuildReport` (or path to its JSON) to
            cross-validate against the index; when ``index`` is an
            image path, ``<image>.build.json`` is auto-discovered.
        concurrency: run the CONC/RES concurrency & lifecycle rules
            (the CFG/dataflow analyzer).
        concurrency_root: directory/file the concurrency pass scans
            (default: ``lint_root``, else the installed ``repro``
            package).
    """
    report = AnalysisReport()
    if index is None and not lint and not concurrency:
        raise AnalysisError(
            "nothing to check: supply an index and/or enable lint "
            "or the concurrency pass"
        )

    if index is not None:
        if build_report is None and isinstance(index, str):
            candidate = default_report_path(index)
            if os.path.exists(candidate):
                build_report = candidate
        index = _resolve_index(index)
        report.begin_section("index invariants")
        from repro.index.ingest import IngestDirectory

        if isinstance(index, IngestDirectory):
            report.extend(check_ingest_directory(index))
            index = index.index  # plan checks run over the mounted view
        elif isinstance(index, ShardedIndex):
            report.extend(check_sharded_index(index, corpus_chars))
        elif isinstance(index, SegmentedGramIndex):
            report.extend(check_segmented_index(index, corpus_chars))
        else:
            report.extend(check_gram_index(index, corpus_chars))
        if build_report is not None and isinstance(index, GramIndex):
            report.begin_section("build report")
            report.extend(check_build_report(build_report, index))
        _check_plans(report, index, patterns, policy)

    if lint:
        report.begin_section("lint")
        root = lint_root if lint_root is not None else default_lint_root()
        report.extend(lint_paths([root]))

    if concurrency:
        report.begin_section("concurrency & lifecycle")
        root = (
            concurrency_root
            if concurrency_root is not None
            else (lint_root if lint_root is not None
                  else default_lint_root())
        )
        conc_findings, conc_justifications = check_concurrency_paths(
            [root]
        )
        report.extend(conc_findings)
        report.justifications.update(conc_justifications)
    return report


def _resolve_index(
    index: Union[GramIndex, SegmentedGramIndex, str],
) -> Union[GramIndex, SegmentedGramIndex, "object"]:
    if isinstance(index, (GramIndex, SegmentedGramIndex)):
        return index
    if os.path.isdir(index):
        # An ingest directory: open read-only (no WAL handle taken, no
        # mutation possible) so the check can run next to a writer.
        from repro.index.ingest import IngestDirectory

        return IngestDirectory(index, create=False, read_only=True)
    from repro.index.serialize import load_any_index

    return load_any_index(index)


def _check_plans(
    report: AnalysisReport,
    index: Union[GramIndex, SegmentedGramIndex],
    patterns: Optional[Sequence[str]],
    policy: Union[CoverPolicy, str],
) -> None:
    if patterns is None:
        patterns = list(BENCHMARK_QUERIES.values())
    if not patterns:
        return
    report.begin_section("plan soundness")
    policy = CoverPolicy(policy)
    if isinstance(index, SegmentedGramIndex):
        targets: List[GramIndex] = [
            segment.index for segment in index.segments
        ]
        part_name = (
            "shard" if isinstance(index, ShardedIndex) else "segment"
        )
    else:
        targets = [index]
        part_name = ""
    for pattern in patterns:
        logical = LogicalPlan.from_pattern(pattern)
        for position, target in enumerate(targets):
            physical = PhysicalPlan.compile(logical, target, policy)
            findings, justifications = check_plan_pair(
                logical, physical, target
            )
            report.extend(findings)
            subject = pattern if len(targets) == 1 else (
                f"{pattern} @ {part_name}[{position}]"
            )
            report.justifications[subject] = [
                step.render() for step in justifications
            ]
