"""The measured side of the in-process workloads.

Each workload runs in a child process of its own (``run.py --child
SPEC``) and reports its own peak RSS, so that ``peak_rss_mb`` is the
product's memory on that workload, not the fixture build's or the
oracle's.  The child drives
the product with its defaults only, records what came back, and leaves
judging it to the parent's oracle.

Two passes share the op loop:

* untraced (``--trace 0``): ``engine.search`` and nothing else inside
  the timed region — the end-to-end numbers;
* traced (``--trace 1``): per op, the undecomposed search, then the
  same op replayed step by step through each layer's public functions
  under harness spans, then ``search(trace=True)`` for the product's
  own tracing cost.
"""

from __future__ import annotations

import json
import os
import shutil
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.corpus.store import DiskCorpus
from repro.engine.executor import execute_plan
from repro.engine.factory import open_engine
from repro.engine.scan import ScanEngine
from repro.index.ingest import IngestDirectory
from repro.index.segmented import SegmentedFreeEngine
from repro.index.serialize import load_any_index
from repro.obs.trace import Trace
from repro.plan.logical import LogicalPlan
from repro.plan.physical import PAll, PAnd, PhysicalPlan, PLookup, POr
from repro.regex.matcher import Matcher
from repro.regex.parser import parse

from e2ebench.oracle import ids_crc, to_re
from e2ebench.serve import peak_rss_kb
from e2ebench.spans import SpanLog

Summary = Tuple[int, int, int]

#: ``ingest_live``: lines added between query bursts, queries per burst.
INGEST_BATCH = 32
INGEST_QUERIES = 3


def summarize(report: Any) -> Summary:
    """(matching units, matches, crc of the matching unit ids)."""
    ids: List[int] = []
    last = -1
    for match in report.matches:  # confirmed in ascending doc-id order
        if match.doc_id != last:
            ids.append(match.doc_id)
            last = match.doc_id
    return (report.matching_units, report.n_matches, ids_crc(ids))


class Recorder:
    """Per-op samples of the measured loop."""

    def __init__(self) -> None:
        self.samples: List[Dict[str, Any]] = []
        self.errors: List[str] = []

    def ok(self, p: int, latency: float, res: Summary, **extra: Any) -> None:
        sample = {"p": p, "lat": latency, "res": list(res)}
        sample.update(extra)
        self.samples.append(sample)

    def fail(
        self, p: int, started: float, exc: BaseException, **extra: Any
    ) -> None:
        """An op that raised is a failed op; its time still counts."""
        sample = {"p": p, "lat": perf_counter() - started, "res": None}
        sample.update(extra)
        self.samples.append(sample)
        if len(self.errors) < 20:
            self.errors.append(f"pattern {p}: {type(exc).__name__}: {exc}")

    def into(self, out: Dict[str, Any]) -> None:
        out["samples"] = self.samples
        out["errors"] = self.errors


def _cold_search(spec: Dict[str, Any], pattern: str, **kwargs: Any) -> Any:
    """The paper's Figure 9 one-shot: open, search, close."""
    corpus = DiskCorpus(spec["corpus_image"])
    try:
        engine = open_engine(corpus, spec["index_image"])
        try:
            return engine.search(pattern, **kwargs)
        finally:
            engine.close()
    finally:
        corpus.close()


def run_search(spec: Dict[str, Any]) -> Dict[str, Any]:
    """``web_cold`` (regime cold) and ``web_scan``/``log_warm`` (warm)."""
    patterns: List[str] = spec["patterns"]
    ops: List[int] = spec["ops"]
    cold = spec["regime"] == "cold"
    recorder = Recorder()
    out: Dict[str, Any] = {"warmup_s": 0.0}

    corpus = DiskCorpus(spec["corpus_image"])
    engine = open_engine(corpus, spec["index_image"])
    try:
        out["kernel"] = engine.kernel.name
        if not cold:
            started = perf_counter()
            for pattern in patterns:  # one lap: plan + matcher caches fill
                engine.search(pattern)
            out["warmup_s"] = perf_counter() - started
        out["cache_stats_start"] = engine.cache_stats()
        tracer = _Tracer(spec, engine, corpus) if spec["trace"] else None

        loop_started = perf_counter()
        deadline = loop_started + spec["seconds"]
        i = 0
        while True:
            p = ops[i % len(ops)]
            pattern = patterns[p]
            started = perf_counter()
            try:
                if cold:
                    report = _cold_search(spec, pattern)
                else:
                    report = engine.search(pattern)
                latency = perf_counter() - started
                recorder.ok(p, latency, summarize(report))
            except Exception as exc:
                report = None
                recorder.fail(p, started, exc)
            if tracer is not None and report is not None:
                tracer.after_op(i, pattern, report, latency)
            i += 1
            if perf_counter() >= deadline:
                break
        out["wall_s"] = perf_counter() - loop_started
        out["cache_stats"] = engine.cache_stats()
        if tracer is not None:
            out.update(tracer.finish(patterns))
    finally:
        engine.close()
        corpus.close()
    recorder.into(out)
    return out


class _Tracer:
    """The traced pass's extra work after each undecomposed op."""

    def __init__(self, spec: Dict[str, Any], engine: Any, corpus: Any):
        self.spec = spec
        self.cold = spec["regime"] == "cold"
        self.engine = engine
        self.corpus = corpus
        self.log = SpanLog()
        self.counters: Dict[str, float] = {}
        self.search_s = 0.0
        self.traced_search_s = 0.0
        self.n_ops = 0
        #: warm regime: what the engine's plan/matcher caches hold.
        self.compiled: Dict[str, Tuple[Matcher, Optional[PhysicalPlan]]] = {}

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def after_op(
        self, op: int, pattern: str, report: Any, search_s: float
    ) -> None:
        self.n_ops += 1
        self.search_s += search_s
        self.count("candidates", report.n_candidates)
        self.count("corpus_units", len(self.corpus))
        self.count("matching_units", report.matching_units)
        self.count("io_cost", report.io_cost)
        self.count("full_scans", 1 if report.used_full_scan else 0)
        self._replay(op, pattern)
        started = perf_counter()
        if self.cold:
            _cold_search(self.spec, pattern, trace=True)
        else:
            self.engine.search(pattern, trace=True)
        self.traced_search_s += perf_counter() - started

    def _replay(self, op: int, pattern: str) -> None:
        log = self.log
        engine = self.engine
        with log.span("op", op, pattern=pattern):
            if self.cold:
                with log.span("corpus.open", op):
                    corpus = DiskCorpus(self.spec["corpus_image"])
                with log.span("index.open", op):
                    index = load_any_index(self.spec["index_image"])
                with log.span("regex.compile", op):
                    matcher = Matcher(pattern)
                with log.span("plan.logical", op):
                    logical = LogicalPlan.from_pattern(pattern)
                with log.span("plan.physical", op):
                    physical = PhysicalPlan.compile(
                        logical, index, engine.cover_policy
                    )
            else:
                corpus, index = self.corpus, engine.index
                if pattern not in self.compiled:
                    self.compiled[pattern] = (
                        Matcher(pattern),
                        PhysicalPlan.compile(
                            LogicalPlan.from_pattern(pattern), index,
                            engine.cover_policy,
                        ),
                    )
                matcher, physical = self.compiled[pattern]
            try:
                self._replay_execute(op, corpus, index, matcher, physical)
            finally:
                if self.cold:
                    corpus.close()
        # Off the op's path: pieces of the spans above, timed alone.
        with log.span("breakdown", op):
            if self.cold:
                with log.span("regex.parse", op):
                    parse(pattern)
            if not physical.is_full_scan:
                keys = sorted(set(physical.lookups()))
                with log.span("index.lookup", op):
                    plists = {key: engine.index.lookup(key) for key in keys}
                with log.span("index.decode", op):
                    decoded = {k: pl.ids() for k, pl in plists.items()}
                with log.span("index.setops", op):
                    _setops(physical.root, decoded, engine.kernel)
                self.count("lookups", len(physical.lookups()))
                self.count("ids_decoded", sum(map(len, decoded.values())))

    def _replay_execute(
        self, op: int, corpus: Any, index: Any, matcher: Matcher,
        physical: PhysicalPlan,
    ) -> None:
        log = self.log
        candidates = None
        if not physical.is_full_scan:
            with log.span("engine.postings", op):
                candidates = execute_plan(
                    physical, index, kernel=self.engine.kernel
                )
        with log.span("corpus.fetch", op):
            if candidates is None:
                units = list(corpus)
            else:
                units = [corpus.get(doc_id) for doc_id in candidates]
        with log.span("regex.prefilter", op):
            survivors = [
                unit for unit in units
                if not matcher.prefilter_rejects(unit.text)
            ]
        with log.span("regex.match", op):
            for unit in survivors:
                for _span in matcher.finditer(unit.text):
                    pass
        self.count("fetch_bytes", sum(len(unit.text) for unit in units))
        self.count("prefilter_units", len(units))
        self.count("prefilter_rejected", len(units) - len(survivors))
        self.count("match_chars", sum(len(u.text) for u in survivors))

    def finish(self, patterns: List[str]) -> Dict[str, Any]:
        return {
            "spans": self.log.spans,
            "counters": self.counters,
            "traced_ops": self.n_ops,
            "search_s": self.search_s,
            "traced_search_s": self.traced_search_s,
            "baselines": self._baselines(patterns),
        }

    def _baselines(self, patterns: List[str]) -> Dict[str, List[float]]:
        """Scan and stdlib ``re`` on each distinct pattern, in the
        workload's regime (cold: compile inside the timed region)."""
        texts = [unit.text for unit in self.corpus]
        scan_s: List[float] = []
        re_s: List[float] = []
        warm_scan = ScanEngine(self.corpus)
        for pattern in patterns:
            if not self.cold:
                warm_scan.search(pattern)
                compiled = to_re(pattern)
            started = perf_counter()
            if self.cold:
                with ScanEngine(self.corpus) as scan:
                    scan.search(pattern)
            else:
                warm_scan.search(pattern)
            scan_s.append(perf_counter() - started)
            started = perf_counter()
            if self.cold:
                compiled = to_re(pattern)
            for text in texts:
                for _match in compiled.finditer(text):
                    pass
            re_s.append(perf_counter() - started)
        warm_scan.close()
        return {"scan_s": scan_s, "re_s": re_s}


def _setops(node: Any, decoded: Dict[str, List[int]], kernel: Any) -> Any:
    """The plan's AND/OR tree over already-decoded lists."""
    if isinstance(node, PLookup):
        return decoded[node.key]
    if isinstance(node, PAll):
        return None
    parts = [_setops(child, decoded, kernel) for child in node.children]
    if isinstance(node, PAnd):
        lists = [part for part in parts if part is not None]
        return kernel.intersect_many(lists) if lists else None
    if isinstance(node, POr):
        if any(part is None for part in parts):
            return None
        return kernel.union_many(parts)
    raise TypeError(f"unknown plan node {type(node).__name__}")


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def run_ingest(spec: Dict[str, Any]) -> Dict[str, Any]:
    """``ingest_live``: epochs of {add a batch; run queries} over the
    same lines, each into a fresh directory, until the time is up (the
    epoch under way is finished, so its counts are whole); then close
    the last directory, reopen it read-only and query every pattern
    again."""
    patterns: List[str] = spec["patterns"]
    lines: List[str] = spec["lines"]
    recorder = Recorder()
    log = SpanLog() if spec["trace"] else None
    out: Dict[str, Any] = {"warmups": [], "adds": [], "wall_s": 0.0}
    deadline = perf_counter() + spec["seconds"]
    epoch = 0
    while True:
        path = os.path.join(spec["ingest_dir"], f"epoch{epoch}")
        _ingest_epoch(spec, path, epoch, recorder, log, out)
        epoch += 1
        if perf_counter() >= deadline:
            break
        shutil.rmtree(path)
    out["epochs"] = epoch
    out["warmup_s"] = median(out.pop("warmups"))

    # Every acknowledged line must be searchable after a reopen.
    started = perf_counter()
    reopened = open_engine(None, path)
    try:
        out["reopen_s"] = perf_counter() - started
        for p, pattern in enumerate(patterns):
            started = perf_counter()
            try:
                report = reopened.search(pattern)
                recorder.ok(
                    p, perf_counter() - started, summarize(report),
                    at=len(lines), reopened=True,
                )
            except Exception as exc:
                recorder.fail(p, started, exc, reopened=True)
    finally:
        reopened.close()
    recorder.into(out)
    if log is not None:
        out["spans"] = log.spans
    return out


def _ingest_epoch(
    spec: Dict[str, Any], path: str, epoch: int, recorder: Recorder,
    log: Optional[SpanLog], out: Dict[str, Any],
) -> None:
    """One pass over the lines into a fresh default directory, read
    through a ``SegmentedFreeEngine`` over its live view."""
    patterns: List[str] = spec["patterns"]
    lines: List[str] = spec["lines"]
    add_s: List[float] = []
    directory = IngestDirectory(path)
    engine = SegmentedFreeEngine(
        directory.corpus, directory.index, owned=directory
    )
    try:
        out["kernel"] = engine.kernel.name
        started = perf_counter()
        for pattern in patterns:  # compile the matchers, as log_warm does
            engine.search(pattern)
        out["warmups"].append(perf_counter() - started)
        cache_start = engine.cache_stats()
        pos = 0
        epoch_started = perf_counter()
        for n_lines in range(0, len(lines), INGEST_BATCH):
            for line in lines[n_lines:n_lines + INGEST_BATCH]:
                started = perf_counter()
                if log is None:
                    directory.add(line)
                else:
                    _traced_add(log, directory, line, len(add_s))
                add_s.append(perf_counter() - started)
            for _ in range(INGEST_QUERIES):
                p = pos % len(patterns)
                started = perf_counter()
                try:
                    report = engine.search(patterns[p])
                    ended = perf_counter()
                    if log is not None:
                        log.add("engine.search", pos, started, ended)
                    recorder.ok(
                        p, ended - started, summarize(report),
                        at=len(add_s),
                    )
                except Exception as exc:
                    recorder.fail(p, started, exc)
                pos += 1
        out["wall_s"] += perf_counter() - epoch_started
        out["adds"].append(add_s)
        if epoch == 0:  # exact counts: every epoch repeats them
            out["cache_stats_start"] = cache_start
            out["cache_stats"] = engine.cache_stats()
            out["ingest"] = dict(directory.stats())
            out["counts"] = {
                "lines": len(add_s),
                "text_bytes": sum(map(len, lines)),
                "wal_bytes": os.path.getsize(
                    os.path.join(path, "wal.jsonl")
                ),
                "image_bytes_written": directory.disk.write_chars,
                "dir_bytes": _dir_bytes(path),
            }
    finally:
        engine.close()  # closes the directory it owns


def _traced_add(
    log: SpanLog, directory: IngestDirectory, line: str, op: int
) -> None:
    """One ``add`` under a harness span.  Seals and merges run inside
    ``add``, so their split comes from the product's own ``trace=``
    argument, copied under the add's span."""
    trace = Trace(clock=perf_counter)
    with log.span("index.ingest_add", op):
        directory.add(line, trace=trace)
        for name in ("ingest_seal", "ingest_merge"):
            for inner in trace.find(name):
                log.add(f"index.{name}", op, inner.started, inner.ended)


def child_main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as infile:
        spec = json.load(infile)
    runner = run_ingest if spec["regime"] == "ingest" else run_search
    result = runner(spec)
    result["peak_rss_kb"] = peak_rss_kb()
    with open(spec["result_path"], "w", encoding="utf-8") as out:
        json.dump(result, out)
    return 0
