"""One benchmark run of one workload: set up, measure, verify, report.

The parent process (this file) builds the fixture, hands a child
process its inputs, and afterwards judges what the child recorded
against the oracle — so set-up, measurement and verification each have
their own clock, and the child's peak RSS is the product's memory on
the workload alone.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.corpus import (
    CorpusConfig,
    DataUnit,
    DiskCorpus,
    InMemoryCorpus,
    SyntheticWeb,
)
from repro.corpus.synthesis import DEFAULT_FEATURES
from repro.index import build_multigram_index, save_index

from e2ebench import gen, metrics, oracle, workloads
from e2ebench.serve import run_serve
from e2ebench.workloads import Sizes, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".e2ebench_work")
#: A measured phase that has not ended by now never will.
CHILD_TIMEOUT_S = 120.0


def refuse_free_env() -> None:
    """The product runs with its defaults: no ``FREE_*`` overrides."""
    names = sorted(name for name in os.environ if name.startswith("FREE_"))
    if names:
        raise SystemExit(
            "e2ebench drives the product with its defaults only; unset "
            + ", ".join(names)
        )


#: Mean size of a ``SyntheticWeb`` page; with ``Sizes.web_pages`` it
#: fixes the web corpus's size in characters.
WEB_PAGE_CHARS = 1650


def web_corpus(seed: int, n_pages: int) -> InMemoryCorpus:
    """A stretch of the product's synthetic web, the draw's luck removed.

    The seed picks which pages of one fixed ``SyntheticWeb`` (one
    vocabulary) the corpus is cut from, and which of them carry the
    Figure 8 features.  Left to itself ``SyntheticWeb`` plants each
    feature per page with a small probability, so at a few hundred
    pages one seed has three ``sigmod`` pages and the next none, and
    page sizes add up differently.  Here every feature lands on exactly
    ``round(p * n_pages)`` pages (at least one), and background pages
    are added until the corpus reaches a fixed size, so what a query
    costs depends on the code and not on the draw.
    """
    rng = random.Random(f"e2ebench-web:{seed}")
    base = CorpusConfig(n_pages=n_pages)
    planted: Dict[int, List[str]] = {}
    for feature, prob in DEFAULT_FEATURES.items():
        quota = max(1, round(prob * n_pages))
        for doc_id in rng.sample(range(n_pages * 3 // 4), quota):
            planted.setdefault(doc_id, []).append(feature)
    web = SyntheticWeb(base)
    first_page = rng.randrange(10 ** 6)
    units: List[DataUnit] = []
    n_chars = 0
    while n_chars < n_pages * WEB_PAGE_CHARS:
        doc_id = len(units)
        here = planted.get(doc_id, ())
        web.config = replace(base, feature_probs={
            feature: 1.0 if feature in here else 0.0
            for feature in DEFAULT_FEATURES
        })
        page = web.page(first_page + doc_id)
        units.append(DataUnit(doc_id, page.text, page.url))
        n_chars += len(page.text)
    return InMemoryCorpus(units)


def build_fixture(
    kind: str, seed: int, sizes: Sizes, workdir: str
) -> Dict[str, Any]:
    """Synthesize the corpus, run Algorithm 3.1, save both images."""
    started = perf_counter()
    if kind == "web":
        corpus = web_corpus(seed, sizes.web_pages)
    else:
        corpus = InMemoryCorpus.from_texts(
            gen.log_lines(seed, sizes.log_lines)
        )
    synthesized = perf_counter()
    index = build_multigram_index(corpus, threshold=0.1, max_gram_len=10)
    built = perf_counter()
    corpus_image = os.path.join(workdir, f"{kind}.img")
    index_image = os.path.join(workdir, f"{kind}.idx")
    save_index(index, index_image)
    DiskCorpus.save(corpus_image, corpus)
    saved = perf_counter()
    texts = [unit.text for unit in corpus]
    return {
        "corpus_image": corpus_image,
        "index_image": index_image,
        "texts": texts,
        "docs": len(texts),
        "text_bytes": sum(map(len, texts)),
        "image_bytes": (
            os.path.getsize(corpus_image) + os.path.getsize(index_image)
        ),
        "synth_s": synthesized - started,
        "build_s": built - synthesized,
        "save_s": saved - built,
        "keys": len(index),
        "postings": index.stats.n_postings,
    }


def _run_child(spec: Dict[str, Any], workdir: str) -> Dict[str, Any]:
    """Run the measured phase in a child; returns what it recorded."""
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as out:
        json.dump(spec, out)
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
         "--child", spec_path],
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    with open(spec["result_path"], encoding="utf-8") as infile:
        return json.load(infile)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
    spans_out: Optional[str] = None,
) -> Dict[str, Any]:
    """One run.  Returns ``{"line": <the contract's result object>,
    "detail": <everything else worth keeping>}``."""
    refuse_free_env()
    workload = workloads.WORKLOADS[name]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        return _run(workload, seed, seconds, trace, sizes, workdir, spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may be using it
            os.rmdir(WORK_ROOT)


def _set_up(
    workload: Workload, seed: int, sizes: Sizes, workdir: str
) -> Dict[str, Any]:
    """Generate the inputs and build the fixture, timing both."""
    started = perf_counter()
    inputs = workloads.prepare(workload.name, seed, sizes)
    if workload.fixture:
        fixture = build_fixture(workload.fixture, seed, sizes, workdir)
    else:
        fixture = {"texts": inputs["lines"]}
    fixture["inputs"] = inputs
    fixture["setup_s"] = perf_counter() - started
    return fixture


def _run(
    workload: Workload, seed: int, seconds: float, trace: bool, sizes: Sizes,
    workdir: str, spans_out: Optional[str],
) -> Dict[str, Any]:
    fixture = _set_up(workload, seed, sizes, workdir)
    inputs = fixture["inputs"]

    spec: Dict[str, Any] = {
        "regime": workload.regime,
        "trace": trace,
        "seconds": seconds,
        "patterns": inputs["patterns"],
        "ops": inputs["ops"],
        "result_path": os.path.join(workdir, "result.json"),
        "corpus_image": fixture.get("corpus_image"),
        "index_image": fixture.get("index_image"),
        "serve_warmup": sizes.serve_warmup,
    }
    if workload.regime == "ingest":
        spec.update(
            lines=inputs["lines"],
            ingest_dir=os.path.join(workdir, "ingest"),
        )
    if workload.regime == "serve":
        result = run_serve(spec, SRC)
    else:
        result = _run_child(spec, workdir)

    started = perf_counter()
    samples = result["samples"]
    failed = oracle.count_failures(
        samples, inputs["patterns"], fixture["texts"]
    )
    verify_s = perf_counter() - started

    measured = [s for s in samples if not s.get("reopened")]
    end_to_end = _end_to_end(workload, fixture, result, measured)
    if trace:
        values = metrics.per_layer(workload.regime, result, fixture)
        declared = [(n, u) for n, u, _b in metrics.PER_LAYER]
    else:
        values = end_to_end
        declared = [(n, u) for n, u, _b, _bound in metrics.END_TO_END]
    line = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared
        },
    }
    if spans_out and "spans" in result:
        with open(spans_out, "w", encoding="utf-8") as out:
            json.dump(result["spans"], out)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "kernel": result["kernel"],
        "samples": len(measured),
        "wall_s": result["wall_s"],
        "error_rate": failed / len(samples),
        "errors": result["errors"],
        "verify_s": verify_s,
        "end_to_end": end_to_end,
        "sha256": gen.describe({
            "corpus": fixture["texts"],
            "patterns": inputs["patterns"],
            "ops": inputs["ops"],
        }),
        "sizes": {
            key: fixture[key]
            for key in ("docs", "text_bytes", "image_bytes", "keys",
                        "postings")
            if key in fixture
        },
    }
    for key in ("ingest", "counts", "epochs", "vars"):
        if key in result:
            detail[key] = result[key]
    return {"line": line, "detail": detail}


def _end_to_end(
    workload: Workload, fixture: Dict[str, Any], result: Dict[str, Any],
    measured: List[Dict[str, Any]],
) -> Dict[str, float]:
    """Every op counts as it ran: pauses, cache misses and jitter are in
    the percentiles, and throughput is against the wall clock."""
    latencies = [s["lat"] for s in measured]
    if workload.regime == "ingest":
        counts = result["counts"]
        stored = counts["dir_bytes"] / counts["text_bytes"]
        written = (
            counts["wal_bytes"] + counts["image_bytes_written"]
        ) / counts["text_bytes"]
        add_s = [seconds for epoch in result["adds"] for seconds in epoch]
        docs_s = len(add_s) / sum(add_s)
    else:
        stored = written = fixture["image_bytes"] / fixture["text_bytes"]
        docs_s = fixture["docs"] / (fixture["build_s"] + fixture["save_s"])
    return {
        "setup_s": (
            fixture["setup_s"] + result["warmup_s"]
            + result.get("startup_s", 0.0)
        ),
        "throughput_ops_s": len(measured) / result["wall_s"],
        "latency_p50_ms": metrics.percentile(latencies, 0.50) * 1000,
        "latency_p95_ms": metrics.percentile(latencies, 0.95) * 1000,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "stored_bytes_per_user_byte": stored,
        "bytes_written_per_user_byte": written,
        "ingest_docs_s": docs_s,
    }
