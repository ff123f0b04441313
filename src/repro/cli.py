"""Command-line front end: ``free synth | build | convert | search |
explain | check | bench | metrics | serve | traces``.

Typical session::

    free synth --pages 1000 --out corpus.img
    free build corpus.img --out corpus.idx --threshold 0.1 --presuf
    free search corpus.img corpus.idx 'motorola.*(xpc|mpc)[0-9]+'
    free explain corpus.img corpus.idx '(Bill|William).*Clinton'
    free check --index corpus.idx --lint
    free bench --pages 800 --experiment fig9
    free convert legacy.idx corpus.idx --format v2   # FREEIDX1 -> 2

Observability (see docs/observability.md)::

    free build corpus.img --out corpus.idx --profile   # level-wise stats
    free search corpus.img corpus.idx 'pat' --trace    # span tree
    free metrics corpus.img corpus.idx                 # Prometheus text
    free bench --experiment core                       # BENCH_free_core.json

Serving (see docs/serving.md)::

    free serve corpus.img corpus.idx --port 8080 --workers 4
    free traces http://127.0.0.1:8080 --slow           # sampled span trees
    free bench --experiment serve                      # BENCH_free_serve.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple, cast

from repro.bench import report as report_mod
from repro.bench import runner as runner_mod
from repro.bench.queries import BENCHMARK_QUERIES
from repro.bench.workloads import default_workload
from repro.corpus.store import DiskCorpus
from repro.corpus.synthesis import build_corpus
from repro.engine.factory import open_engine
from repro.engine.results import frequency_ranked
from repro.errors import FreeError
from repro.index.builder import build_multigram_index
from repro.index.serialize import (
    DEFAULT_VERSION,
    convert_index,
    save_index,
    save_sharded_index,
)
from repro.index.sharded import ShardedIndex
from repro.obs.buildreport import default_report_path
from repro.plan.physical import CoverPolicy


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except FreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="free",
        description="FREE: fast regular expression indexing engine",
    )
    sub = parser.add_subparsers()

    p_synth = sub.add_parser("synth", help="generate a synthetic web corpus")
    p_synth.add_argument("--pages", type=int, default=1000)
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--out", required=True, help="corpus image path")
    p_synth.set_defaults(func=_cmd_synth)

    p_build = sub.add_parser(
        "build", aliases=["index"], help="build a multigram index",
    )
    p_build.add_argument("corpus", help="corpus image path")
    p_build.add_argument("--out", required=True, help="index image path")
    p_build.add_argument("--threshold", type=float, default=0.1)
    p_build.add_argument("--max-gram-len", type=int, default=10)
    p_build.add_argument(
        "--presuf", action="store_true",
        help="apply the shortest common suffix rule",
    )
    p_build.add_argument(
        "--profile", action="store_true",
        help="print the per-level Algorithm 3.1 build profile "
             "(the report is persisted next to the image either way)",
    )
    p_build.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the corpus into N shards and write a sharded "
             "index image (N=1 writes a plain single-index image)",
    )
    p_build.add_argument(
        "--build-workers", type=int, default=1, metavar="K",
        help="worker processes for index construction",
    )
    p_build.add_argument(
        "--format", choices=["v1", "v2"], default=None,
        help="index image format: v1 (eager flat) or v2 (zero-copy "
             "mmap, the default)",
    )
    p_build.set_defaults(func=_cmd_build)

    p_convert = sub.add_parser(
        "convert",
        help="rewrite an index image (flat or sharded) to another "
             "format version",
    )
    p_convert.add_argument("src", help="source index image path")
    p_convert.add_argument("dst", help="destination index image path")
    p_convert.add_argument(
        "--format", choices=["v1", "v2"], default="v2",
        help="target image format (default: v2, zero-copy mmap)",
    )
    p_convert.set_defaults(func=_cmd_convert)

    p_ingest = sub.add_parser(
        "ingest",
        help="ingest a line-per-doc log file into an index directory "
             "(LSM lifecycle: memtable -> sealed mmap segments)",
    )
    p_ingest.add_argument("dir", help="ingest directory (created if new)")
    p_ingest.add_argument(
        "log",
        help="log file: one document per line; '!delete <id>' "
             "tombstones a previous document",
    )
    p_ingest.add_argument(
        "--follow", action="store_true",
        help="keep tailing the log for growth (Ctrl-C stops cleanly)",
    )
    p_ingest.add_argument(
        "--memtable-docs", type=int, default=256, metavar="N",
        help="seal the memtable into a segment at this many docs",
    )
    p_ingest.add_argument(
        "--fanout", type=int, default=4, metavar="N",
        help="tiered compaction fanout (merge a size class at N "
             "segments)",
    )
    p_ingest.add_argument(
        "--no-compact", action="store_true",
        help="disable automatic tiered compaction after seals",
    )
    p_ingest.add_argument(
        "--seal", action="store_true",
        help="seal any remaining memtable docs before exiting",
    )
    p_ingest.add_argument(
        "--poll-seconds", type=float, default=0.2, metavar="S",
        help="polling interval for --follow",
    )
    p_ingest.set_defaults(func=_cmd_ingest)

    p_compact = sub.add_parser(
        "compact",
        help="fully compact an ingest directory: seal the memtable, "
             "merge every segment into one, drop tombstones, "
             "checkpoint the WAL",
    )
    p_compact.add_argument("dir", help="ingest directory")
    p_compact.set_defaults(func=_cmd_compact)

    p_search = sub.add_parser("search", help="run a regex query")
    p_search.add_argument(
        "corpus",
        help="corpus image, or an ingest directory (then the second "
             "positional is the pattern)",
    )
    p_search.add_argument("index")
    p_search.add_argument("pattern", nargs="?", default=None)
    p_search.add_argument("--limit", type=int, default=None)
    p_search.add_argument(
        "--ranked", action="store_true",
        help="print matching strings by frequency (Example 1.2)",
    )
    p_search.add_argument(
        "--metrics", action="store_true",
        help="print per-stage query metrics (cache hits, postings "
             "decoded, intersection sizes, prefilter rejects)",
    )
    p_search.add_argument(
        "--trace", action="store_true",
        help="record the request as a span tree and print it",
    )
    p_search.set_defaults(func=_cmd_search)

    p_explain = sub.add_parser("explain", help="show the access plan")
    p_explain.add_argument(
        "corpus",
        help="corpus image, or an ingest directory (then the second "
             "positional is the pattern)",
    )
    p_explain.add_argument("index")
    p_explain.add_argument("pattern", nargs="?", default=None)
    p_explain.add_argument(
        "--analyze", action="store_true",
        help="run the query and annotate the plan with actual postings "
             "sizes and cache hits next to the cost model's estimates",
    )
    p_explain.add_argument(
        "--trace", action="store_true",
        help="append the span tree of the (planning, or with "
             "--analyze, full) request",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_estimate = sub.add_parser(
        "estimate",
        help="predict result size by corpus sampling (no index needed)",
    )
    p_estimate.add_argument("corpus")
    p_estimate.add_argument("pattern")
    p_estimate.add_argument("--sample", type=int, default=64)
    p_estimate.add_argument("--seed", type=int, default=0)
    p_estimate.set_defaults(func=_cmd_estimate)

    p_check = sub.add_parser(
        "check",
        help="static invariant analysis: index, plans, lint, "
             "concurrency & lifecycle "
             "(pre-deploy gate; exits nonzero on violations)",
    )
    p_check.add_argument(
        "--index", default=None, metavar="PATH",
        help="serialized index image to verify (Thm 3.9, Obs 3.8, ...)",
    )
    p_check.add_argument(
        "--pattern", action="append", default=None, metavar="REGEX",
        help="verify the plan pair for this regex (repeatable; "
             "default: the ten benchmark queries)",
    )
    p_check.add_argument(
        "--policy", choices=[p.value for p in CoverPolicy], default="all",
        help="cover policy used when compiling physical plans",
    )
    p_check.add_argument(
        "--build-report", default=None, metavar="PATH",
        help="build report JSON to cross-validate against --index "
             "(default: <index>.build.json when it exists)",
    )
    p_check.add_argument(
        "--lint", action="store_true",
        help="run the FREE001..FREE006 AST lint rules",
    )
    p_check.add_argument(
        "--lint-root", default=None, metavar="PATH",
        help="directory to lint (default: the installed repro package)",
    )
    p_check.add_argument(
        "--concurrency",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the CONC/RES concurrency & lifecycle rules "
             "(CFG/dataflow analyzer; on by default)",
    )
    p_check.add_argument(
        "--concurrency-root", default=None, metavar="PATH",
        help="directory the concurrency pass scans "
             "(default: --lint-root, else the installed repro package)",
    )
    p_check.add_argument(
        "--format", choices=["text", "json", "sarif"], default=None,
        dest="format",
        help="output format (default: text; sarif emits a SARIF 2.1.0 "
             "log for CI annotation)",
    )
    p_check.add_argument(
        "--json", action="store_true",
        help="shorthand for --format json",
    )
    p_check.add_argument(
        "--verbose", action="store_true",
        help="also print the per-node plan weakening justifications",
    )
    p_check.add_argument(
        "--strict", action="store_true",
        help="treat warnings as violations (nonzero exit)",
    )
    p_check.set_defaults(func=_cmd_check)

    p_bench = sub.add_parser("bench", help="run paper experiments")
    p_bench.add_argument("--pages", type=int, default=None)
    p_bench.add_argument(
        "--experiment",
        choices=[
            "table3", "fig9", "fig10", "fig11", "fig12",
            "threshold", "policy", "repeat", "core",
            "postings", "serve", "ingest", "all",
        ],
        default="all",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=5,
        help="rounds for the repeated-query experiment",
    )
    p_bench.add_argument(
        "--out", default=None, metavar="PATH",
        help="where --experiment core/postings writes its JSON "
             "record (default: BENCH_free_<experiment>.json)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_metrics = sub.add_parser(
        "metrics",
        help="run queries and print the metrics registry exposition",
    )
    p_metrics.add_argument("corpus")
    p_metrics.add_argument("index")
    p_metrics.add_argument(
        "--pattern", action="append", default=None, metavar="REGEX",
        help="query to run before exposing (repeatable; default: the "
             "ten benchmark queries)",
    )
    p_metrics.add_argument(
        "--repeats", type=int, default=1,
        help="how many times to run the pattern set",
    )
    p_metrics.add_argument(
        "--json", action="store_true",
        help="emit the registry snapshot as JSON instead of "
             "Prometheus text",
    )
    p_metrics.add_argument(
        "--check", action="store_true",
        help="validate the text exposition with the strict parser "
             "(nonzero exit on malformed output; the CI gate)",
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_serve = sub.add_parser(
        "serve",
        help="serve queries over HTTP (see docs/serving.md)",
    )
    p_serve.add_argument(
        "corpus",
        help="corpus image path, or an ingest directory (then the "
             "index positional may be omitted)",
    )
    p_serve.add_argument(
        "index", nargs="?", default=None,
        help="index image path (or an ingest directory)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8080,
        help="port to bind (0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker engines (one query executes per worker at a time)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="bounded admission queue; beyond it requests get 429",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-query deadline, queueing included (0 disables)",
    )
    p_serve.add_argument(
        "--query-log", default=None, metavar="PATH",
        help="append one JSON line per query served",
    )
    p_serve.add_argument(
        "--query-log-max-bytes", type=int, default=None, metavar="BYTES",
        help="rotate the query log past this size (old file -> .1)",
    )
    p_serve.add_argument(
        "--trace-sample", type=float, default=0.01, metavar="RATE",
        help="fraction of request traces kept in /debug/tracez "
             "(deterministic in the trace id; default 0.01)",
    )
    p_serve.add_argument(
        "--slow-trace", type=float, default=0.25, metavar="SECONDS",
        help="requests at/over this duration are always trace-retained",
    )
    p_serve.add_argument(
        "--trace-store", type=int, default=128, metavar="N",
        help="ring capacity for sampled traces (slow top-N is N/4)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_traces = sub.add_parser(
        "traces",
        help="fetch sampled traces from a running free serve",
    )
    p_traces.add_argument(
        "url",
        help="server base URL (http://host:port) or host:port",
    )
    p_traces.add_argument(
        "--slow", action="store_true",
        help="show the retained slowest queries instead of recent ones",
    )
    p_traces.add_argument(
        "-n", type=int, default=10, metavar="N",
        help="how many traces to fetch (default 10)",
    )
    p_traces.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw JSON payload instead of rendered trees",
    )
    p_traces.set_defaults(func=_cmd_traces)

    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    corpus = build_corpus(n_pages=args.pages, seed=args.seed)
    DiskCorpus.save(args.out, corpus)
    print(
        f"wrote {len(corpus)} pages "
        f"({corpus.total_chars:,} chars) to {args.out}"
    )
    return 0


_FORMAT_VERSIONS = {"v1": 1, "v2": 2}


def _cmd_build(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    version = (
        _FORMAT_VERSIONS[args.format] if args.format else DEFAULT_VERSION
    )
    if args.shards > 1:
        with DiskCorpus(args.corpus) as corpus:
            sharded = ShardedIndex.build(
                corpus,
                args.shards,
                threshold=args.threshold,
                max_gram_len=args.max_gram_len,
                presuf=args.presuf,
                build_workers=args.build_workers,
            )
        save_sharded_index(sharded, args.out, version=version)
        print(
            f"built sharded index: {sharded.n_shards} shards, "
            f"{sharded.n_docs} docs, {sharded.total_keys():,} keys, "
            f"{sharded.total_postings():,} postings -> {args.out}"
        )
        for row in sharded.shard_stats():
            start, stop = row["doc_range"]  # type: ignore[misc]
            print(
                f"  shard {row['shard']}: docs [{start}, {stop}), "
                f"{row['keys']:,} keys, {row['postings']:,} postings"
            )
        return 0
    with DiskCorpus(args.corpus) as corpus:
        if args.build_workers > 1:
            from repro.index.parallel import build_multigram_index_parallel

            index = build_multigram_index_parallel(
                corpus,
                threshold=args.threshold,
                max_gram_len=args.max_gram_len,
                presuf=args.presuf,
                workers=args.build_workers,
            )
        else:
            index = build_multigram_index(
                corpus,
                threshold=args.threshold,
                max_gram_len=args.max_gram_len,
                presuf=args.presuf,
            )
    save_index(index, args.out, version=version)
    stats = index.stats
    print(
        f"built {index.kind} index: {stats.n_keys:,} keys, "
        f"{stats.n_postings:,} postings, "
        f"{stats.corpus_scans} corpus scans, "
        f"{stats.construction_seconds:.2f}s -> {args.out}"
    )
    build_report = stats.build_report
    if build_report is not None:
        report_path = default_report_path(args.out)
        build_report.save(report_path)
        print(f"build report -> {report_path}")
        if args.profile:
            print(build_report.render())
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    import os

    index = convert_index(
        args.src, args.dst, version=_FORMAT_VERSIONS[args.format]
    )
    if isinstance(index, ShardedIndex):
        shape = (
            f"{index.n_shards} shards, {index.total_keys():,} keys"
        )
    else:
        shape = f"{len(index):,} keys"
    print(
        f"converted {args.src} ({os.path.getsize(args.src):,} bytes) "
        f"-> {args.format} {args.dst} "
        f"({os.path.getsize(args.dst):,} bytes): {shape}"
    )
    return 0


def _split_query_target(
    args: argparse.Namespace,
) -> Tuple[Optional[str], str, str]:
    """(corpus_path, index_path, pattern) for the two query spellings:
    ``free search corpus.img index.img PAT`` and
    ``free search <ingest-dir> PAT`` (corpus_path None for the
    latter — the directory carries its own documents)."""
    import os

    if args.pattern is None:
        if not os.path.isdir(args.corpus):
            raise FreeError(
                f"{args.corpus!r} is not an ingest directory; with an "
                "image, pass: corpus index pattern"
            )
        return None, args.corpus, args.index
    return args.corpus, args.index, args.pattern


def _cmd_search(args: argparse.Namespace) -> int:
    import contextlib

    corpus_path, index_path, pattern = _split_query_target(args)
    args.pattern = pattern
    # Engines are context-managed on every CLI path: an ingest
    # directory's handle closes with its engine even when printing
    # fails.
    with contextlib.ExitStack() as stack:
        corpus = (
            stack.enter_context(DiskCorpus(corpus_path))
            if corpus_path is not None
            else None
        )
        engine = stack.enter_context(
            open_engine(corpus, index_path)
        )
        report = engine.search(
            args.pattern, limit=args.limit, trace=args.trace
        )
        print(report.summary())
        if args.metrics and report.metrics is not None:
            print(report.metrics.pretty())
        if args.trace and report.trace is not None:
            print(report.trace.render())
        if args.ranked:
            for text, count in frequency_ranked(report.matches, top=20):
                print(f"{count:6d}  {text!r}")
        else:
            for match in report.matches[:20]:
                print(f"  unit {match.doc_id}: {match.text!r}")
            if len(report.matches) > 20:
                print(f"  ... {len(report.matches) - 20} more")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import contextlib

    corpus_path, index_path, pattern = _split_query_target(args)
    with contextlib.ExitStack() as stack:
        corpus = (
            stack.enter_context(DiskCorpus(corpus_path))
            if corpus_path is not None
            else None
        )
        engine = stack.enter_context(open_engine(corpus, index_path))
        print(engine.explain(
            pattern, analyze=args.analyze, trace=args.trace
        ))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.index.ingest import IngestDirectory

    with IngestDirectory(
        args.dir,
        memtable_docs=args.memtable_docs,
        fanout=args.fanout,
        auto_compact=not args.no_compact,
    ) as directory:
        try:
            added, deleted = directory.ingest_log(
                args.log,
                follow=args.follow,
                poll_seconds=args.poll_seconds,
            )
        except KeyboardInterrupt:
            # --follow runs until interrupted; the WAL already holds
            # everything acknowledged, so this is a clean stop.
            added = deleted = -1
            print()
        if args.seal:
            directory.seal()
        stats = directory.stats()
        if added >= 0:
            print(f"free ingest: +{added} docs, -{deleted} docs")
        print(
            f"free ingest: {stats['n_live']} live docs in "
            f"{stats['n_segments']} segments + {stats['n_memtable']} "
            f"memtable ({stats['n_tombstones']} tombstones), "
            f"generation {stats['generation']}"
        )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.index.ingest import IngestDirectory

    with IngestDirectory(args.dir, create=False) as directory:
        merged = directory.compact()
        stats = directory.stats()
        print(
            f"free compact: merged {merged} segments -> "
            f"{stats['n_segments']}, {stats['n_live']} live docs, "
            f"{stats['n_tombstones']} tombstones, generation "
            f"{stats['generation']}"
        )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.registry import get_registry, parse_prometheus_text

    if args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    patterns = (
        args.pattern if args.pattern
        else list(BENCHMARK_QUERIES.values())
    )
    registry = get_registry()
    with DiskCorpus(args.corpus) as corpus, open_engine(
        corpus, args.index, registry=registry
    ) as engine:
        for _round in range(args.repeats):
            for pattern in patterns:
                engine.search(pattern, collect_matches=False)
    if args.json:
        import json

        print(json.dumps(registry.as_dict(), indent=2, sort_keys=True))
        return 0
    text = registry.render_prometheus()
    print(text, end="")
    if args.check:
        parse_prometheus_text(text)  # FreeError -> exit 1 via main()
        print(
            f"metrics: OK ({len(text.splitlines())} exposition lines)",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.registry import get_registry
    from repro.serve import (
        QueryService,
        ServeConfig,
        serve_forever,
        slots_from_paths,
    )

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        timeout_seconds=args.timeout if args.timeout > 0 else None,
        query_log_path=args.query_log,
        query_log_max_bytes=args.query_log_max_bytes,
        trace_sample_rate=args.trace_sample,
        slow_trace_seconds=args.slow_trace,
        trace_store_size=args.trace_store,
        slow_store_size=max(args.trace_store // 4, 1),
    )
    registry = get_registry()
    # ``free serve <ingest-dir>``: the directory is both corpus and
    # index; slots_from_paths dispatches on the directory itself.
    index_path = args.index if args.index is not None else args.corpus
    slots = slots_from_paths(args.corpus, index_path, config, registry)
    service = QueryService(config, slots, registry=registry)

    def on_start(svc: QueryService) -> None:
        timeout_text = (
            f"{config.timeout_seconds:g}s"
            if config.timeout_seconds is not None
            else "none"
        )
        print(
            f"free serve: http://{config.host}:{svc.port} "
            f"({config.workers} workers, queue {config.queue_depth}, "
            f"timeout {timeout_text}) — Ctrl-C drains and exits",
            flush=True,
        )

    serve_forever(service, on_start=on_start)
    stats = service.stats
    print(
        f"free serve: drained and stopped — {stats.queries} queries "
        f"({stats.served} served, {stats.shed} shed, "
        f"{stats.timeouts} timed out)"
    )
    return 0


def _serve_base(url: str) -> Tuple[str, int]:
    """``http://host:port`` or bare ``host:port`` -> (host, port)."""
    from urllib.parse import urlsplit

    text = url if "//" in url else f"http://{url}"
    split = urlsplit(text)
    if split.scheme not in ("http", ""):
        raise FreeError(f"only http:// URLs are supported, got {url!r}")
    if not split.hostname or not split.port:
        raise FreeError(
            f"need host and port, e.g. http://127.0.0.1:8080, got {url!r}"
        )
    return split.hostname, split.port


def _cmd_traces(args: argparse.Namespace) -> int:
    import http.client

    host, port = _serve_base(args.url)
    path = "/debug/slowqueries" if args.slow else "/debug/tracez"
    fmt = "json" if args.as_json else "text"
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", f"{path}?n={args.n}&format={fmt}")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
    finally:
        conn.close()
    if response.status != 200:
        print(
            f"error: {path} answered {response.status}: {body.strip()}",
            file=sys.stderr,
        )
        return 1
    print(body.rstrip("\n"))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.plan.sampling import SampledSelectivityEstimator

    with DiskCorpus(args.corpus) as corpus:
        estimator = SampledSelectivityEstimator(
            corpus, sample_size=args.sample, seed=args.seed
        )
        selectivity = estimator.regex_selectivity(args.pattern)
        lo, hi = estimator.confidence_interval(selectivity)
        expected = estimator.expected_matching_units(args.pattern)
    print(
        f"sel({args.pattern!r}) ~ {selectivity:.4f} "
        f"(95% CI [{lo:.4f}, {hi:.4f}]) over {estimator.sample_size} "
        f"sampled units -> ~{expected:.0f} matching units expected"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import collect_rules, run_check

    out_format = args.format or ("json" if args.json else "text")
    if args.index is None and not args.lint and not args.concurrency:
        print(
            "error: nothing to check — pass --index and/or --lint, "
            "or re-enable --concurrency",
            file=sys.stderr,
        )
        return 2
    report = run_check(
        index=args.index,
        patterns=args.pattern,
        lint=args.lint,
        lint_root=args.lint_root,
        policy=args.policy,
        build_report=args.build_report,
        concurrency=args.concurrency,
        concurrency_root=args.concurrency_root,
    )
    if out_format == "json":
        import json

        print(json.dumps(report.as_dict(), indent=2))
    elif out_format == "sarif":
        import json

        print(json.dumps(report.as_sarif(collect_rules()), indent=2))
    else:
        print(report.pretty(verbose=args.verbose))
    code = report.exit_code(strict_warnings=args.strict)
    if out_format == "text":
        print("check: OK" if code == 0 else "check: FAILED")
    return code


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    workload = (
        default_workload(n_pages=args.pages)
        if args.pages
        else default_workload()
    )
    if args.experiment == "serve":
        out = args.out or "BENCH_free_serve.json"
        record = runner_mod.write_bench_serve(out, workload)
        phases = cast(Dict[str, Dict[str, object]], record["phases"])
        closed = phases["closed"]
        closed_lat = cast(
            Dict[str, float], closed["latency_seconds"]
        )
        service = cast(Dict[str, int], record["service"])
        print(
            f"serve: sustained {cast(float, closed['qps']):.0f} qps "
            f"p50 {closed_lat['p50'] * 1000:.2f}ms "
            f"p95 {closed_lat['p95'] * 1000:.2f}ms "
            f"p99 {closed_lat['p99'] * 1000:.2f}ms; "
            f"shed {service['shed']} timeouts {service['timeouts']} "
            f"5xx {cast(int, record['n_5xx'])} -> {out}"
        )
        return 0
    if args.experiment == "postings":
        out = args.out or "BENCH_free_postings.json"
        record = runner_mod.write_bench_postings(out, workload)
        cold = cast(Dict[str, float], record["cold_start"])
        decoded = cast(Dict[str, float], record["decoded_per_query"])
        lat = cast(Dict[str, Dict[str, float]], record["latency_seconds"])
        print(
            f"postings: cold load {cold['v1_load_seconds'] * 1000:.2f}ms "
            f"-> {cold['v2_load_seconds'] * 1000:.3f}ms "
            f"(x{cold['load_speedup']:.0f}); "
            f"decoded/query {decoded['v1_bytes_mean']:.0f}B -> "
            f"{decoded['v2_bytes_mean']:.0f}B; "
            f"p50 {lat['v1']['p50'] * 1000:.2f}ms -> "
            f"{lat['v2']['p50'] * 1000:.2f}ms -> {out}"
        )
        return 0
    if args.experiment == "ingest":
        out = args.out or "BENCH_free_ingest.json"
        record = runner_mod.write_bench_ingest(out, workload)
        ingest = cast(Dict[str, float], record["ingest"])
        query = cast(Dict[str, object], record["query"])
        lat = cast(Dict[str, float], query["latency_seconds"])
        during = cast(Dict[str, float], query["while_compacting"])
        print(
            f"ingest: {ingest['docs_added']:.0f} docs "
            f"(-{ingest['docs_deleted']:.0f}) at "
            f"{ingest['docs_per_second']:.0f} docs/s; "
            f"{ingest['seals']:.0f} seals "
            f"{ingest['compactions']:.0f} merges -> "
            f"{ingest['final_segments']:.0f} segments; "
            f"query p50 {lat['p50'] * 1000:.2f}ms "
            f"(compacting p50 {during['p50'] * 1000:.2f}ms, "
            f"n={cast(float, during['n']):.0f}) "
            f"errors={cast(int, query['errors'])} "
            f"identical={record['verified_identical']} -> {out}"
        )
        return 0 if record["ok"] else 1
    if args.experiment == "core":
        out = args.out or "BENCH_free_core.json"
        record = runner_mod.write_bench_core(out, workload)
        latency = cast(Dict[str, float], record["latency_seconds"])
        ratio = cast(float, record["candidate_ratio"])
        hit_rate = cast(float, record["cache_hit_rate"])
        build_s = cast(float, record["index_build_seconds"])
        print(
            f"core: p50={latency['p50'] * 1000:.2f}ms "
            f"p95={latency['p95'] * 1000:.2f}ms "
            f"candidate_ratio={ratio:.4f} "
            f"cache_hit_rate={hit_rate:.3f} "
            f"build={build_s:.2f}s -> {out}"
        )
        return 0
    experiments = {
        "table3": lambda: runner_mod.run_table3(workload),
        "fig9": lambda: runner_mod.run_fig9(workload),
        "fig10": lambda: runner_mod.run_fig10(workload),
        "fig11": lambda: runner_mod.run_fig11(workload),
        "fig12": lambda: runner_mod.run_fig12(workload),
        "threshold": lambda: runner_mod.run_threshold_ablation(
            workload.corpus
        ),
        "policy": lambda: runner_mod.run_cover_policy_ablation(workload),
        "repeat": lambda: runner_mod.run_repeated_queries(
            workload, repeats=args.repeats
        ),
    }
    paper_artifacts = ["table3", "fig9", "fig10", "fig11", "fig12"]
    names = (
        paper_artifacts if args.experiment == "all" else [args.experiment]
    )
    for name in names:
        rows = experiments[name]()
        print(report_mod.format_table(rows, title=f"== {name} =="))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
