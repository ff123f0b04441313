"""The always-on query service behind ``free serve``.

FREE's premise is *index once, query many* — this module finally makes
"many" cheap.  A :class:`QueryService` loads one index image, builds a
small pool of warm worker engines on top of it (plan/answer/matcher
caches stay hot across requests) and serves them over the minimal HTTP
layer of :mod:`repro.serve.http`:

``POST /search``
    ``{"pattern": ..., "limit"?: int, "collect_matches"?: bool}`` —
    runs the query, returns the full
    :meth:`~repro.engine.results.SearchReport.as_dict` payload.
``POST /first_k``
    ``{"pattern": ..., "k"?: int}`` — the Section 5.4 streaming mode.
``GET /explain?pattern=...&analyze=0|1``
    the access plan as text (``free explain`` over HTTP).
``GET /metrics``
    the process metrics registry in Prometheus text exposition, with
    OpenMetrics-style exemplars linking latency buckets to trace ids.
``GET /healthz``
    liveness plus queue/served/shed/timeout counters.
``GET /debug/tracez``
    recent sampled traces (``?n=``, ``?format=json|text``).
``GET /debug/slowqueries``
    the retained slowest queries with their span breakdown.
``GET /debug/vars``
    config + service stats + trace-store stats in one JSON object.

**Request identity.**  Every request gets a 128-bit trace id — taken
from an inbound W3C ``traceparent`` header when one parses, minted
fresh otherwise — and every response echoes a ``traceparent`` back
(sampled flag = "this trace was kept; go fetch it from
``/debug/tracez``").  Query requests always run with a live span tree;
at completion the :class:`~repro.obs.store.TraceStore` keeps a
configurable fraction plus everything over the slow threshold.  The
same id appears in the JSONL query log and as the exemplar on the
latency histogram bucket the request landed in, so logs, metrics and
traces correlate on one identifier.  Trace ids must never become
metric *labels* (unbounded cardinality — analyzer rule CONC005);
exemplars are the sanctioned escape hatch.

**Admission control.**  Query requests pass through one bounded
:class:`asyncio.Queue`.  A full queue sheds the request immediately
with ``429`` and a ``Retry-After`` header — the client is told to back
off rather than the server buffering unbounded work (the ROADMAP's
"millions of users" fail mode).  Admitted jobs carry a deadline; a job
that exceeds it — still queued or mid-execution — is answered ``504``.

**Cancellation.**  Worker threads cannot be killed, so in-flight
timeouts are cooperative: every worker engine reads its corpus through
a :class:`DeadlineCorpus` proxy that raises :class:`QueryTimeout` as
soon as the deadline passes.  Confirmation — the phase that dominates
runtime — touches the corpus per candidate unit, so an expired query
stops within one unit read instead of running to completion.

**Isolation.**  Engines are not thread-safe (shared DiskModel, LRU
caches), and a :class:`~repro.corpus.store.DiskCorpus` file handle is
not safe to share across threads (seek/read races) — so each worker
owns a private engine + corpus handle + single-thread executor, all
sharing the *one* loaded index image (read-only, safe to share).

**Shutdown.**  ``stop()`` stops accepting connections, answers new
queries ``503``, drains every admitted job, then closes each worker
engine (a segmented engine over an ingest directory closes the
directory) and the query log.

**Query log.**  Every query endpoint appends one JSON line — pattern,
status, latency, result sizes — to an optional JSONL log.  This is the
workload record the query-aware gram-selection strategies (Zhang &
Patel; see ROADMAP) will mine; timestamps are monotonic seconds
(ordering and intervals, not wall time — see FREE006).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    TextIO,
)

from repro.corpus.document import DataUnit
from repro.corpus.store import CorpusStore, DiskCorpus
from repro.engine.factory import AnyIndex, wrap_index
from repro.engine.free import FreeEngine
from repro.engine.results import SearchReport
from repro.errors import FreeError
from repro.index.serialize import load_any_index
from repro.obs.clock import monotonic
from repro.obs.ids import (
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.store import TraceRecord, TraceStore, phase_seconds
from repro.obs.trace import Trace
from repro.serve.http import (
    TRACEPARENT_HEADER,
    HttpError,
    Request,
    Response,
    error_response,
    read_request,
)


class QueryTimeout(FreeError):
    """A query exceeded its per-request deadline."""


@dataclass
class ServeConfig:
    """Tunables of one :class:`QueryService` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is service.port
    workers: int = 1
    queue_depth: int = 16
    timeout_seconds: Optional[float] = 5.0
    retry_after_seconds: float = 1.0
    query_log_path: Optional[str] = None
    #: Rotate the query log once it would exceed this many bytes
    #: (the old file moves to ``<path>.1``); None = never rotate.
    query_log_max_bytes: Optional[int] = None
    plan_cache_size: int = 256
    #: Byte budget of each worker's answer cache; on by default:
    #: serving is exactly the repeated-traffic workload it exists for
    #: (see FreeEngine docs).
    answer_cache_bytes: int = 2 * 1024 * 1024
    matcher_cache_size: int = 256
    #: Fraction of traces kept probabilistically (deterministic in the
    #: trace id; see repro.obs.ids.should_sample).
    trace_sample_rate: float = 0.01
    #: Requests at or over this duration are always kept ("slow").
    slow_trace_seconds: float = 0.25
    #: Ring capacity for probabilistically sampled traces.
    trace_store_size: int = 128
    #: Top-N capacity for slow-retained traces.
    slow_store_size: int = 32

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise FreeError("serve workers must be >= 1")
        if self.queue_depth < 1:
            raise FreeError("queue_depth must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise FreeError("timeout_seconds must be positive or None")
        if (
            self.query_log_max_bytes is not None
            and self.query_log_max_bytes < 1
        ):
            raise FreeError("query_log_max_bytes must be positive or None")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise FreeError("trace_sample_rate must be in [0, 1]")
        if self.slow_trace_seconds <= 0:
            raise FreeError("slow_trace_seconds must be positive")
        if self.trace_store_size < 1 or self.slow_store_size < 1:
            raise FreeError("trace store sizes must be >= 1")


class DeadlineCorpus(CorpusStore):
    """A corpus proxy enforcing a per-thread query deadline.

    The wrapped store is read through normally until the active
    deadline passes; after that every access raises
    :class:`QueryTimeout`.  Deadlines are thread-local, so one proxy
    instance serves a worker thread without cross-talk.  ``reads``
    counts unit fetches (regression tests assert a timed-out query
    stopped reading instead of running to completion).
    """

    def __init__(self, inner: CorpusStore):
        self._inner = inner
        self._local = threading.local()
        self.reads = 0

    def set_deadline(self, deadline: Optional[float]) -> None:
        self._local.deadline = deadline

    def clear_deadline(self) -> None:
        self._local.deadline = None

    def _check_deadline(self) -> None:
        deadline = getattr(self._local, "deadline", None)
        if deadline is not None and monotonic() >= deadline:
            raise QueryTimeout(
                "query exceeded its deadline during corpus access"
            )

    def __len__(self) -> int:
        return len(self._inner)

    def get(self, doc_id: int) -> DataUnit:
        self._check_deadline()
        self.reads += 1
        return self._inner.get(doc_id)

    def __iter__(self) -> Iterator[DataUnit]:
        for unit in self._inner:
            self._check_deadline()
            self.reads += 1
            yield unit

    @property
    def total_chars(self) -> int:
        return self._inner.total_chars

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if callable(close):
            close()


@dataclass
class ServiceStats:
    """Event-loop-owned request accounting (no locks needed)."""

    queries: int = 0  # admitted query requests
    served: int = 0  # query requests answered 200
    shed: int = 0  # 429: admission queue full
    timeouts: int = 0  # 504: deadline exceeded
    client_errors: int = 0  # other 4xx on query endpoints
    server_errors: int = 0  # 5xx on query endpoints

    def as_dict(self) -> Dict[str, int]:
        return {
            "queries": self.queries,
            "served": self.served,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
        }


@dataclass
class RequestIdentity:
    """One request's trace identity, inbound or freshly minted.

    ``kept`` is written by the worker once the sampling decision is
    made (before the response future resolves), so the connection
    handler can echo the sampled flag on the ``traceparent`` response
    header and attach the exemplar only for retrievable traces.
    """

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None
    requested_sampling: bool = False
    kept: bool = False

    def response_header(self) -> str:
        return format_traceparent(
            self.trace_id, self.span_id, sampled=self.kept
        )

    @staticmethod
    def of(request: Optional[Request]) -> "RequestIdentity":
        """Adopt the inbound ``traceparent`` identity or mint one."""
        parent = (
            parse_traceparent(request.traceparent())
            if request is not None
            else None
        )
        if parent is None:
            return RequestIdentity(
                trace_id=new_trace_id(), span_id=new_span_id()
            )
        return RequestIdentity(
            trace_id=parent.trace_id,
            span_id=new_span_id(),
            parent_span_id=parent.span_id,
            requested_sampling=parent.sampled,
        )


@dataclass
class _Outcome:
    """What one executed job produced (worker thread -> event loop)."""

    response: Response
    n_matches: Optional[int] = None
    n_candidates: Optional[int] = None
    candidate_ratio: Optional[float] = None


@dataclass
class _Job:
    """One admitted query, waiting in the bounded queue."""

    endpoint: str
    pattern: str
    fn: Callable[[FreeEngine, Trace], _Outcome]
    future: "asyncio.Future[Response]"
    deadline: Optional[float]
    ident: RequestIdentity
    trace: Trace
    enqueued_at: float = 0.0


class _EngineSlot:
    """One worker's private engine, corpus proxy and executor."""

    def __init__(self, corpus: DeadlineCorpus, engine: FreeEngine):
        self.corpus = corpus
        self.engine = engine
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="free-serve"
        )

    def close(self) -> None:
        # Nested finally so one failing close cannot leak the rest
        # (RES001: every resource released on every path).
        try:
            self.executor.shutdown(wait=True)
        finally:
            try:
                self.engine.close()
            finally:
                self.corpus.close()


def build_slots(
    corpus_opener: Callable[[], CorpusStore],
    index: "AnyIndex",
    config: ServeConfig,
    registry: MetricsRegistry,
) -> List[_EngineSlot]:
    """One warm engine per worker, all over the same loaded index.

    A failure while building slot N closes every resource slots
    0..N-1 already own (RES001) instead of leaking corpus handles.
    """
    slots: List[_EngineSlot] = []
    try:
        for _ordinal in range(config.workers):
            corpus = DeadlineCorpus(corpus_opener())
            try:
                engine = wrap_index(
                    corpus,
                    index,
                    registry=registry,
                    plan_cache_size=config.plan_cache_size,
                    answer_cache_bytes=config.answer_cache_bytes,
                    matcher_cache_size=config.matcher_cache_size,
                )
            except BaseException:
                corpus.close()
                raise
            slots.append(_EngineSlot(corpus, engine))
    except Exception:
        for slot in slots:
            slot.close()
        raise
    return slots


def slots_from_paths(
    corpus_path: str,
    index_path: str,
    config: ServeConfig,
    registry: MetricsRegistry,
) -> List[_EngineSlot]:
    """Load the image once; open a private corpus handle per worker.

    When ``index_path`` is an ingest directory it is opened read-only
    once and every worker shares its live in-memory corpus + segmented
    index (``corpus_path`` is ignored — the directory carries its own
    documents).  A read-only directory holds no OS resources, so the
    slots' normal close path suffices.
    """
    if os.path.isdir(index_path):
        from repro.index.ingest import IngestDirectory

        directory = IngestDirectory(
            index_path, create=False, read_only=True, registry=registry,
        )
        return build_slots(
            lambda: directory.corpus, directory.index, config, registry
        )
    index = load_any_index(index_path)
    return build_slots(
        lambda: DiskCorpus(corpus_path), index, config, registry
    )


class _QueryLog(object):
    """Append-only JSONL record of every query served.

    Each entry is one ``write()`` call of one complete line (readers
    tailing the file never see a torn entry).  With ``max_bytes`` set,
    the file rotates before a line that would push it past the limit:
    the current file moves to ``<path>.1`` (replacing any previous
    rollover) and a fresh file starts — two generations bound the disk
    footprint at roughly ``2 * max_bytes``.  A single line larger than
    the limit still lands (in its own generation) rather than looping.
    """

    def __init__(self, path: str, max_bytes: Optional[int] = None):
        self.path = path
        self.max_bytes = max_bytes
        self.rotations = 0
        self._file: Optional[TextIO] = open(path, "a", encoding="utf-8")
        self._size = os.path.getsize(path)

    def write(self, entry: Dict[str, object]) -> None:
        if self._file is None:
            return
        line = json.dumps(entry, sort_keys=True) + "\n"
        n_bytes = len(line.encode("utf-8"))
        if (
            self.max_bytes is not None
            and self._size > 0
            and self._size + n_bytes > self.max_bytes
        ):
            self._rotate()
        self._file.write(line)
        self._file.flush()
        self._size += n_bytes

    def _rotate(self) -> None:
        if self._file is None:
            return
        self._file.close()
        self._file = None  # if reopen fails, close() stays safe
        os.replace(self.path, self.path + ".1")
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Endpoint label values with bounded cardinality for the registry.
_KNOWN_ENDPOINTS = frozenset(
    {
        "/search", "/first_k", "/explain", "/metrics", "/healthz",
        "/debug/tracez", "/debug/slowqueries", "/debug/vars",
    }
)


class QueryService:
    """The asyncio HTTP service; see the module docstring."""

    def __init__(
        self,
        config: ServeConfig,
        slots: List[_EngineSlot],
        registry: Optional[MetricsRegistry] = None,
    ):
        if len(slots) != config.workers:
            raise FreeError(
                f"{config.workers} workers need {config.workers} engine "
                f"slots; got {len(slots)}"
            )
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        self.stats = ServiceStats()
        self.port: Optional[int] = None
        self._slots = slots
        self._queue: "asyncio.Queue[Optional[_Job]]" = asyncio.Queue(
            maxsize=config.queue_depth
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_tasks: List["asyncio.Task[None]"] = []
        self._inflight = 0
        self._draining = False
        self._stopped = False
        self._query_log = (
            _QueryLog(
                config.query_log_path,
                max_bytes=config.query_log_max_bytes,
            )
            if config.query_log_path
            else None
        )
        self.trace_store = TraceStore(
            capacity=config.trace_store_size,
            slow_capacity=config.slow_store_size,
            sample_rate=config.trace_sample_rate,
            slow_threshold_seconds=config.slow_trace_seconds,
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the worker tasks."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = int(sockets[0].getsockname()[1])
        for slot in self._slots:
            task = asyncio.get_running_loop().create_task(
                self._worker(slot)
            )
            self._worker_tasks.append(task)

    async def stop(self) -> None:
        """Graceful shutdown: drain admitted queries, then release.

        New connections stop being accepted immediately and new query
        requests on live connections are answered ``503``; every job
        already admitted to the queue still runs (or times out on its
        own deadline) before the workers exit and the engines close.
        """
        if self._stopped:
            return
        self._draining = True
        if self._server is not None:
            # close() only stops the listener; in-flight connections
            # keep running.  wait_closed() comes AFTER the queue drain:
            # on newer Pythons it waits for connection handlers, which
            # are themselves awaiting job futures the workers resolve.
            self._server.close()
        for _task in self._worker_tasks:
            await self._queue.put(None)  # one stop sentinel per worker
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks)
        if self._server is not None:
            await self._server.wait_closed()
        self._worker_tasks = []
        # Release every slot and the query log even if one close
        # raises (RES001); the first failure is re-raised once all
        # resources had their chance to shut down.
        errors: List[BaseException] = []
        for slot in self._slots:
            try:
                slot.close()
            except Exception as exc:
                errors.append(exc)
        if self._query_log is not None:
            try:
                self._query_log.close()
            except Exception as exc:
                errors.append(exc)
        self._stopped = True
        if errors:
            raise errors[0]

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    response = error_response(exc.status, str(exc))
                    ident = RequestIdentity.of(None)
                    response.headers[TRACEPARENT_HEADER] = (
                        ident.response_header()
                    )
                    self._observe_request("other", response, 0.0, ident)
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                started = monotonic()
                ident = RequestIdentity.of(request)
                response = await self._dispatch(request, ident)
                elapsed = monotonic() - started
                response.headers[TRACEPARENT_HEADER] = (
                    ident.response_header()
                )
                endpoint = (
                    request.path
                    if request.path in _KNOWN_ENDPOINTS
                    else "other"
                )
                self._observe_request(endpoint, response, elapsed, ident)
                keep = request.keep_alive and not self._draining
                writer.write(response.encode(keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(
        self, request: Request, ident: RequestIdentity
    ) -> Response:
        try:
            if request.path == "/healthz":
                self._require_method(request, "GET")
                return self._health_response()
            if request.path == "/metrics":
                self._require_method(request, "GET")
                return Response.from_text(
                    self.registry.render_prometheus(),
                    content_type=_PROMETHEUS_TYPE,
                )
            if request.path == "/debug/tracez":
                self._require_method(request, "GET")
                return self._handle_tracez(request)
            if request.path == "/debug/slowqueries":
                self._require_method(request, "GET")
                return self._handle_slowqueries(request)
            if request.path == "/debug/vars":
                self._require_method(request, "GET")
                return self._vars_response()
            if request.path == "/search":
                self._require_method(request, "POST")
                return await self._handle_search(request, ident)
            if request.path == "/first_k":
                self._require_method(request, "POST")
                return await self._handle_first_k(request, ident)
            if request.path == "/explain":
                self._require_method(request, "GET")
                return await self._handle_explain(request, ident)
            return error_response(
                404, f"no such endpoint {request.path!r}"
            )
        except HttpError as exc:
            return error_response(exc.status, str(exc))

    @staticmethod
    def _require_method(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405,
                f"{request.path} requires {method}, got {request.method}",
            )

    def _health_response(self) -> Response:
        payload: Dict[str, object] = {
            "status": "draining" if self._draining else "ok",
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
            "queued": self._queue.qsize(),
            "inflight": self._inflight,
        }
        payload.update(self.stats.as_dict())
        return Response.from_json(payload)

    # -- debug endpoints -----------------------------------------------------

    @staticmethod
    def _debug_n(request: Request, default: int) -> int:
        text = request.query.get("n")
        if text is None:
            return default
        try:
            n = int(text)
        except ValueError as exc:
            raise HttpError(400, "?n= must be an integer") from exc
        if n < 1:
            raise HttpError(400, "?n= must be >= 1")
        return n

    def _handle_tracez(self, request: Request) -> Response:
        """Recent sampled traces (JSON by default, ``?format=text``)."""
        n = self._debug_n(request, default=20)
        records = self.trace_store.recent(n)
        if request.query.get("format") == "text":
            blocks = [record.render() for record in records]
            if not blocks:
                blocks = ["(no sampled traces yet)"]
            return Response.from_text("\n\n".join(blocks) + "\n")
        return Response.from_json({
            "traces": [record.as_dict() for record in records],
            "store": self.trace_store.stats(),
        })

    def _handle_slowqueries(self, request: Request) -> Response:
        """Retained slowest queries, slowest first, with spans."""
        n = self._debug_n(request, default=10)
        records = self.trace_store.slowest(n)
        if request.query.get("format") == "text":
            blocks = [record.render() for record in records]
            if not blocks:
                blocks = ["(no slow queries retained yet)"]
            return Response.from_text("\n\n".join(blocks) + "\n")
        return Response.from_json({
            "slowest": [record.as_dict() for record in records],
            "slow_threshold_seconds": (
                self.config.slow_trace_seconds
            ),
        })

    def _vars_response(self) -> Response:
        payload: Dict[str, object] = {
            "config": asdict(self.config),
            "stats": self.stats.as_dict(),
            "trace_store": self.trace_store.stats(),
            "queued": self._queue.qsize(),
            "inflight": self._inflight,
            "draining": self._draining,
            "workers": self.config.workers,
            "query_log": (
                {
                    "path": self._query_log.path,
                    "max_bytes": self._query_log.max_bytes,
                    "rotations": self._query_log.rotations,
                }
                if self._query_log is not None
                else None
            ),
        }
        return Response.from_json(payload)

    # -- query endpoints -----------------------------------------------------

    @staticmethod
    def _report_outcome(
        engine: FreeEngine, report: SearchReport
    ) -> _Outcome:
        corpus_size = len(engine.corpus)
        return _Outcome(
            response=Response.from_json(report.as_dict()),
            n_matches=report.n_matches,
            n_candidates=report.n_candidates,
            candidate_ratio=(
                report.n_candidates / corpus_size if corpus_size else None
            ),
        )

    async def _handle_search(
        self, request: Request, ident: RequestIdentity
    ) -> Response:
        body = request.json()
        pattern = self._pattern_of(body)
        limit = self._optional_int(body, "limit", minimum=1)
        collect = bool(body.get("collect_matches", True))

        def fn(engine: FreeEngine, trace: Trace) -> _Outcome:
            report = engine.search(
                pattern, limit=limit, collect_matches=collect,
                trace=trace,
            )
            return self._report_outcome(engine, report)

        return await self._submit("/search", pattern, fn, ident)

    async def _handle_first_k(
        self, request: Request, ident: RequestIdentity
    ) -> Response:
        body = request.json()
        pattern = self._pattern_of(body)
        k = self._optional_int(body, "k", minimum=1)
        if k is None:
            k = 10

        def fn(engine: FreeEngine, trace: Trace) -> _Outcome:
            report = engine.first_k(pattern, k=k, trace=trace)
            return self._report_outcome(engine, report)

        return await self._submit("/first_k", pattern, fn, ident)

    async def _handle_explain(
        self, request: Request, ident: RequestIdentity
    ) -> Response:
        pattern = request.query.get("pattern")
        if not pattern:
            raise HttpError(400, "/explain needs a ?pattern= parameter")
        analyze = request.query.get("analyze", "0") not in ("0", "", "no")

        def fn(engine: FreeEngine, trace: Trace) -> _Outcome:
            text = engine.explain(pattern, analyze=analyze)
            return _Outcome(response=Response.from_text(text + "\n"))

        return await self._submit("/explain", pattern, fn, ident)

    @staticmethod
    def _pattern_of(body: Dict[str, object]) -> str:
        pattern = body.get("pattern")
        if not isinstance(pattern, str) or not pattern:
            raise HttpError(
                400, "body must carry a non-empty string 'pattern'"
            )
        return pattern

    @staticmethod
    def _optional_int(
        body: Dict[str, object], key: str, minimum: int
    ) -> Optional[int]:
        value = body.get(key)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise HttpError(400, f"{key!r} must be an integer")
        if value < minimum:
            raise HttpError(400, f"{key!r} must be >= {minimum}")
        return value

    # -- admission + execution -----------------------------------------------

    async def _submit(
        self,
        endpoint: str,
        pattern: str,
        fn: Callable[[FreeEngine, Trace], _Outcome],
        ident: RequestIdentity,
    ) -> Response:
        if self._draining:
            return error_response(
                503, "service is draining; not accepting new queries"
            )
        timeout = self.config.timeout_seconds
        now = monotonic()
        job = _Job(
            endpoint=endpoint,
            pattern=pattern,
            fn=fn,
            future=asyncio.get_running_loop().create_future(),
            deadline=(now + timeout) if timeout is not None else None,
            ident=ident,
            trace=Trace(trace_id=ident.trace_id),
            enqueued_at=now,
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.stats.shed += 1
            retry_after = max(
                1, int(math.ceil(self.config.retry_after_seconds))
            )
            return error_response(
                429,
                "admission queue full; retry later",
                headers={"Retry-After": str(retry_after)},
            )
        self.stats.queries += 1
        response = await job.future
        if response.status == 200:
            self.stats.served += 1
        elif response.status == 504:
            self.stats.timeouts += 1
        elif response.status >= 500:
            self.stats.server_errors += 1
        else:
            self.stats.client_errors += 1
        return response

    async def _worker(self, slot: _EngineSlot) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            try:
                if job is None:
                    return
                self._inflight += 1
                try:
                    outcome = await loop.run_in_executor(
                        slot.executor, self._execute, slot, job
                    )
                    response = outcome.response
                except QueryTimeout as exc:
                    outcome = None
                    response = error_response(504, str(exc))
                except FreeError as exc:
                    outcome = None
                    response = error_response(400, str(exc))
                except Exception as exc:  # noqa: BLE001 - boundary
                    outcome = None
                    response = error_response(
                        500, f"{type(exc).__name__}: {exc}"
                    )
                finally:
                    self._inflight -= 1
                self._sample_trace(job, response)
                self._log_query(job, outcome, response)
                if not job.future.done():
                    job.future.set_result(response)
            finally:
                self._queue.task_done()

    def _sample_trace(self, job: _Job, response: Response) -> None:
        """Offer the finished request's trace to the sampled store.

        Runs BEFORE the response future resolves, so the connection
        handler sees ``ident.kept`` when it writes the ``traceparent``
        response header and the latency exemplar.
        """
        finished = monotonic()
        record = TraceRecord(
            trace_id=job.ident.trace_id,
            endpoint=job.endpoint,
            pattern=job.pattern,
            status=response.status,
            duration_seconds=finished - job.enqueued_at,
            ts_monotonic=finished,
            trace=job.trace,
            parent_span_id=job.ident.parent_span_id,
        )
        job.ident.kept = self.trace_store.offer(record) is not None

    def _execute(self, slot: _EngineSlot, job: _Job) -> _Outcome:
        """Run one job on the slot's thread under its deadline."""
        if job.deadline is not None and monotonic() >= job.deadline:
            raise QueryTimeout(
                "query spent its whole deadline in the admission queue"
            )
        slot.corpus.set_deadline(job.deadline)
        try:
            with job.trace.span(job.endpoint, pattern=job.pattern):
                return job.fn(slot.engine, job.trace)
        finally:
            slot.corpus.clear_deadline()

    # -- observability -------------------------------------------------------

    def _observe_request(
        self,
        endpoint: str,
        response: Response,
        elapsed: float,
        ident: Optional[RequestIdentity] = None,
    ) -> None:
        # Callers already clamp, but re-clamp at the metrics boundary
        # so no future call site can mint unbounded label values
        # (CONC005): the label vocabulary is the closed endpoint set.
        # The trace id rides as an exemplar, never as a label.
        endpoint = endpoint if endpoint in _KNOWN_ENDPOINTS else "other"
        self.registry.counter(
            "free_serve_requests_total",
            "HTTP requests served, by endpoint and status.",
            ["endpoint", "status"],
        ).labels(endpoint=endpoint, status=str(response.status)).inc()
        exemplar = (
            {"trace_id": ident.trace_id}
            if ident is not None and ident.kept
            else None
        )
        self.registry.histogram(
            "free_serve_request_seconds",
            "End-to-end HTTP request latency (queueing included).",
            ["endpoint"],
        ).labels(endpoint=endpoint).observe(elapsed, exemplar=exemplar)
        self.registry.gauge(
            "free_serve_queue_depth",
            "Jobs currently waiting in the admission queue.",
        ).unlabeled().set(self._queue.qsize())
        self.registry.gauge(
            "free_serve_inflight",
            "Queries currently executing on worker engines.",
        ).unlabeled().set(self._inflight)

    @staticmethod
    def _outcome_label(status: int) -> str:
        if status == 200:
            return "ok"
        if status == 504:
            return "timeout"
        if status >= 500:
            return "server_error"
        return "client_error"

    def _log_query(
        self,
        job: _Job,
        outcome: Optional[_Outcome],
        response: Response,
    ) -> None:
        if self._query_log is None:
            return
        finished = monotonic()
        entry: Dict[str, object] = {
            "ts_monotonic": finished,
            "trace_id": job.ident.trace_id,
            "endpoint": job.endpoint,
            "pattern": job.pattern,
            "status": response.status,
            "outcome": self._outcome_label(response.status),
            "latency_seconds": finished - job.enqueued_at,
            "timed_out": response.status == 504,
            "n_matches": outcome.n_matches if outcome else None,
            "n_candidates": outcome.n_candidates if outcome else None,
            "candidate_ratio": (
                outcome.candidate_ratio if outcome else None
            ),
            "phase_seconds": phase_seconds(job.trace),
            "sampled": job.ident.kept,
        }
        self._query_log.write(entry)


# -- running the service ------------------------------------------------------

def serve_forever(
    service: QueryService,
    on_start: Optional[Callable[[QueryService], None]] = None,
) -> None:
    """Run until SIGINT/SIGTERM, then drain and stop (the CLI path)."""

    async def _main() -> None:
        await service.start()
        if on_start is not None:
            on_start(service)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        await service.stop()

    asyncio.run(_main())


class ServerThread:
    """Run a :class:`QueryService` on a background thread.

    The load generator and the tests are synchronous callers; this
    wrapper owns a private event loop thread, exposes the bound port,
    and performs the same graceful drain on :meth:`stop` (or context
    exit) that the signal path performs.
    """

    def __init__(self, service: QueryService):
        self.service = service
        self._thread = threading.Thread(
            target=self._run, name="free-serve-loop", daemon=True
        )
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.service.start()
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop_event.wait()
        await self.service.stop()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise FreeError("serve thread failed to start in 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    @property
    def port(self) -> int:
        port = self.service.port
        if port is None:
            raise FreeError("service has no bound port (not started?)")
        return port

    @property
    def host(self) -> str:
        return self.service.config.host

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            loop, stop_event = self._loop, self._stop_event
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop_event.set)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
