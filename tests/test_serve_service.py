"""End-to-end tests for the ``free serve`` query service.

The servers run on a background event-loop thread (ServerThread) and
are driven through stdlib ``http.client`` — the same network path any
real client takes.  Covers the ISSUE acceptance points: byte-identical
results to the engine path, bounded-queue backpressure accounting,
cooperative per-query timeouts, graceful drain, and a ``/metrics``
payload that satisfies the strict CI parser.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import threading
import time

import pytest

from repro.corpus.document import DataUnit
from repro.corpus.store import CorpusStore, InMemoryCorpus
from repro.engine.factory import wrap_index
from repro.index.builder import build_multigram_index
from repro.obs.registry import MetricsRegistry, parse_prometheus_text
from repro.serve.service import (
    QueryService,
    RequestIdentity,
    ServeConfig,
    ServerThread,
    build_slots,
    slots_from_paths,
)


def request(port, method, path, payload=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body, headers)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def make_server(corpus, index, registry=None, **config_kwargs):
    registry = registry if registry is not None else MetricsRegistry()
    config = ServeConfig(port=0, **config_kwargs)
    slots = build_slots(lambda: corpus, index, config, registry)
    service = QueryService(config, slots, registry=registry)
    return ServerThread(service), slots


class SlowCorpus(CorpusStore):
    """A corpus whose unit reads take a fixed wall-clock delay."""

    def __init__(self, inner, delay):
        self._inner = inner
        self.delay = delay

    def __len__(self):
        return len(self._inner)

    def get(self, doc_id):
        time.sleep(self.delay)
        return self._inner.get(doc_id)

    def __iter__(self):
        for unit in self._inner:
            time.sleep(self.delay)
            yield unit

    @property
    def total_chars(self):
        return self._inner.total_chars


@pytest.fixture(scope="module")
def server(corpus, multigram_index):
    """One warm server over the shared test corpus, up for the module."""
    thread, _slots = make_server(
        corpus, multigram_index, workers=2, queue_depth=16,
        timeout_seconds=30.0, answer_cache_bytes=0,
    )
    with thread:
        yield thread


class TestEndpoints:
    def test_search_byte_identical_to_engine_path(self, corpus):
        """HTTP answers == engine answers, to the byte.

        Cache metrics (postings/plan hits) live partly in the *index*,
        so the two sides get twin indexes built from the same corpus
        and run the same query sequence in the same order — cache
        state then evolves in lockstep and even the hit/miss counters
        must serialize identically.
        """
        patterns = [
            r"stanford",
            r"motorola.*(xpc|mpc)[0-9]+",
            r"\a+,\s[a-z][a-z]\s\d\d\d\d\d",  # NULL plan -> full scan
            r"stanford",  # repeat: plan-cache hit on both sides
        ]
        index_served = build_multigram_index(corpus, threshold=0.1)
        index_local = build_multigram_index(corpus, threshold=0.1)
        thread, _slots = make_server(
            corpus, index_served, workers=1, answer_cache_bytes=0,
            plan_cache_size=128, matcher_cache_size=128,
        )
        with thread, wrap_index(
            corpus, index_local,
            plan_cache_size=128, matcher_cache_size=128,
        ) as engine:
            for pattern in patterns:
                status, _headers, body = request(
                    thread.port, "POST", "/search", {"pattern": pattern}
                )
                assert status == 200
                served = json.loads(body)
                local = engine.search(pattern).as_dict()
                # Drop the two wall-clock carriers; everything else
                # must agree to the byte (sort_keys on both sides).
                for payload in (served, local):
                    payload.pop("timings")
                    if payload["metrics"] is not None:
                        payload["metrics"].pop("phase_seconds", None)
                assert json.dumps(served, sort_keys=True) == json.dumps(
                    local, sort_keys=True
                ), pattern

    def test_first_k_truncates(self, server):
        status, _headers, body = request(
            server.port, "POST", "/first_k",
            {"pattern": "stanford", "k": 2},
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["truncated"]
        assert payload["n_matches"] == 2
        assert len(payload["matches"]) == 2

    def test_explain_returns_plan_text(self, server):
        status, headers, body = request(
            server.port, "GET", "/explain?pattern=stanford"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert body.decode().strip()

    def test_healthz_reports_state(self, server):
        status, _headers, body = request(server.port, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["workers"] == 2
        assert payload["queue_depth"] == 16
        assert payload["served"] >= 0
        assert payload["shed"] == 0

    def test_metrics_pass_the_strict_parser(self, server):
        request(server.port, "POST", "/search", {"pattern": "ebay"})
        status, headers, body = request(server.port, "GET", "/metrics")
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]
        text = body.decode()
        parse_prometheus_text(text)  # the free metrics --check gate
        assert "free_serve_requests_total" in text
        assert "free_serve_request_seconds" in text

    def test_unknown_path_is_404(self, server):
        status, _headers, _body = request(server.port, "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, _headers, _body = request(server.port, "GET", "/search")
        assert status == 405
        status, _headers, _body = request(
            server.port, "POST", "/metrics", {}
        )
        assert status == 405

    def test_malformed_json_is_400(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/search", "{nope",
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    def test_missing_pattern_is_400(self, server):
        status, _headers, body = request(
            server.port, "POST", "/search", {"limit": 3}
        )
        assert status == 400
        assert "pattern" in json.loads(body)["error"]

    def test_invalid_regex_is_400(self, server):
        status, _headers, _body = request(
            server.port, "POST", "/search", {"pattern": "["}
        )
        assert status == 400

    @pytest.mark.parametrize("pattern", [
        "x.{0,250}y", "(" * 300 + "a" + ")" * 300, "a{5000}",
    ], ids=["gap", "groups", "count"])
    def test_pattern_past_limits_is_400(self, server, pattern):
        status, _headers, body = request(
            server.port, "POST", "/search", {"pattern": pattern}
        )
        assert status == 400
        assert "limit" in json.loads(body)["error"]

    def test_bad_limit_is_400(self, server):
        for bad in (0, -2, "five", True):
            status, _headers, _body = request(
                server.port, "POST", "/search",
                {"pattern": "ebay", "limit": bad},
            )
            assert status == 400


def _tiny_corpus(n_units=40):
    return InMemoryCorpus([
        DataUnit(i, f"unit {i} padding text powerpc block")
        for i in range(n_units)
    ])


class TestBackpressure:
    def test_saturation_sheds_and_accounts_exactly(self):
        """Every request is either served or shed; the counts add up."""
        corpus = _tiny_corpus(30)
        index = build_multigram_index(corpus, threshold=0.3)
        slow = SlowCorpus(corpus, delay=0.01)
        thread, _slots = make_server(
            slow, index, workers=1, queue_depth=2, timeout_seconds=None,
        )
        n_requests = 12
        statuses = []
        lock = threading.Lock()

        def fire():
            status, headers, _body = request(
                thread.port, "POST", "/search",
                {"pattern": "powerpc", "collect_matches": False},
            )
            with lock:
                statuses.append((status, headers))

        with thread:
            clients = [
                threading.Thread(target=fire) for _ in range(n_requests)
            ]
            for c in clients:
                c.start()
            for c in clients:
                c.join()
        stats = thread.service.stats
        assert len(statuses) == n_requests
        n_ok = sum(1 for s, _h in statuses if s == 200)
        n_shed = sum(1 for s, _h in statuses if s == 429)
        assert n_ok + n_shed == n_requests  # nothing lost, no 5xx
        assert n_ok == stats.served
        assert n_shed == stats.shed
        assert stats.queries == stats.served  # all admitted completed
        assert stats.server_errors == 0
        # The queue (depth 2, one slow worker) must have overflowed.
        assert n_shed > 0
        retry_after = [
            h["Retry-After"] for s, h in statuses if s == 429
        ]
        assert retry_after and all(int(v) >= 1 for v in retry_after)

    def test_draining_service_answers_503(self):
        import asyncio

        corpus = _tiny_corpus(5)
        index = build_multigram_index(corpus, threshold=0.3)
        registry = MetricsRegistry()
        config = ServeConfig(port=0)
        slots = build_slots(lambda: corpus, index, config, registry)
        service = QueryService(config, slots, registry=registry)

        async def go():
            service._draining = True
            resp = await service._submit(
                "/search", "x", lambda engine, trace: None,
                RequestIdentity.of(None),
            )
            return resp.status

        assert asyncio.run(go()) == 503


class TestTimeouts:
    def test_deadline_cancels_the_running_query(self):
        """A 504 must also *stop the worker reading*, not just answer."""
        n_units = 60
        corpus = _tiny_corpus(n_units)
        index = build_multigram_index(corpus, threshold=0.3)
        slow = SlowCorpus(corpus, delay=0.05)
        thread, slots = make_server(
            slow, index, workers=1, queue_depth=4, timeout_seconds=0.2,
        )
        with thread:
            # A NULL-plan pattern: full scan, 60 units x 50ms = 3s
            # without the deadline.
            started = time.monotonic()
            status, _headers, body = request(
                thread.port, "POST", "/search",
                {"pattern": r"\d\d\d\d\d\d\d\d\d"},
            )
            elapsed = time.monotonic() - started
            assert status == 504
            assert "deadline" in json.loads(body)["error"]
            assert elapsed < 2.0  # nowhere near the 3s full read
            # The worker is immediately free for the next query.
            status, _headers, _body = request(
                thread.port, "POST", "/first_k",
                {"pattern": "powerpc", "k": 1},
            )
            assert status == 200
        deadline_corpus = slots[0].corpus
        # The timed-out scan read only a prefix of the corpus.
        assert deadline_corpus.reads < n_units
        assert thread.service.stats.timeouts == 1

    def test_queue_wait_counts_against_the_deadline(self):
        corpus = _tiny_corpus(40)
        index = build_multigram_index(corpus, threshold=0.3)
        slow = SlowCorpus(corpus, delay=0.05)
        thread, _slots = make_server(
            slow, index, workers=1, queue_depth=8, timeout_seconds=0.25,
        )
        scan = {"pattern": r"\d\d\d\d\d\d\d\d\d"}
        statuses = []
        lock = threading.Lock()

        def fire():
            status, _headers, _body = request(
                thread.port, "POST", "/search", scan
            )
            with lock:
                statuses.append(status)

        with thread:
            clients = [threading.Thread(target=fire) for _ in range(4)]
            for c in clients:
                c.start()
            for c in clients:
                c.join()
        # The first query burns the whole budget; the queued ones must
        # expire (in queue or at dequeue) rather than run serially to
        # completion.  All four time out; none may 5xx.
        assert statuses.count(504) == 4
        assert thread.service.stats.timeouts == 4


class TestShutdown:
    def test_graceful_drain_completes_inflight_query(self):
        corpus = _tiny_corpus(50)
        index = build_multigram_index(corpus, threshold=0.3)
        slow = SlowCorpus(corpus, delay=0.02)
        thread, slots = make_server(
            slow, index, workers=1, queue_depth=4, timeout_seconds=30.0,
        )
        result = {}

        def fire():
            result["response"] = request(
                thread.port, "POST", "/search",
                {"pattern": r"\d\d\d\d\d\d\d\d\d"},  # ~1s full scan
            )

        thread.start()
        client = threading.Thread(target=fire)
        client.start()
        time.sleep(0.3)  # the query is mid-confirmation now
        thread.stop()  # must drain, not kill
        client.join(timeout=30)
        status, _headers, body = result["response"]
        assert status == 200
        assert json.loads(body)["n_candidates"] == 50
        assert thread.service.stats.served == 1
        # stop() closed every engine slot (caches dropped, no pools).
        assert thread.service._stopped

    def test_stop_is_idempotent_via_context_manager(self):
        corpus = _tiny_corpus(5)
        index = build_multigram_index(corpus, threshold=0.3)
        thread, _slots = make_server(corpus, index)
        with thread:
            request(
                thread.port, "POST", "/search", {"pattern": "powerpc"}
            )
        thread.stop()  # second stop: no-op, no error


class TestQueryLog:
    def test_jsonl_log_records_every_query(
        self, corpus, multigram_index, tmp_path
    ):
        log_path = tmp_path / "queries.jsonl"
        thread, _slots = make_server(
            corpus, multigram_index, workers=1,
            query_log_path=str(log_path),
        )
        with thread:
            request(
                thread.port, "POST", "/search", {"pattern": "stanford"}
            )
            request(
                thread.port, "POST", "/first_k",
                {"pattern": "ebay", "k": 1},
            )
            request(thread.port, "POST", "/search",
                    {"pattern": "["})  # engine error: logged as 400
            request(thread.port, "GET", "/healthz")  # NOT logged
        entries = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(entries) == 3
        by_endpoint = [e["endpoint"] for e in entries]
        assert by_endpoint == ["/search", "/first_k", "/search"]
        ok = entries[0]
        assert ok["status"] == 200
        assert ok["pattern"] == "stanford"
        assert ok["latency_seconds"] > 0
        assert ok["n_matches"] is not None
        assert entries[2]["status"] == 400
        assert entries[2]["n_matches"] is None
        assert all("ts_monotonic" in e for e in entries)


class TestQueryLogRotation:
    def test_rotation_rolls_to_dot_one(self, tmp_path):
        from repro.serve.service import _QueryLog

        path = str(tmp_path / "queries.jsonl")
        log = _QueryLog(path, max_bytes=512)
        try:
            for i in range(100):
                log.write({"seq": i, "pattern": "x" * 32})
        finally:
            log.close()
        rolled = path + ".1"
        assert os.path.exists(rolled)
        assert os.path.getsize(path) <= 512
        # both generations hold whole, parseable JSON lines
        entries = []
        for name in (rolled, path):
            with open(name, encoding="utf-8") as handle:
                for line in handle:
                    assert line.endswith("\n")
                    entries.append(json.loads(line))
        seqs = [e["seq"] for e in entries]
        # the rollover keeps a contiguous, in-order tail
        assert seqs == list(range(seqs[0], 100))
        assert log.rotations > 0

    def test_single_oversized_line_does_not_loop(self, tmp_path):
        from repro.serve.service import _QueryLog

        path = str(tmp_path / "queries.jsonl")
        log = _QueryLog(path, max_bytes=64)
        try:
            log.write({"pattern": "y" * 500})  # bigger than max_bytes
            log.write({"pattern": "z" * 500})
        finally:
            log.close()
        # each oversized line lands before triggering a rotate, so the
        # live file plus one rollover hold one line each
        with open(path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1
        with open(path + ".1", encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_unbounded_by_default(self, tmp_path):
        from repro.serve.service import _QueryLog

        path = str(tmp_path / "queries.jsonl")
        log = _QueryLog(path)
        try:
            for i in range(50):
                log.write({"seq": i, "pattern": "x" * 64})
        finally:
            log.close()
        assert not os.path.exists(path + ".1")
        with open(path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 50

    def test_size_resumes_from_existing_file(self, tmp_path):
        from repro.serve.service import _QueryLog

        path = str(tmp_path / "queries.jsonl")
        first = _QueryLog(path, max_bytes=4096)
        first.write({"seq": 0})
        first.close()
        # a restart must count the bytes already on disk
        second = _QueryLog(path, max_bytes=4096)
        try:
            assert second._size == os.path.getsize(path)
        finally:
            second.close()

    def test_rotation_over_http(self, corpus, multigram_index, tmp_path):
        log_path = tmp_path / "queries.jsonl"
        thread, _slots = make_server(
            corpus, multigram_index, workers=1,
            query_log_path=str(log_path),
            query_log_max_bytes=256,
        )
        with thread:
            for _ in range(8):
                request(
                    thread.port, "POST", "/search",
                    {"pattern": "stanford", "collect_matches": False},
                )
            _status, _headers, body = request(
                thread.port, "GET", "/debug/vars"
            )
        vars_payload = json.loads(body)
        assert vars_payload["query_log"]["rotations"] >= 1
        rolled = str(log_path) + ".1"
        assert os.path.exists(rolled)
        for name in (rolled, str(log_path)):
            with open(name, encoding="utf-8") as handle:
                for line in handle:
                    json.loads(line)  # every line whole


class _TrackingCorpus(CorpusStore):
    """A corpus proxy that records whether close() was called."""

    def __init__(self, inner):
        self._inner = inner
        self.closed = False

    def __len__(self):
        return len(self._inner)

    def get(self, doc_id):
        return self._inner.get(doc_id)

    def __iter__(self):
        return iter(self._inner)

    @property
    def total_chars(self):
        return self._inner.total_chars

    def close(self):
        self.closed = True


class _ExplodingSlot:
    """Engine-slot stand-in whose close() can be made to raise."""

    def __init__(self, error=None):
        self.error = error
        self.closed = False

    def close(self):
        self.closed = True
        if self.error is not None:
            raise self.error


class TestLifecycle:
    def test_slots_from_ingest_directory(self, tmp_path):
        # An ingest directory path in place of an index image: the
        # directory is opened read-only once and every worker slot
        # serves out of its live corpus/index pair.
        from repro.index.builder import MultigramIndexBuilder
        from repro.index.ingest import IngestDirectory

        ingest_root = str(tmp_path / "ingest")
        with IngestDirectory(
            ingest_root,
            builder=MultigramIndexBuilder(
                threshold=0.3, max_gram_len=5
            ),
            memtable_docs=2,
            registry=MetricsRegistry(),
        ) as directory:
            directory.add("william jefferson clinton")
            directory.add("the cat sat on the mat")
            directory.add("cats and more cats")

        config = ServeConfig(port=0, workers=2)
        slots = slots_from_paths(
            "ignored-corpus-path", ingest_root, config,
            MetricsRegistry(),
        )
        try:
            assert len(slots) == config.workers
            for slot in slots:
                report = slot.engine.search(
                    "cat", collect_matches=True
                )
                assert report.n_matches == 3
        finally:
            for slot in slots:
                slot.close()

    def test_build_slots_closes_earlier_slots_on_failure(self):
        corpus = _tiny_corpus(8)
        index = build_multigram_index(corpus, threshold=0.3)
        opened = []

        def opener():
            if opened:
                raise RuntimeError("disk went away")
            tracked = _TrackingCorpus(corpus)
            opened.append(tracked)
            return tracked

        config = ServeConfig(port=0, workers=2)
        with pytest.raises(RuntimeError, match="disk went away"):
            build_slots(opener, index, config, MetricsRegistry())
        # Slot 0 was fully built before the second opener call blew
        # up; its corpus must not leak (RES001).
        assert opened[0].closed

    def test_stop_closes_every_slot_despite_errors(self):
        config = ServeConfig(port=0, workers=3)
        slots = [
            _ExplodingSlot(RuntimeError("first")),
            _ExplodingSlot(RuntimeError("second")),
            _ExplodingSlot(),
        ]
        service = QueryService(config, slots)
        with pytest.raises(RuntimeError, match="first"):
            asyncio.run(service.stop())
        assert all(slot.closed for slot in slots)
        assert service._stopped
        asyncio.run(service.stop())  # idempotent: no re-raise

    def test_stop_closes_query_log_after_slot_error(self, tmp_path):
        log_path = tmp_path / "queries.jsonl"
        config = ServeConfig(
            port=0, workers=1, query_log_path=str(log_path)
        )
        service = QueryService(
            config, [_ExplodingSlot(RuntimeError("boom"))]
        )
        with pytest.raises(RuntimeError, match="boom"):
            asyncio.run(service.stop())
        assert service._query_log is not None
        assert service._query_log._file is None
