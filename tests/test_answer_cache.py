"""The engine's answer cache.

A hit must be the cache-off answer, served without planning, fetching
or matching; the key must separate every input the answer depends on
(pattern, cover policy, distribution, index epoch, limit,
collect_matches); the cache must stay inside its byte budget; and a
warm ``free serve`` over a live ingest directory must keep answering
correctly across add, delete, seal and compact.
"""

import http.client
import json

import pytest

from repro import FreeEngine, InMemoryCorpus, build_multigram_index
from repro.index.builder import MultigramIndexBuilder
from repro.index.ingest import IngestDirectory
from repro.index.segmented import SegmentedFreeEngine
from repro.metrics import LRUCache
from repro.obs.registry import MetricsRegistry
from repro.plan.physical import CoverPolicy
from repro.serve.service import (
    QueryService,
    ServeConfig,
    ServerThread,
    build_slots,
)

TEXTS = [
    "william jefferson clinton spoke",
    "the cat sat on the mat",
    "motorola mpc750 and mpc7400 chips",
    "clinton and clinton again",
    "the cat ran after the other cat",
    "buy this mp3 song now",
    "nothing to see here at all",
    "hillary clinton",
]

#: Per-request fields of a payload: wall clock, the work counters of
#: this request (none on a hit) and its share of simulated I/O.
#: Everything else is the answer, and must not depend on the cache.
PER_REQUEST = ("timings", "metrics", "io_cost", "io_detail")

BUDGET = 1 << 20


def answer_of(payload):
    if not isinstance(payload, dict):
        payload = payload.as_dict()
    return {k: v for k, v in payload.items() if k not in PER_REQUEST}


@pytest.fixture()
def corpus():
    return InMemoryCorpus.from_texts(TEXTS)


@pytest.fixture()
def index(corpus):
    return build_multigram_index(corpus, threshold=0.5, max_gram_len=5)


def engines(corpus, index):
    off = FreeEngine(corpus, index, registry=MetricsRegistry())
    on = FreeEngine(
        corpus, index, answer_cache_bytes=BUDGET,
        registry=MetricsRegistry(),
    )
    return off, on


CALLS = {
    "search": lambda e: e.search("clinton"),
    "regex": lambda e: e.search("mpc[0-9]+"),
    "first_k_1": lambda e: e.first_k("clinton", k=1),
    "first_k_3": lambda e: e.first_k("clinton", k=3),
    "no_matches_collected": lambda e: e.search(
        "cat", collect_matches=False
    ),
    "null_plan_scan": lambda e: e.search("z*"),
}


class TestHitEqualsCacheOff:
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_hit_payload_equals_cache_off(self, corpus, index, call):
        off, on = engines(corpus, index)
        expected = answer_of(CALLS[call](off))
        miss = CALLS[call](on)
        hit = CALLS[call](on)
        assert miss.metrics.candidate_cache_hit is False
        assert hit.metrics.candidate_cache_hit is True
        assert answer_of(miss) == expected
        assert answer_of(hit) == expected

    def test_null_plan_hit_keeps_full_scan(self, corpus, index):
        _off, on = engines(corpus, index)
        on.search("z*")
        hit = on.search("z*")
        assert hit.used_full_scan
        assert hit.n_candidates == len(corpus)

    def test_hit_does_no_work(self, corpus, index):
        _off, on = engines(corpus, index)
        on.search("clinton")
        hit = on.search("clinton")
        metrics = hit.metrics
        assert metrics.plan_cache_hit is None
        assert metrics.matcher_cache_hit is None
        assert not metrics.lookups
        assert metrics.units_confirmed == 0
        assert metrics.random_accesses == metrics.sequential_chars == 0
        assert hit.io_cost == 0
        assert set(hit.io_detail.values()) == {0}
        assert "plan" in metrics.phase_seconds
        assert hit.total_seconds >= 0

    def test_search_batch(self, corpus, index):
        off, on = engines(corpus, index)
        patterns = ["clinton", "the cat", "clinton", "z*", "mp3"]
        expected = [answer_of(r) for r in off.search_batch(patterns)]
        first = on.search_batch(patterns)
        second = on.search_batch(patterns)
        assert [answer_of(r) for r in first] == expected
        assert [answer_of(r) for r in second] == expected
        assert all(r.metrics.candidate_cache_hit for r in second)
        # The in-batch repeat already hits the entry its first run made.
        assert first[2].metrics.candidate_cache_hit is True

    def test_hit_matches_are_the_callers_own(self, corpus, index):
        _off, on = engines(corpus, index)
        first = on.search("clinton")
        n = len(first.matches)
        on.search("clinton").matches.clear()
        assert len(on.search("clinton").matches) == n


class TestKey:
    def test_each_component_separates_entries(self, corpus, index):
        _off, engine = engines(corpus, index)

        def hit(**kwargs):
            return engine.search("clinton", **kwargs).metrics \
                .candidate_cache_hit

        assert hit() is False
        assert hit() is True
        assert hit(limit=1) is False
        assert engine.first_k("clinton", k=1).metrics.candidate_cache_hit
        assert hit(limit=2) is False
        assert hit(collect_matches=False) is False
        assert engine.search("clinto").metrics.candidate_cache_hit is False
        engine.cover_policy = CoverPolicy.BEST
        assert hit() is False
        engine.cover_policy = CoverPolicy.ALL
        engine.distribute = True
        assert hit() is False
        engine.distribute = False
        assert hit() is True
        index.epoch += 1
        assert hit() is False
        assert len(engine.answer_cache) == 8

    def test_stats_and_registry_count_answers(self, corpus, index):
        _off, engine = engines(corpus, index)
        engine.search("clinton")
        engine.search("clinton")
        stats = engine.cache_stats()["candidates"]
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert 0 < stats["weight"] <= BUDGET
        family = engine.registry.snapshot()["free_cache_requests_total"]
        assert family["samples"] == {
            "cache=answers,result=hit": 1.0,
            "cache=answers,result=miss": 1.0,
            "cache=matcher,result=miss": 1.0,
            "cache=plan,result=miss": 1.0,
        }


class TestByteBudget:
    def test_weighed_lru_evicts_to_fit(self):
        cache = LRUCache(10, weigh=len)
        cache.put("a", "xxxx")
        cache.put("b", "yyyy")
        assert cache.get("a") == "xxxx"  # b is now least recent
        cache.put("c", "zzzz")
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.weight == 8 and cache.evictions == 1
        cache.put("a", "x")  # overwrite reweighs
        assert cache.weight == 5

    def test_oversize_entry_never_stored(self):
        cache = LRUCache(10, weigh=len)
        cache.put("a", "xxxx")
        cache.put("big", "y" * 11)
        assert "big" not in cache and "a" in cache
        assert cache.weight == 4

    def test_zero_budget_stores_nothing(self):
        cache = LRUCache(0, weigh=len)
        cache.put("a", "x")
        assert len(cache) == 0 and cache.get("a") is None

    def test_engine_never_exceeds_budget(self, corpus, index):
        budget = 2000
        engine = FreeEngine(
            corpus, index, answer_cache_bytes=budget,
            registry=MetricsRegistry(),
        )
        patterns = [
            "clinton", "cat", "the", "mp3", "mpc[0-9]+", "[a-z]+",
            "a", "e", "t", "hillary", "z*", "(cat|mat)",
        ]
        for pattern in patterns * 2:
            engine.search(pattern)
            cache = engine.answer_cache
            assert cache.weight <= budget
            assert cache.weight == sum(
                answer.nbytes for answer in cache._data.values()
            )
        assert cache.evictions > 0

    def test_oversize_answer_not_stored(self, corpus, index):
        engine = FreeEngine(
            corpus, index, answer_cache_bytes=600,
            registry=MetricsRegistry(),
        )
        assert engine.search("[a-z]+").n_matches > 10
        assert len(engine.answer_cache) == 0
        again = engine.search("[a-z]+")
        assert again.metrics.candidate_cache_hit is False
        engine.search("hillary")  # one short match fits
        assert len(engine.answer_cache) == 1


class TestObservability:
    def test_hit_records_an_answer_cache_leaf_span(self, corpus, index):
        _off, engine = engines(corpus, index)
        engine.search("clinton")
        report = engine.search("clinton", trace=True)
        root = report.trace.root
        assert root.name == "search"
        assert [span.name for span in root.children] == ["answer_cache"]
        assert root.children[0].is_leaf

    def test_explain_analyze_says_answered_from_cache(self, corpus, index):
        _off, engine = engines(corpus, index)
        engine.search("clinton", collect_matches=False)
        text = engine.explain("clinton", analyze=True)
        assert "answered from cache" in text
        assert "candidate cache hit" not in text


def post(port, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST", path, json.dumps(payload),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        return json.loads(response.read())
    finally:
        conn.close()


class TestServeOverIngest:
    """The epoch-bump test: a warm server over a live ingest directory
    never answers from an entry older than the directory's contents."""

    PATTERNS = ["clinton", "cat", "mpc[0-9]+"]

    def check(self, port, directory):
        reference = SegmentedFreeEngine(
            directory.corpus, directory.index, registry=MetricsRegistry()
        )
        for pattern in self.PATTERNS:
            expected = answer_of(reference.search(pattern))
            cold = post(port, "/search", {"pattern": pattern})
            warm = post(port, "/search", {"pattern": pattern})
            assert answer_of(cold) == expected
            assert answer_of(warm) == expected
            assert warm["metrics"]["candidate_cache_hit"] is True
            first = post(port, "/first_k", {"pattern": pattern, "k": 1})
            assert answer_of(first) == answer_of(
                reference.first_k(pattern, k=1)
            )
        live = {
            unit.doc_id for unit in directory.corpus
            if "clinton" in unit.text
        }
        served = post(port, "/search", {"pattern": "clinton"})
        assert {m["doc_id"] for m in served["matches"]} == live

    def test_answers_follow_add_delete_seal_compact(self, tmp_path):
        with IngestDirectory(
            str(tmp_path / "ingest"),
            builder=MultigramIndexBuilder(threshold=0.5, max_gram_len=5),
            memtable_docs=3,
            registry=MetricsRegistry(),
        ) as directory:
            for text in TEXTS[:5]:
                directory.add(text)
            registry = MetricsRegistry()
            config = ServeConfig(port=0, workers=1)
            slots = build_slots(
                lambda: directory.corpus, directory.index, config, registry
            )
            service = QueryService(config, slots, registry=registry)
            with ServerThread(service) as thread:
                self.check(thread.port, directory)
                directory.add("clinton returns once more")
                self.check(thread.port, directory)
                directory.delete(0)
                self.check(thread.port, directory)
                directory.add("a cat and a clinton")
                directory.seal()
                self.check(thread.port, directory)
                directory.compact()
                self.check(thread.port, directory)
