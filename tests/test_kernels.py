"""The postings kernel's observable surface.

One stateless kernel runs every query's AND/OR set operations; its
name lands on every ``QueryMetrics``.  The end-to-end benchmark under
``e2ebench/`` reads that surface — ``engine.kernel`` (its name and its
``intersect_many``/``union_many``), the ``kernel=`` keyword of
``execute_plan`` and ``metrics.kernel_backend`` in the serve payload —
so :class:`TestHarnessContract` pins exactly what it reads.  The set
operations themselves are tested in ``tests/test_postings.py``.
"""

import http.client
import json

import pytest

from repro.corpus.store import DiskCorpus, InMemoryCorpus
from repro.engine.executor import execute_plan
from repro.engine.factory import open_engine
from repro.engine.free import FreeEngine
from repro.index.builder import build_multigram_index
from repro.index.postings import PYTHON_KERNEL, PostingsKernel
from repro.index.serialize import save_index
from repro.obs.registry import MetricsRegistry
from repro.serve.service import (
    QueryService,
    ServeConfig,
    ServerThread,
    build_slots,
)


class TestKernelObservability:
    @pytest.fixture()
    def corpus(self):
        texts = [f"motorola mpc{i} chip" for i in range(30)]
        return InMemoryCorpus.from_texts(texts)

    def _engine(self, corpus):
        index = build_multigram_index(
            corpus, threshold=0.4, max_gram_len=4
        )
        return FreeEngine(corpus, index)

    def test_metrics_record_backend(self, corpus):
        engine = self._engine(corpus)
        report = engine.search("mpc[0-9]+")
        assert report.metrics.kernel_backend == "python"
        assert report.metrics.as_dict()["kernel_backend"] == "python"
        assert "kernel: python" in report.metrics.pretty()

    def test_engine_kernel_is_postings_kernel(self, corpus):
        engine = self._engine(corpus)
        assert isinstance(engine.kernel, PostingsKernel)
        assert engine.kernel is PYTHON_KERNEL


class TestHarnessContract:
    PATTERNS = [
        "stanford",
        "motorola.*(xpc|mpc)[0-9]+",
        "(clinton|bush)",
        r"\a+,\s[a-z][a-z]\s\d\d\d\d\d",  # NULL plan
    ]

    @pytest.fixture()
    def images(self, corpus, multigram_index, tmp_path):
        corpus_path = str(tmp_path / "corpus.img")
        index_path = str(tmp_path / "index.img")
        DiskCorpus.save(corpus_path, corpus)
        save_index(multigram_index, index_path, version=2)
        return corpus_path, index_path

    def test_open_engine_kernel(self, images):
        corpus_path, index_path = images
        with DiskCorpus(corpus_path) as corpus, open_engine(
            corpus, index_path
        ) as engine:
            assert engine.kernel.name == "python"
            assert engine.kernel.intersect_many([[1, 2, 3], [2, 3]]) == [2, 3]
            assert engine.kernel.union_many([[1, 3], [2]]) == [1, 2, 3]

    def test_execute_plan_with_engine_kernel(self, images):
        corpus_path, index_path = images
        with DiskCorpus(corpus_path) as corpus, open_engine(
            corpus, index_path
        ) as engine:
            for pattern in self.PATTERNS:
                _logical, physical = engine.plan(pattern)
                assert execute_plan(
                    physical, engine.index, kernel=engine.kernel
                ) == execute_plan(physical, engine.index), pattern

    def test_serve_payload_names_the_kernel(self, corpus, multigram_index):
        registry = MetricsRegistry()
        config = ServeConfig(port=0, workers=1)
        slots = build_slots(lambda: corpus, multigram_index, config, registry)
        with ServerThread(QueryService(config, slots, registry)) as thread:
            conn = http.client.HTTPConnection("127.0.0.1", thread.port)
            try:
                conn.request("POST", "/search", json.dumps(
                    {"pattern": "stanford"}
                ), {"Content-Type": "application/json"})
                resp = conn.getresponse()
                status, body = resp.status, resp.read()
            finally:
                conn.close()
        assert status == 200
        assert json.loads(body)["metrics"]["kernel_backend"] == "python"
