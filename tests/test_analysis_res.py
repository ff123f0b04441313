"""RES rule tests: resource-lifecycle rules over the ownership
lattice, including the two reconstructed pre-analyzer bug shapes
(the unmanaged CLI engine and the engine-registry strong-ref leak)."""

import os
import re
import textwrap

import pytest

from repro.analysis import check_concurrency_paths
from repro.analysis.res_checks import (
    KNOWN_FACTORIES,
    RULES,
    check_source,
)
from repro.errors import AnalysisError

FIXTURES = os.path.join(
    os.path.dirname(__file__), "fixtures", "concurrency"
)

RES_RULES = sorted(RULES)


def run(snippet):
    return check_source(textwrap.dedent(snippet), "snippet.py")


def codes(hits):
    return [finding.code for finding, _ in hits]


def read_fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
        return f.read()


class TestFixturePairs:
    @pytest.mark.parametrize("rule", RES_RULES)
    def test_bad_fixture_fires_exactly_its_rule(self, rule):
        name = rule.lower() + "_bad.py"
        hits = check_source(read_fixture(name), name)
        assert hits, f"{name} produced no findings"
        assert set(codes(hits)) == {rule}

    @pytest.mark.parametrize("rule", RES_RULES)
    def test_fixed_fixture_is_clean(self, rule):
        name = rule.lower() + "_fixed.py"
        assert check_source(read_fixture(name), name) == []

    @pytest.mark.parametrize("rule", RES_RULES)
    def test_justifications_are_machine_checkable(self, rule):
        name = rule.lower() + "_bad.py"
        hits = check_source(read_fixture(name), name)
        for _finding, justification in hits:
            assert justification.rule == rule
            assert re.match(
                rf"^{rule}: .+  \[.+\]$", justification.render()
            )


class TestPrePrSixShapes:
    """The two runtime bugs PR 6 fixed, reconstructed as fixtures,
    must be caught statically now."""

    def test_unmanaged_cli_engine_is_res001(self):
        hits = check_source(
            read_fixture("res001_bad.py"), "res001_bad.py"
        )
        finding, justification = hits[0]
        assert finding.code == "RES001"
        assert "FreeEngine" in finding.message
        assert "OPEN at the exit" in justification.fact

    def test_fork_shared_strong_ref_is_res003(self):
        hits = check_source(
            read_fixture("res003_bad.py"), "res003_bad.py"
        )
        assert codes(hits) == ["RES003", "RES003"]
        messages = " | ".join(f.message for f, _ in hits)
        assert "strong `self` reference" in messages
        assert "finalize" in messages


class TestEscape:
    def test_known_factory_leak(self):
        hits = run("""
        def build(corpus, index, flag):
            engine = FreeEngine(corpus, index)
            if flag:
                return None
            engine.close()
            return None
        """)
        assert codes(hits) == ["RES001"]

    def test_local_resource_class_is_tracked(self):
        hits = run("""
        class Conn:
            def close(self):
                pass

        def dial():
            conn = Conn()
            conn.ping()
            return None
        """)
        assert codes(hits) == ["RES001"]

    def test_canonical_factory_through_import(self):
        hits = run("""
        import mmap

        def view(fd, length):
            m = mmap.mmap(fd, length)
            m.madvise(0)
            return None
        """)
        assert codes(hits) == ["RES001"]

    def test_with_managed_is_clean(self):
        hits = run(read_fixture("res001_fixed.py"))
        assert hits == []

    def test_stored_on_self_is_transferred(self):
        hits = run("""
        class Holder:
            def attach(self, path):
                handle = open(path)
                self.handle = handle
        """)
        assert hits == []

    def test_shutdown_counts_as_close(self):
        hits = run("""
        from concurrent.futures import ThreadPoolExecutor

        def work(fn):
            pool = ThreadPoolExecutor(max_workers=1)
            pool.submit(fn)
            pool.shutdown()
            return None
        """)
        assert hits == []


class TestRaisingHandler:
    """A try-body exception edge carries the state before the raising
    statement, not the block's end state."""

    def test_bad_fixture_leaks_through_the_handler(self):
        hits = check_source(
            read_fixture("res001_try_bad.py"), "res001_try_bad.py"
        )
        assert codes(hits) == ["RES001"]
        assert "wrap_index" in hits[0][0].message

    def test_completed_binding_cannot_raise(self):
        hits = check_source(
            read_fixture("res001_try_fixed.py"), "res001_try_fixed.py"
        )
        assert hits == []

    def test_catch_all_inner_handler_shields_the_outer_one(self):
        # The serve slot-building shape: the corpus is closed by the
        # inner catch-all handler, so the outer handler never sees it
        # open; the engine is bound by the inner try's last statement.
        hits = run("""
        def build(opener, index, n):
            slots = []
            try:
                for _ in range(n):
                    corpus = DeadlineCorpus(opener())
                    try:
                        engine = wrap_index(corpus, index)
                    except BaseException:
                        corpus.close()
                        raise
                    slots.append((corpus, engine))
            except Exception:
                for slot in slots:
                    slot.close()
                raise
            return slots
        """)
        assert hits == []

    def test_narrow_inner_handler_still_reaches_the_outer_one(self):
        # ``except Exception`` lets a KeyboardInterrupt in wrap_index
        # propagate straight to the outer handler with the corpus open.
        hits = run("""
        def build(opener, index, n):
            slots = []
            try:
                for _ in range(n):
                    corpus = DeadlineCorpus(opener())
                    try:
                        engine = wrap_index(corpus, index)
                    except Exception:
                        corpus.close()
                        raise
                    slots.append((corpus, engine))
            except Exception:
                for slot in slots:
                    slot.close()
                raise
            return slots
        """)
        assert codes(hits) == ["RES001"]
        assert "'corpus'" in hits[0][0].message

    def test_raising_close_counts_as_closed(self):
        hits = run("""
        def f(path):
            handle = open(path)
            try:
                handle.close()
            finally:
                pass
        """)
        assert hits == []


class TestDoubleClose:
    def test_sequential_double_close(self):
        hits = run("""
        def f(path):
            handle = open(path)
            handle.close()
            handle.close()
        """)
        assert codes(hits) == ["RES002"]

    def test_branch_close_then_join_close_fires(self):
        hits = run("""
        def f(path, flag):
            handle = open(path)
            if flag:
                handle.close()
            else:
                handle.close()
            handle.close()
        """)
        assert codes(hits) == ["RES002"]

    def test_close_on_one_branch_only_is_not_definite(self):
        # MAY-closed is not MUST-closed: no RES002 (and no RES001 —
        # the final close covers the open path).
        hits = run("""
        def f(path, flag):
            handle = open(path)
            if flag:
                handle.close()
            handle.close()
        """)
        assert hits == []


class TestRegistries:
    def test_weakref_wrapped_store_is_clean(self):
        hits = run(read_fixture("res003_fixed.py"))
        assert hits == []

    def test_append_self_fires(self):
        hits = run("""
        _LIVE = []

        class Engine:
            def register(self):
                _LIVE.append(self)
        """)
        assert codes(hits) == ["RES003"]

    def test_local_container_is_not_a_registry(self):
        hits = run("""
        class Engine:
            def snapshot(self):
                live = []
                live.append(self)
                return live
        """)
        assert hits == []


class TestDelForCorrectness:
    def test_cleanup_del_fires(self):
        hits = run(read_fixture("res004_bad.py"))
        assert codes(hits) == ["RES004"]

    def test_empty_del_is_ignored(self):
        hits = run("""
        class C:
            def __del__(self):
                pass
        """)
        assert hits == []


class TestEngineContract:
    def test_rule_registry_complete(self):
        assert RES_RULES == ["RES001", "RES002", "RES003", "RES004"]

    def test_factory_vocabulary_covers_the_serve_stack(self):
        assert {
            "FreeEngine", "SegmentedFreeEngine", "DiskCorpus",
            "ProcessPoolExecutor", "open",
        } <= KNOWN_FACTORIES

    def test_syntax_error_raises_analysis_error(self):
        with pytest.raises(AnalysisError):
            check_source("class (:\n", "bad.py")

    def test_unreadable_file_raises_analysis_error(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        real_open = open

        def failing_open(path, *args, **kwargs):
            if str(path) == str(target):
                raise OSError("permission denied")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", failing_open)
        with pytest.raises(AnalysisError, match="cannot read"):
            check_concurrency_paths([str(tmp_path)])

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError):
            check_concurrency_paths(["/no/such/path/anywhere"])

    def test_noqa_suppresses_and_drops_justification(self, tmp_path):
        source = textwrap.dedent("""
        def f(path):
            handle = open(path)  # noqa: RES001
            handle.read()
        """)
        target = tmp_path / "mod.py"
        target.write_text(source)
        findings, justifications = check_concurrency_paths(
            [str(target)]
        )
        assert findings == []
        assert justifications == {}
