"""FREE — a Fast Regular Expression Indexing Engine.

A faithful, from-scratch Python reproduction of Cho & Rajagopalan,
*A Fast Regular Expression Indexing Engine* (ICDE 2002): a multigram
inverted index over a text corpus, a query compiler that turns a regex
into a Boolean index access plan, and a runtime that confirms candidate
data units with a finite-automaton matcher.

Quickstart::

    from repro import build_corpus, build_multigram_index, FreeEngine

    corpus = build_corpus(n_pages=500, seed=7)
    index = build_multigram_index(corpus, threshold=0.1, max_gram_len=10)
    engine = FreeEngine(corpus, index)
    report = engine.search(r"motorola.*(xpc|mpc)[0-9]+[0-9a-z]*")
    print(report.summary())
    for text, count in engine.frequency_ranked(r"Thomas \\a+ Edison", top=3):
        print(count, text)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every table and figure.
"""

from __future__ import annotations

from repro.analysis import AnalysisReport, Finding, Severity, run_check
from repro.corpus import (
    CorpusConfig,
    CorpusStore,
    DataUnit,
    DiskCorpus,
    InMemoryCorpus,
    SyntheticWeb,
    build_corpus,
)
from repro.engine import (
    FreeEngine,
    Match,
    ScanEngine,
    SearchReport,
    frequency_ranked,
)
from repro.errors import (
    AnalysisError,
    CorpusError,
    FreeError,
    IndexBuildError,
    InternalError,
    PlanError,
    RegexSyntaxError,
    SerializationError,
)
from repro.index import (
    GramIndex,
    IndexStats,
    MultigramIndexBuilder,
    PCYHashFilter,
    PostingsList,
    SegmentedFreeEngine,
    SegmentedGramIndex,
    ShardedIndex,
    SuffixArrayIndex,
    build_complete_index,
    build_multigram_index,
    presuf_shell,
    shard_ranges,
)
from repro.index.serialize import (
    load_any_index,
    load_index,
    load_sharded_index,
    save_index,
    save_sharded_index,
)
from repro.iomodel import DiskModel
from repro.metrics import LRUCache, QueryMetrics
from repro.plan import CoverPolicy, LogicalPlan, PhysicalPlan
from repro.regex import Matcher, compile_matcher, parse

__version__ = "1.0.0"

__all__ = [
    # corpus
    "DataUnit",
    "CorpusStore",
    "InMemoryCorpus",
    "DiskCorpus",
    "CorpusConfig",
    "SyntheticWeb",
    "build_corpus",
    # index
    "GramIndex",
    "IndexStats",
    "PostingsList",
    "MultigramIndexBuilder",
    "build_multigram_index",
    "build_complete_index",
    "presuf_shell",
    "save_index",
    "load_index",
    "save_sharded_index",
    "load_sharded_index",
    "load_any_index",
    "PCYHashFilter",
    "SegmentedGramIndex",
    "SegmentedFreeEngine",
    "ShardedIndex",
    "shard_ranges",
    "SuffixArrayIndex",
    # plan
    "LogicalPlan",
    "PhysicalPlan",
    "CoverPolicy",
    # engine
    "FreeEngine",
    "ScanEngine",
    "Match",
    "SearchReport",
    "frequency_ranked",
    "DiskModel",
    "LRUCache",
    "QueryMetrics",
    # regex
    "Matcher",
    "compile_matcher",
    "parse",
    # analysis
    "AnalysisReport",
    "Finding",
    "Severity",
    "run_check",
    # errors
    "FreeError",
    "RegexSyntaxError",
    "IndexBuildError",
    "PlanError",
    "CorpusError",
    "SerializationError",
    "InternalError",
    "AnalysisError",
    "__version__",
]
