"""The five workloads: what each runs, on which fixture, and why.

Names here are the vocabulary later performance issues cite; the
``why`` strings are copied into ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from e2ebench import gen

#: Figure 8 of the paper (the reconstruction in ``repro.bench.queries``),
#: copied so the benchmark's traffic cannot change under a product edit.
FIGURE8 = {
    "mp3": r'<a href=("|\')?[^>]*\.mp3("|\')?>',
    "ebay": r"ebay.*(auction|bidder)",
    "zip": r"\a+,\s[a-z][a-z]\s\d\d\d\d\d",
    "html": r"<[^>]*<",
    "clinton": r"william\s+[a-z]+\s+clinton",
    "powerpc": r"motorola.*(xpc|mpc)[0-9]+[0-9a-z]*",
    "script": r"<script>.*</script>",
    "phone": r"(\(\d\d\d\) |\d\d\d-)\d\d\d-\d\d\d\d",
    "sigmod": (
        r'<a\s+href\s*=\s*("|\')?[^>]*(\.ps|\.pdf)("|\')?>'
        r".{0,200}sigmod"
    ),
    "stanford": r"(\a|\d|-|_|\.)+((\a|\d)+\.)*stanford\.edu",
}

#: The seven queries the index helps, cycled by ``web_cold``.
WEB_COLD_QUERIES = (
    "mp3", "ebay", "clinton", "powerpc", "stanford", "sigmod", "script",
)
#: ``web_scan``: NULL or unselective plans.  zip, phone and script have
#: an anchoring literal, so the matcher only walks the pages that carry
#: it and their cost follows those pages' sizes; html and the three
#: class-only patterns (a capitalised three-word name, the Example 1.2
#: shape; five digits; a 13+ letter word) walk every character.  Four of
#: seven makes the median op a full walk — inside a latency cluster,
#: not between two.
WEB_SCAN_PATTERNS = (
    FIGURE8["zip"], FIGURE8["phone"], FIGURE8["html"], FIGURE8["script"],
    r"[A-Z]\a+ [A-Z]\a* [A-Z]\a+",
    r"\d\d\d\d\d",
    r"\a\a\a\a\a\a\a\a\a\a\a\a\a+",
)


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str  # "web" | "log" | "" (ingest_live builds its own state)
    regime: str  # "cold" | "warm" | "serve" | "ingest"
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "web_cold", "web", "cold",
        "one-shot search: open corpus+index, query, close; every cache "
        "is empty so regex compile, plan and open do the work, postings "
        "almost none",
    ),
    Workload(
        "web_scan", "web", "warm",
        "long-lived engine, NULL/unselective plans: matcher loop and "
        "sequential corpus reads do the work, the index none; a postings "
        "change must not move it",
    ),
    Workload(
        "log_warm", "log", "warm",
        "long-lived engine, 64 multi-literal patterns that fit the plan "
        "and matcher caches: directory lookup, postings decode and set "
        "ops dominate, regex compile does nothing",
    ),
    Workload(
        "serve_zipf", "log", "serve",
        "free serve subprocess, one keep-alive closed-loop connection; a "
        "Zipf(1.1) hot set that stays cached plus a cold cycle longer than "
        "the 256-entry caches: HTTP-bound hits, 1 in 5 a compile-bound miss",
    ),
    Workload(
        "ingest_live", "", "ingest",
        "writes beside reads on the segmented path: add 32 log lines, run "
        "3 queries, repeat; WAL, seal, compaction and multi-segment "
        "fan-out do the work; a reopen must find every acknowledged line",
    ),
)}


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  FULL is what ``BENCHMARK.json`` measures: as large
    as one fixture build, the measured seconds and the oracle allow
    inside the driver's budget of about 30 s a run on two cores, with
    ``web`` held where ``web_scan``'s full walks still give 200 samples.
    SMOKE only proves the plumbing."""

    web_pages: int
    log_lines: int
    warm_pool: int
    serve_pool: int
    serve_warmup: int
    ingest_lines: int  # per epoch
    ingest_pool: int


#: ``ingest_live`` epoch: 16 seals of 256 lines make four first-tier
#: merges and the second-tier merge of their outputs (4,096 lines); two
#: more seals and half a memtable leave the reopen three segments and a
#: WAL tail to find.
FULL = Sizes(
    web_pages=600, log_lines=15000, warm_pool=64, serve_pool=600,
    serve_warmup=3 * gen.SERVE_WINDOW, ingest_lines=4096 + 512 + 128,
    ingest_pool=16,
)
SMOKE = Sizes(
    web_pages=40, log_lines=600, warm_pool=16, serve_pool=40,
    serve_warmup=gen.SERVE_WINDOW, ingest_lines=512, ingest_pool=8,
)

#: Length of the ``serve_zipf`` request stream; the loop wraps past it.
MAX_OPS = 20000


def prepare(name: str, seed: int, sizes: Sizes) -> Dict[str, Any]:
    """The seed's patterns and op sequence (and lines) for a workload.

    ``ops`` indexes ``patterns``: one lap of the pool, or for
    ``serve_zipf`` a long request stream.  The measured loop walks it,
    wrapping around, until the time is up."""
    if name not in WORKLOADS:
        raise KeyError(name)
    if name == "serve_zipf":
        patterns = gen.pattern_pool(sizes.serve_pool)
        return {
            "patterns": patterns,
            "ops": gen.serve_ops(seed, len(patterns), MAX_OPS),
        }
    if name == "web_cold":
        patterns = [FIGURE8[q] for q in WEB_COLD_QUERIES]
    elif name == "web_scan":
        patterns = list(WEB_SCAN_PATTERNS)
    elif name == "log_warm":
        patterns = gen.pattern_pool(sizes.warm_pool)
    else:
        patterns = gen.pattern_pool(sizes.ingest_pool)
    inputs: Dict[str, Any] = {
        "patterns": patterns,
        "ops": list(range(len(patterns))),
    }
    if name == "ingest_live":
        inputs["lines"] = gen.log_lines(seed, sizes.ingest_lines)
    return inputs
