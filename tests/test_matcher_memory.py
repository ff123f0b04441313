"""Memory guard: what a cached compiled matcher retains.

`free serve` keeps 256 compiled matchers, so the ``serve_zipf``
benchmark's ``peak_rss_mb`` moves with the bytes one matcher retains.
The scan kernel's flat transition table *replaces* the nested table and
every entry that leads to one state is the same ``int`` object (8 bytes
an entry); a second copy of the table, or a fresh ``int`` per entry,
shows up here long before it shows up in a benchmark run.  A matcher is
measured after it has scanned one log line, so what a scan adds (the
search automaton's compiled escape classes and jump records) counts.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.regex.matcher import Matcher

#: Retained per matcher on this pool before the flat table (nested
#: ``table[state][block]`` rows plus ``accepting`` and ``classmap``
#: lists): 40.8 KB on CPython 3.11.  The flat table measures 33.7 KB
#: right after compile and 34.2 KB after the one-line scan below.
PARENT_KB_PER_MATCHER = 40.8

#: The log pattern families of the serve benchmark's pool.
FAMILIES = (
    r"\[db\] connection timeout table={w}",
    r"login failed user=u{d}\d+ .*reason={w}",
    r"status=5{d}\d upstream={h}",
    r"\[cache\] (miss|evict) key={w}:[0-9a-f]+",
    r"job {w}-[0-9a-f]+ (crashed|finished)",
    r"delivered to {w}@\a+\.example\.com",
    r"backlog depth=\d+ topic={w} consumer={h}",
    r"GET /api/{w}/\a+ status=200 .*host={h}",
)


#: One line of the serve benchmark's log shape, scanned by every matcher.
LOG_LINE = (
    "2024-05-01T12:00:00Z host-00 [db] connection timeout table=w000 "
    "status=500 upstream=host-00 reason=w000 user=u01234"
)


def log_pattern_pool(size: int):
    return [
        FAMILIES[i % 8].format(
            w=f"w{i // 8:03d}", h=f"host-{i // 80:02d}", d=i // 8 % 10
        )
        for i in range(size)
    ]


def test_cached_matchers_retain_no_more_than_before_the_flat_table():
    pool = log_pattern_pool(256)
    Matcher(pool[0])  # module-level state is not the matchers'
    gc.collect()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        matchers = [Matcher(pattern) for pattern in pool]
        for matcher in matchers:
            for _span in matcher.finditer(LOG_LINE):
                pass
        gc.collect()
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matchers) == 256
    kb_per_matcher = (after - before) / len(matchers) / 1024
    assert kb_per_matcher <= PARENT_KB_PER_MATCHER, kb_per_matcher
