"""Memory guard: what a cached compiled matcher retains.

`free serve` keeps 256 compiled matchers, so the ``serve_zipf``
benchmark's ``peak_rss_mb`` moves with the bytes one matcher retains.
The scan kernel's flat transition table *replaces* the nested table and
every entry that leads to one state is the same ``int`` object (8 bytes
an entry); a second copy of the table, or a fresh ``int`` per entry,
shows up here long before it shows up in a benchmark run.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.regex.matcher import Matcher

#: Retained per matcher on this pool before the flat table (nested
#: ``table[state][block]`` rows plus ``accepting`` and ``classmap``
#: lists): 40.8 KB on CPython 3.11.  The flat table measures 33.7 KB.
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
        gc.collect()
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matchers) == 256
    kb_per_matcher = (after - before) / len(matchers) / 1024
    assert kb_per_matcher <= PARENT_KB_PER_MATCHER, kb_per_matcher
