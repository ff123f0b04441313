"""The correctness oracle: stdlib ``re`` over the raw texts.

Independent of the product on purpose — the FREE dialect is translated
here, not by ``repro.regex.matcher.to_stdlib_pattern`` — so a wrong
answer cannot hide behind a shared bug.  Every pattern the workloads
issue is built so leftmost-longest (FREE) and leftmost-greedy (``re``)
enumerate the same non-overlapping matches, which lets ``re`` check the
match count as well as the matching unit ids.
"""

from __future__ import annotations

import re
import zlib
from typing import Any, Dict, List, Pattern, Sequence


def ids_crc(ids: Sequence[int]) -> int:
    return zlib.crc32(repr(list(ids)).encode("ascii"))


def to_re(pattern: str) -> Pattern[str]:
    """FREE dialect -> ``re``: ``\\a`` is ASCII alphabetic, dot spans
    newlines, the shorthands are ASCII-only."""
    return re.compile(
        pattern.replace("\\a", "[A-Za-z]"), re.DOTALL | re.ASCII
    )


def match_counts(pattern: str, texts: Sequence[str]) -> List[int]:
    """Non-overlapping matches per text."""
    compiled = to_re(pattern)
    search, finditer = compiled.search, compiled.finditer
    return [
        0 if search(text) is None else sum(1 for _ in finditer(text))
        for text in texts
    ]


def count_failures(
    samples: Sequence[Dict[str, Any]],
    patterns: Sequence[str],
    texts: Sequence[str],
) -> int:
    """Samples that errored or disagree with ``re``.

    A sample is ``{"p": pattern index, "res": [units, matches, crc] or
    None, "at": n}``; ``at`` (``ingest_live``) limits the corpus to its
    first ``n`` texts, the lines acknowledged when the query ran.
    """
    counts: Dict[int, List[int]] = {}
    expected: Dict[Any, List[int]] = {}
    failed = 0
    for sample in samples:
        if sample["res"] is None:
            failed += 1
            continue
        p = sample["p"]
        key = (p, sample.get("at", len(texts)))
        if key not in expected:
            if p not in counts:
                counts[p] = match_counts(patterns[p], texts)
            visible = counts[p][: key[1]]
            ids = [doc_id for doc_id, n in enumerate(visible) if n]
            expected[key] = [len(ids), sum(visible), ids_crc(ids)]
        if sample["res"] != expected[key]:
            failed += 1
    return failed
