"""Seeded input generators: the ``log`` corpus, pattern pools, op sequences.

Everything the product sees in a benchmark run comes from here (or from
the product's own ``SyntheticWeb`` for the ``web`` fixture) and is a
pure function of ``--seed``: the same seed gives the same lines and the
same op order, which ``digest`` makes checkable.

Seeds give *statistically equal* inputs, not merely random ones: the
vocabulary, the templates' shares and the pattern pools are fixed, and
the seed decides which word, id, host and IP each line carries and in
what order lines and requests come.  A latency that moved between two
seeds would say something about the draw, not about the code; the
benchmark's job is the code.

The log corpus is the many-short-units counterpart of the paper's web
pages (Zhang & Patel's log-analysis index, PAPERS.md): ~100-character
lines of timestamp, level, ``[component]`` and one of twelve message
templates filled with Zipf-distributed words, ids, IPs and hosts.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, List, Sequence, Tuple

DEFAULT_SEED = 20020226

_ONSETS = "b c d f g h j k l m n p r s t v w br cl dr fl gr pl st tr".split()
_NUCLEI = "a e i o u ai ea ou".split()
_CODAS = ["", "n", "r", "s", "t", "l", "m", "ck", "ng"]

N_WORDS = 400
N_HOSTS = 40


class LogVocabulary:
    """The corpus's words and hosts, with Zipf(1.1) draws over each."""

    def __init__(self) -> None:
        rng = random.Random("e2ebench-vocab")
        words: List[str] = []
        seen = set()
        while len(words) < N_WORDS:
            word = "".join(
                rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                for _ in range(rng.choice((2, 2, 3)))
            )
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        self.hosts = [
            f"{rng.choice(('web', 'db', 'app', 'mq'))}-{n:02d}"
            for n in range(N_HOSTS)
        ]
        self._word_cum = _zipf_cum(len(words))
        self._host_cum = _zipf_cum(len(self.hosts))

    def word(self, rng: random.Random) -> str:
        return rng.choices(self.words, cum_weights=self._word_cum)[0]

    def host(self, rng: random.Random) -> str:
        return rng.choices(self.hosts, cum_weights=self._host_cum)[0]


def _zipf_cum(n: int, exponent: float = 1.1) -> List[float]:
    total = 0.0
    cum = []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** exponent
        cum.append(total)
    return cum


VOCAB = LogVocabulary()


def _hex(rng: random.Random, n: int) -> str:
    return f"{rng.getrandbits(4 * n):0{n}x}"


def _ip(rng: random.Random) -> str:
    return f"10.{rng.randrange(8)}.{rng.randrange(256)}.{rng.randrange(256)}"


_Renderer = Callable[[LogVocabulary, random.Random], str]

#: (weight, level, component, message renderer).  Weights are lines per
#: block of 100 — two chatty templates, a long tail of rarer ones — and
#: every block holds exactly that many of each, shuffled, so a template's
#: share of the corpus does not depend on the seed.
_TEMPLATES: Sequence[Tuple[int, str, str, _Renderer]] = (
    (22, "INFO", "http", lambda v, r: (
        f"GET /api/{v.word(r)}/{v.word(r)} status=200 bytes={r.randrange(90000)}"
        f" latency={r.randrange(900)}ms host={v.host(r)}")),
    (14, "INFO", "auth", lambda v, r: (
        f"login ok user=u{r.randrange(100000):05d} ip={_ip(r)}"
        f" host={v.host(r)} session={_hex(r, 6)}")),
    (12, "INFO", "db", lambda v, r: (
        f"query ok table={v.word(r)} rows={r.randrange(5000)}"
        f" latency={r.randrange(400)}ms host={v.host(r)}")),
    (10, "DEBUG", "cache", lambda v, r: (
        f"miss key={v.word(r)}:{_hex(r, 6)} host={v.host(r)}")),
    (8, "INFO", "cache", lambda v, r: (
        f"evict key={v.word(r)}:{_hex(r, 6)} size={r.randrange(65536)}"
        f" host={v.host(r)}")),
    (8, "INFO", "sched", lambda v, r: (
        f"job {v.word(r)}-{_hex(r, 4)} finished in {r.randrange(60000)}ms"
        f" on {v.host(r)}")),
    (7, "WARN", "auth", lambda v, r: (
        f"login failed user=u{r.randrange(100000):05d} ip={_ip(r)}"
        f" host={v.host(r)} reason={v.word(r)}")),
    (6, "WARN", "queue", lambda v, r: (
        f"backlog depth={r.randrange(20000)} topic={v.word(r)}"
        f" consumer={v.host(r)}")),
    (5, "INFO", "mail", lambda v, r: (
        f"delivered to {v.word(r)}@{v.word(r)}.example.com id={_hex(r, 6)}"
        f" host={v.host(r)}")),
    (4, "ERROR", "http", lambda v, r: (
        f"POST /api/{v.word(r)} status=5{r.randrange(100):02d}"
        f" upstream={v.host(r)} latency={r.randrange(30000)}ms")),
    (2, "ERROR", "db", lambda v, r: (
        f"connection timeout table={v.word(r)} host={v.host(r)}"
        f" retry={r.randrange(9)}")),
    (2, "ERROR", "sched", lambda v, r: (
        f"job {v.word(r)}-{_hex(r, 4)} crashed exit={r.randrange(1, 140)}"
        f" on {v.host(r)}")),
)
_BLOCK = [t for t in _TEMPLATES for _ in range(t[0])]
assert len(_BLOCK) == 100


def log_lines(seed: int, n_lines: int) -> List[str]:
    """``n_lines`` log lines; a prefix of a longer run with the same
    seed is the same lines."""
    lines = []
    block: List[Tuple[int, str, str, _Renderer]] = []
    for i in range(n_lines):
        if i % len(_BLOCK) == 0:
            block = list(_BLOCK)
            random.Random(f"e2ebench-block:{seed}:{i}").shuffle(block)
        rng = random.Random(f"e2ebench-line:{seed}:{i}")
        _w, level, component, render = block[i % len(_BLOCK)]
        second = i // 7
        stamp = (
            f"2002-02-26T{second // 3600 % 24:02d}:{second // 60 % 60:02d}:"
            f"{second % 60:02d}.{rng.randrange(1000):03d}Z"
        )
        lines.append(f"{stamp} {level} [{component}] {render(VOCAB, rng)}")
    return lines


#: Multi-literal pattern families over the templates above, in the FREE
#: dialect.  ``{w}``/``{h}`` take a frequent word/host so every pattern
#: has hits; ``{d}`` a digit.  Each is built so leftmost-longest and
#: stdlib leftmost-greedy agree on every match (no alternative is a
#: prefix of another), which lets stdlib ``re`` be the whole oracle.
_FAMILIES: Sequence[str] = (
    r"\[db\] connection timeout table={w}",
    r"login failed user=u{d}\d+ .*reason={w}",
    r"status=5{d}\d upstream={h}",
    r"\[cache\] (miss|evict) key={w}:[0-9a-f]+",
    r"job {w}-[0-9a-f]+ (crashed|finished)",
    r"delivered to {w}@\a+\.example\.com",
    r"backlog depth=\d+ topic={w} consumer={h}",
    r"GET /api/{w}/\a+ status=200 .*host={h}",
)


def pattern_pool(size: int) -> List[str]:
    """The first ``size`` patterns of one fixed sequence.

    Pattern ``i`` is of family ``i % 8`` and is filled with the
    ``i // 8``-th most frequent word (and a host and digit that cycle
    with it), so pools of every size share a head of patterns over the
    longest postings lists, and no seed draws a cheaper pool than
    another.
    """
    pool = []
    for i in range(size):
        fill = i // len(_FAMILIES)
        pool.append(_FAMILIES[i % len(_FAMILIES)].format(
            w=VOCAB.words[fill],
            h=VOCAB.hosts[fill // 10 % len(VOCAB.hosts)],
            d=fill % 10,
        ))
    if len(set(pool)) != size:
        raise ValueError(f"cannot make {size} distinct patterns")
    return pool


#: ``serve_zipf`` traffic: a window of 40 requests, every fifth one cold.
SERVE_WINDOW = 40
SERVE_COLD_EVERY = 5
SERVE_HOT = 64


def _zipf_shares(n_slots: int, n_items: int) -> List[int]:
    """``n_slots`` split over ``n_items`` in Zipf(1.1) proportion,
    largest remainders first: the expected draw, without the draw."""
    cum = _zipf_cum(n_items)
    exact = [
        n_slots * (cum[i] - (cum[i - 1] if i else 0.0)) / cum[-1]
        for i in range(n_items)
    ]
    shares = [int(x) for x in exact]
    by_remainder = sorted(
        range(n_items), key=lambda i: (shares[i] - exact[i], i)
    )
    for i in by_remainder[: n_slots - sum(shares)]:
        shares[i] += 1
    return shares


def serve_ops(seed: int, n_patterns: int, n_ops: int) -> List[int]:
    """The ``serve_zipf`` request stream over a pool of ``n_patterns``.

    The first ``SERVE_HOT`` patterns are the hot set.  The hot slots of
    a window go to them in Zipf(1.1) proportion — the seed decides the
    order, not the shares — and every window repeats them, so they stay
    in the serve caches and always hit.  The rest of the pool is the
    cold tail, visited in a cycle longer than the 256-entry caches, so
    every cold request misses all of them.  One request in five is
    cold whatever the seed, so the miss share — which a latency
    percentile over mixed hits and misses hangs on — is the code's to
    move, not the draw's.
    """
    n_hot = min(SERVE_HOT, n_patterns // 2)
    n_hot_slots = SERVE_WINDOW - SERVE_WINDOW // SERVE_COLD_EVERY
    hot_slots = [
        item
        for item, share in enumerate(_zipf_shares(n_hot_slots, n_hot))
        for _ in range(share)
    ]
    random.Random(f"e2ebench-serve:{seed}").shuffle(hot_slots)
    n_cold = n_patterns - n_hot
    ops: List[int] = []
    cold = 0
    while len(ops) < n_ops:
        hot = iter(hot_slots)
        for slot in range(SERVE_WINDOW):
            if slot % SERVE_COLD_EVERY == SERVE_COLD_EVERY - 1:
                ops.append(n_hot + cold % n_cold)
                cold += 1
            else:
                ops.append(next(hot))
    return ops[:n_ops]


def digest(items: Sequence[object]) -> str:
    """sha256 over the items' text, one per line: two runs with equal
    digests drove the product with the same traffic."""
    sha = hashlib.sha256()
    for item in items:
        sha.update(str(item).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def describe(inputs: Dict[str, Sequence[object]]) -> Dict[str, str]:
    return {name: digest(items) for name, items in inputs.items()}
