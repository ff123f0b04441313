"""PCY-style hash filtering for the multigram miner.

Section 3.1 notes that "we can apply other optimizations for
frequent-set mining to our context"; the paper cites Park, Chen & Yu's
hash-based a-priori refinement [PCY, SIGMOD '95].  The adaptation to
gram mining:

While scanning the corpus for exact counts of length-k candidates, also
*hash* every (k + batch)-gram occurrence into a compact bucket array.
Bucket counts are upper bounds on occurrence counts, which in turn bound
document frequency, so in the next pass:

    bucket[h(g)] <= c * N   =>   df(g) <= c * N   =>   g is USEFUL

Such grams can be classified *without an exact-count dictionary entry* —
and on a Zipfian corpus the vast majority of candidate grams are rare,
so the exact-count dictionary shrinks dramatically (the ablation
measures by how much).  Grams whose bucket overflows (their own weight
or collisions) fall back to exact counting; the filter is one-sided, so
the selected key set is *identical* with and without it (asserted in
tests).
"""

from __future__ import annotations

from array import array


class PCYHashFilter:
    """A bucket-count array over gram hashes for one gram length.

    Args:
        bits: log2 of the bucket count (e.g. 18 -> 262,144 buckets).
        threshold: the usefulness count ceiling (c * N); buckets are
            saturated at threshold + 1 to keep the array small ints.
    """

    __slots__ = ("_mask", "_threshold", "_buckets", "added")

    def __init__(self, bits: int, threshold: float):
        if not 8 <= bits <= 28:
            raise ValueError("hash filter bits must be in [8, 28]")
        size = 1 << bits
        self._mask = size - 1
        self._threshold = threshold
        self._buckets = array("I", bytes(4 * size))
        self.added = 0

    def add(self, gram: str) -> None:
        """Record one occurrence of ``gram``."""
        slot = hash(gram) & self._mask
        self._buckets[slot] += 1
        self.added += 1

    def surely_useful(self, gram: str) -> bool:
        """True when the bucket proves df(gram) <= threshold.

        One-sided: False means "unknown", not "useless".
        """
        return self._buckets[hash(gram) & self._mask] <= self._threshold

    @property
    def saturation(self) -> float:
        """Fraction of buckets above the threshold (diagnostics)."""
        over = sum(1 for b in self._buckets if b > self._threshold)
        return over / len(self._buckets)
