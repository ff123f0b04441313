"""Sampling-based selectivity estimation (optimizer statistics).

The cost model of :mod:`repro.plan.cost` estimates *plan* selectivity
from postings sizes, but two quantities it cannot see are

* the selectivity of a gram that is **not indexed** (useless grams have
  no postings — yet Example 3.5 shows plans sometimes hinge on them),
* the selectivity of the **regex itself** (the result-set size, which
  drives confirmation cost and the first-k behaviour of Figure 11).

Both are classic cardinality-estimation problems; the classic answer is
a corpus sample.  :class:`SampledSelectivityEstimator` keeps a fixed
random sample of data units and answers either question by direct
measurement over the sample, with the standard binomial confidence
interval attached so callers can reason about estimate quality.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple, Union

from repro.corpus.store import CorpusStore
from repro.regex.matcher import Matcher


class SampledSelectivityEstimator:
    """Selectivity oracle over a fixed random sample of the corpus.

    Args:
        corpus: the data units to sample.
        sample_size: units to keep (whole corpus if smaller).
        seed: sampling seed; same seed -> same sample -> deterministic
            estimates.
    """

    def __init__(
        self,
        corpus: CorpusStore,
        sample_size: int = 64,
        seed: int = 0,
    ):
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        n = len(corpus)
        rng = random.Random(seed)
        if n <= sample_size:
            ids = list(range(n))
        else:
            ids = sorted(rng.sample(range(n), sample_size))
        self._texts: List[str] = [corpus.get(i).text for i in ids]
        self.sample_ids = ids
        self.corpus_size = n

    @property
    def sample_size(self) -> int:
        return len(self._texts)

    # -- estimates ----------------------------------------------------------

    def gram_selectivity(self, gram: str) -> float:
        """Estimated sel(gram) per Definition 3.1."""
        if not self._texts:
            return 0.0
        hits = sum(gram in text for text in self._texts)
        return hits / len(self._texts)

    def regex_selectivity(self, pattern: Union[str, Matcher]) -> float:
        """Estimated sel(r): fraction of units containing a match."""
        if not self._texts:
            return 0.0
        matcher = (
            pattern if isinstance(pattern, Matcher) else Matcher(pattern)
        )
        hits = sum(matcher.contains(text) for text in self._texts)
        return hits / len(self._texts)

    def confidence_interval(
        self, estimate: float, z: float = 1.96
    ) -> Tuple[float, float]:
        """Binomial (Wald) interval around a sample proportion."""
        n = max(len(self._texts), 1)
        margin = z * math.sqrt(max(estimate * (1 - estimate), 0.0) / n)
        return (max(0.0, estimate - margin), min(1.0, estimate + margin))

    def expected_matching_units(
        self, pattern: Union[str, Matcher]
    ) -> float:
        """Predicted count of matching units in the full corpus."""
        return self.regex_selectivity(pattern) * self.corpus_size

    def is_probably_useless(self, gram: str, threshold: float) -> bool:
        """Definition 3.4 verdict from the sample (advisory only)."""
        return self.gram_selectivity(gram) > threshold

    def __repr__(self) -> str:
        return (
            f"SampledSelectivityEstimator({self.sample_size} of "
            f"{self.corpus_size} units)"
        )
