"""A simulated disk: sequential vs random access cost accounting.

The paper's headline numbers are wall-clock seconds on 2001 hardware;
what generalizes is the *cost structure*: a full scan reads the whole
corpus sequentially, while an index run reads postings plus a random
access per candidate unit.  Section 3.1 makes the link explicit — "if a
random access to data units on disk is 10 times slower than sequential
access, then 0.1 would be a good candidate for the value of c".

:class:`DiskModel` charges both access kinds in *char-read units* (cost
1.0 = reading one character sequentially).  Engines report this
simulated cost next to wall time; EXPERIMENTS.md compares figure shapes
on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.metrics import QueryMetrics


@dataclass
class DiskModel:
    """Accumulates simulated I/O cost.

    Attributes:
        sequential_cost_per_char: cost of one sequentially-read char.
        random_multiplier: how much more a randomly-accessed char costs
            (the paper's 10x; pairs with the default threshold c = 0.1).
        posting_cost_chars: cost of reading one posting entry from a
            postings list (a compressed integer, ~ a few chars).

    A :class:`~repro.metrics.QueryMetrics` can be attached for the
    duration of one query; every charge is then mirrored into it, so a
    query's report carries its own share of the shared disk's I/O.
    """

    sequential_cost_per_char: float = 1.0
    random_multiplier: float = 10.0
    posting_cost_chars: float = 4.0

    sequential_chars: int = field(default=0, init=False)
    random_chars: int = field(default=0, init=False)
    postings_read: int = field(default=0, init=False)
    random_accesses: int = field(default=0, init=False)
    write_chars: int = field(default=0, init=False)

    _metrics: Optional[QueryMetrics] = field(
        default=None, init=False, repr=False, compare=False
    )

    def attach_metrics(self, metrics: QueryMetrics) -> None:
        """Mirror subsequent charges into ``metrics`` (one at a time)."""
        self._metrics = metrics

    def detach_metrics(self) -> None:
        self._metrics = None

    def charge_sequential(self, n_chars: int) -> None:
        """A forward streaming read of ``n_chars`` (corpus scan)."""
        self.sequential_chars += n_chars
        if self._metrics is not None:
            self._metrics.sequential_chars += n_chars

    def charge_random(self, n_chars: int) -> None:
        """A seek + read of one data unit (candidate confirmation)."""
        self.random_accesses += 1
        self.random_chars += n_chars
        if self._metrics is not None:
            self._metrics.random_accesses += 1
            self._metrics.random_chars += n_chars

    def charge_write(self, n_chars: int) -> None:
        """A forward streaming write of ``n_chars`` (segment seal or
        compaction rewrite; charged at the sequential rate — LSM
        maintenance is exactly the sequential-I/O trade the lifecycle
        makes to keep queries on mmap images)."""
        self.write_chars += n_chars

    def charge_postings(self, n_postings: int) -> None:
        """Reading a postings list (they are stored contiguously)."""
        self.postings_read += n_postings
        if self._metrics is not None:
            self._metrics.postings_charged += n_postings

    @property
    def total_cost(self) -> float:
        """Total simulated cost in char-read units."""
        return (
            self.sequential_chars * self.sequential_cost_per_char
            + self.random_chars
            * self.sequential_cost_per_char
            * self.random_multiplier
            + self.postings_read * self.posting_cost_chars
            + self.write_chars * self.sequential_cost_per_char
        )

    def reset(self) -> None:
        self.sequential_chars = 0
        self.random_chars = 0
        self.postings_read = 0
        self.random_accesses = 0
        self.write_chars = 0

    def snapshot(self) -> dict:
        """A plain-dict view for reports."""
        return {
            "sequential_chars": self.sequential_chars,
            "random_chars": self.random_chars,
            "random_accesses": self.random_accesses,
            "postings_read": self.postings_read,
            "write_chars": self.write_chars,
            "total_cost": self.total_cost,
        }
