"""Physical index access plans (Section 4.3).

The physical plan adjusts a logical plan to the keys an index actually
has.  For each GRAM leaf ``g`` there are three cases:

1. ``g`` is itself a key -> a single index lookup;
2. ``g`` is not a key but some keys occur as substrings of ``g``
   (it was useful-but-not-minimal, or presuf-pruned; Observation 3.14
   guarantees this case for every useful gram) -> replace ``g`` by the
   AND of (a subset of) those lookups, per the *cover policy*;
3. no key occurs inside ``g`` (``g`` and all its substrings are
   useless) -> NULL.

NULL nodes are then eliminated with Table 2 again.  A plan that
collapses to NULL means "scan everything".

Cover policies (the paper uses 'all'; 'best'/'cheapest' are the simple
cost-based refinements Section 4.1 leaves to future work, ablated in
``benchmarks/bench_ablation_plans.py``):

* ``all`` — AND every available substring key (the paper's rule);
* ``best`` — use only the most selective (rarest) key;
* ``cheapest2`` — AND the two rarest keys.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.errors import PlanError
from repro.index.multigram import GramIndex
from repro.obs.trace import Trace, maybe_span
from repro.plan.logical import LogicalPlan
from repro.regex.rewrite import Req, ReqAnd, ReqAny, ReqGram, ReqOr

if TYPE_CHECKING:
    from repro.metrics import QueryMetrics


class CoverPolicy(str, enum.Enum):
    """How to turn a pruned gram's available substrings into lookups."""

    ALL = "all"
    BEST = "best"
    CHEAPEST2 = "cheapest2"


class PhysNode:
    """Base class of physical plan nodes (immutable values)."""

    __slots__ = ()


class PAll(PhysNode):
    """NULL: every data unit is a candidate."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ALL"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PAll)

    def __hash__(self) -> int:
        return hash("PAll")


class PLookup(PhysNode):
    """One index lookup."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        object.__setattr__(self, "key", key)

    def __repr__(self) -> str:
        return f"LOOKUP({self.key!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PLookup) and self.key == other.key

    def __hash__(self) -> int:
        return hash(("PLookup", self.key))


class PAnd(PhysNode):
    __slots__ = ("children",)

    def __init__(self, children: Tuple[PhysNode, ...]):
        object.__setattr__(self, "children", tuple(children))

    def __repr__(self) -> str:
        return "AND(" + ", ".join(map(repr, self.children)) + ")"

    def __eq__(self, other: object) -> bool:
        # Exact-type match: a COVER with the same children is *not*
        # equal — its children are correlated and the cost model treats
        # it differently, so _dedup must never merge the two.
        return type(other) is PAnd and self.children == other.children

    def __hash__(self) -> int:
        return hash(("PAnd", self.children))


class PCover(PAnd):
    """AND of the covering lookups of one pruned gram (Section 4.3).

    Executes exactly like :class:`PAnd`; exists so the cost model knows
    these children are *perfectly correlated* — every one of them
    contains all the gram's documents — and estimates the node's
    selectivity as the minimum child selectivity instead of the
    independence product (which under-counts by orders of magnitude on
    covers like ``mot AND oro AND ola`` for ``motorola``).
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "COVER(" + ", ".join(map(repr, self.children)) + ")"

    def __eq__(self, other: object) -> bool:
        return type(other) is PCover and self.children == other.children

    def __hash__(self) -> int:
        return hash(("PCover", self.children))


class POr(PhysNode):
    __slots__ = ("children",)

    def __init__(self, children: Tuple[PhysNode, ...]):
        object.__setattr__(self, "children", tuple(children))

    def __repr__(self) -> str:
        return "OR(" + ", ".join(map(repr, self.children)) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, POr) and self.children == other.children

    def __hash__(self) -> int:
        return hash(("POr", self.children))


@dataclass(frozen=True)
class PhysicalPlan:
    """An executable access plan against one concrete index."""

    pattern: str
    root: PhysNode
    #: grams of the logical plan that had no available key (went NULL).
    unavailable_grams: Tuple[str, ...] = ()

    @property
    def is_full_scan(self) -> bool:
        """True when the plan cannot restrict candidates at all."""
        return isinstance(self.root, PAll)

    def lookups(self) -> List[str]:
        """Every key the plan reads, in plan order."""
        keys: List[str] = []
        _collect_lookups(self.root, keys)
        return keys

    def pretty(self, annotations: Optional[dict] = None) -> str:
        """Indented tree dump.

        ``annotations`` optionally maps lookup keys to suffix strings
        appended to their LOOKUP lines (``explain --analyze`` uses this
        to print actual postings sizes next to each lookup).
        """
        lines = [f"PhysicalPlan for {self.pattern!r}:"]
        _render(self.root, 1, lines, annotations)
        if self.unavailable_grams:
            lines.append(
                "  (grams with no index entry: "
                + ", ".join(repr(g) for g in self.unavailable_grams)
                + ")"
            )
        return "\n".join(lines)

    @staticmethod
    def compile(
        logical: LogicalPlan,
        index: GramIndex,
        policy: Union[CoverPolicy, str] = CoverPolicy.ALL,
    ) -> "PhysicalPlan":
        """Adjust ``logical`` to the keys available in ``index``."""
        policy = CoverPolicy(policy)
        missing: List[str] = []
        root = _compile(logical.root, index, policy, missing)
        return PhysicalPlan(
            pattern=logical.pattern,
            root=root,
            unavailable_grams=tuple(missing),
        )


class CompiledPlans:
    """One pattern's logical plan plus its physical plan per index part.

    The entry type of the engine's plan cache.  A physical plan is a
    pure function of (logical plan, cover policy, index contents), so
    each one is kept against the index object it was compiled for
    together with that index's ``epoch``: a sealed segment or a shard
    is planned once for its lifetime, and a plan is never reused for
    another index object or after its index's epoch moved.  The keys
    are weak, so a compacted-away segment takes its plans with it
    instead of being pinned (mmap and all) by the cache.
    """

    __slots__ = ("logical", "policy", "_physical")

    def __init__(
        self,
        logical: LogicalPlan,
        policy: Union[CoverPolicy, str] = CoverPolicy.ALL,
    ):
        self.logical = logical
        self.policy = CoverPolicy(policy)
        #: index part -> (its epoch when compiled, the physical plan)
        self._physical: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )

    def physical(
        self,
        index: GramIndex,
        metrics: Optional["QueryMetrics"] = None,
        trace: Optional[Trace] = None,
    ) -> PhysicalPlan:
        """The physical plan for ``index``, compiled on first use.

        A compile marks ``metrics`` as a plan-cache miss: the query
        did planning work even if its logical plan was cached.
        """
        epoch = getattr(index, "epoch", 0)  # duck-typed indexes: immutable
        cached = self._physical.get(index)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        if trace is None and metrics is not None:
            trace = metrics.trace
        with maybe_span(trace, "physical_plan"):
            physical = PhysicalPlan.compile(self.logical, index, self.policy)
        self._physical[index] = (epoch, physical)
        if metrics is not None:
            metrics.plan_cache_hit = False
        return physical


def _compile(
    req: Req,
    index: GramIndex,
    policy: CoverPolicy,
    missing: List[str],
) -> PhysNode:
    if isinstance(req, ReqAny):
        return PAll()
    if isinstance(req, ReqGram):
        return _compile_gram(req.gram, index, policy, missing)
    if isinstance(req, ReqAnd):
        children = [_compile(c, index, policy, missing) for c in req.children]
        real = [c for c in children if not isinstance(c, PAll)]
        real = _dedup(real)
        if not real:
            return PAll()
        if len(real) == 1:
            return real[0]
        return PAnd(tuple(real))
    if isinstance(req, ReqOr):
        children = [_compile(c, index, policy, missing) for c in req.children]
        if any(isinstance(c, PAll) for c in children):
            return PAll()  # Table 2: x OR TRUE == TRUE
        children = _dedup(children)
        if len(children) == 1:
            return children[0]
        return POr(tuple(children))
    raise PlanError(f"unknown logical node {type(req).__name__}")


def _compile_gram(
    gram: str,
    index: GramIndex,
    policy: CoverPolicy,
    missing: List[str],
) -> PhysNode:
    if gram in index:
        return PLookup(gram)
    available = index.covering_substrings(gram)
    if not available:
        missing.append(gram)
        return PAll()
    if policy is CoverPolicy.ALL:
        chosen = available
    else:
        ranked = sorted(available, key=lambda k: len(index.lookup(k)))
        if policy is CoverPolicy.BEST:
            chosen = ranked[:1]
        else:  # CHEAPEST2
            chosen = ranked[:2]
    if len(chosen) == 1:
        return PLookup(chosen[0])
    return PCover(tuple(PLookup(key) for key in chosen))


def _dedup(children: List[PhysNode]) -> List[PhysNode]:
    seen = set()
    out = []
    for child in children:
        if child not in seen:
            seen.add(child)
            out.append(child)
    return out


def _collect_lookups(node: PhysNode, keys: List[str]) -> None:
    if isinstance(node, PLookup):
        keys.append(node.key)
    elif isinstance(node, (PAnd, POr)):
        for child in node.children:
            _collect_lookups(child, keys)


def _render(
    node: PhysNode,
    depth: int,
    lines: List[str],
    annotations: Optional[dict] = None,
) -> None:
    pad = "  " * depth
    if isinstance(node, PLookup):
        suffix = annotations.get(node.key, "") if annotations else ""
        lines.append(f"{pad}LOOKUP {node.key!r}{suffix}")
    elif isinstance(node, PAll):
        lines.append(f"{pad}ALL (no restriction)")
    elif isinstance(node, PAnd):
        # COVER before the generic AND: PCover is a PAnd subclass.
        lines.append(f"{pad}COVER" if isinstance(node, PCover) else f"{pad}AND")
        for child in node.children:
            _render(child, depth + 1, lines, annotations)
    elif isinstance(node, POr):
        lines.append(f"{pad}OR")
        for child in node.children:
            _render(child, depth + 1, lines, annotations)
    else:
        raise PlanError(f"unknown physical node {type(node).__name__}")
