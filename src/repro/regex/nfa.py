"""Thompson construction: AST -> epsilon-NFA.

The construction is the textbook one [Thompson 1968; Hopcroft & Ullman]:
every AST node becomes a small fragment with one start and one accept
state, glued with epsilon transitions.  Counted repetitions are expanded
structurally (``r{2,4}`` -> ``rr(r(r)?)?``), which keeps the automaton
exact for the bounded-gap queries in the benchmark (``.{0,200}`` in the
``sigmod`` query expands to 200 optional dots).

States are dense integers so downstream passes can use lists as maps.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Tuple

from repro.regex import ast
from repro.regex.charclass import CharClass

#: Expansion guard: a counted repetition may not expand to more than this
#: many copies of its body (prevents pathological ``a{1000000}`` inputs
#: from exhausting memory).  The parser applies it to whole patterns,
#: nested repetitions multiplied, so a parsed pattern never trips the
#: re-check in :func:`expand_repeat`.
MAX_COUNTED_EXPANSION = 4096


class NFA:
    """An epsilon-NFA with a single start and a single accept state."""

    def __init__(self):
        self.transitions: List[List[Tuple[CharClass, int]]] = []
        self.epsilon: List[List[int]] = []
        self.start: int = 0
        self.accept: int = 0

    # -- construction helpers -------------------------------------------

    def _new_state(self) -> int:
        self.transitions.append([])
        self.epsilon.append([])
        return len(self.transitions) - 1

    def _add_edge(self, src: int, cls: CharClass, dst: int) -> None:
        self.transitions[src].append((cls, dst))

    def _add_epsilon(self, src: int, dst: int) -> None:
        self.epsilon[src].append(dst)

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    # -- queries ----------------------------------------------------------

    def epsilon_closure(self, states: Set[int]) -> FrozenSet[int]:
        """All states reachable from ``states`` via epsilon edges."""
        stack = list(states)
        closure = set(states)
        while stack:
            state = stack.pop()
            for nxt in self.epsilon[state]:
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return frozenset(closure)

    def step(self, states: FrozenSet[int], ch: str) -> FrozenSet[int]:
        """One character of NFA simulation (closure included)."""
        moved = set()
        for state in states:
            for cls, dst in self.transitions[state]:
                if ch in cls:
                    moved.add(dst)
        return self.epsilon_closure(moved)

    def accepts(self, text: str) -> bool:
        """Whole-string acceptance by direct simulation (test oracle)."""
        current = self.epsilon_closure({self.start})
        for ch in text:
            current = self.step(current, ch)
            if not current:
                return False
        return self.accept in current

    def classes(self) -> List[CharClass]:
        """Every distinct character class labelling any transition."""
        seen = []
        seen_set = set()
        for edges in self.transitions:
            for cls, _dst in edges:
                if cls not in seen_set:
                    seen_set.add(cls)
                    seen.append(cls)
        return seen


def build_nfa(node: ast.Node) -> NFA:
    """Compile an AST into an epsilon-NFA via Thompson construction."""
    nfa = NFA()
    start, accept = _build(nfa, node)
    nfa.start = start
    nfa.accept = accept
    return nfa


def _build(nfa: NFA, node: ast.Node) -> Tuple[int, int]:
    """Emit the fragment for ``node``; returns (start, accept) states."""
    if isinstance(node, ast.Empty):
        start = nfa._new_state()
        accept = nfa._new_state()
        nfa._add_epsilon(start, accept)
        return start, accept

    if isinstance(node, ast.Char):
        start = nfa._new_state()
        accept = nfa._new_state()
        nfa._add_edge(start, node.cls, accept)
        return start, accept

    if isinstance(node, ast.Concat):
        first_start, prev_accept = _build(nfa, node.parts[0])
        for part in node.parts[1:]:
            nxt_start, nxt_accept = _build(nfa, part)
            nfa._add_epsilon(prev_accept, nxt_start)
            prev_accept = nxt_accept
        return first_start, prev_accept

    if isinstance(node, ast.Alt):
        start = nfa._new_state()
        accept = nfa._new_state()
        for option in node.options:
            o_start, o_accept = _build(nfa, option)
            nfa._add_epsilon(start, o_start)
            nfa._add_epsilon(o_accept, accept)
        return start, accept

    if isinstance(node, ast.Star):
        start = nfa._new_state()
        accept = nfa._new_state()
        c_start, c_accept = _build(nfa, node.child)
        nfa._add_epsilon(start, c_start)
        nfa._add_epsilon(start, accept)
        nfa._add_epsilon(c_accept, c_start)
        nfa._add_epsilon(c_accept, accept)
        return start, accept

    if isinstance(node, ast.Plus):
        # r+ == r r*  (the paper's own rewrite).
        c_start, c_accept = _build(nfa, node.child)
        s_start, s_accept = _build(nfa, ast.Star(node.child))
        nfa._add_epsilon(c_accept, s_start)
        return c_start, s_accept

    if isinstance(node, ast.Opt):
        start = nfa._new_state()
        accept = nfa._new_state()
        c_start, c_accept = _build(nfa, node.child)
        nfa._add_epsilon(start, c_start)
        nfa._add_epsilon(start, accept)
        nfa._add_epsilon(c_accept, accept)
        return start, accept

    if isinstance(node, ast.Repeat):
        return _build(nfa, expand_repeat(node))

    raise TypeError(f"unknown AST node {type(node).__name__}")


def expand_repeat(node: ast.Repeat) -> ast.Node:
    """Rewrite a counted repetition into Concat/Opt/Star form.

    ``r{lo,hi}`` -> lo mandatory copies followed by (hi - lo) nested
    optional copies; ``r{lo,}`` -> lo copies then ``r*``.
    """
    copies = node.lo if node.hi is None else node.hi
    if copies > MAX_COUNTED_EXPANSION:
        raise ValueError(
            f"counted repetition expands to {copies} copies "
            f"(limit {MAX_COUNTED_EXPANSION})"
        )
    mandatory = [node.child] * node.lo
    if node.hi is None:
        return ast.concat(*mandatory, ast.Star(node.child))
    # Nest the optional tail so r{0,3} == (r(r(r)?)?)?
    tail: ast.Node = ast.Empty()
    for _ in range(node.hi - node.lo):
        tail = ast.Opt(ast.concat(node.child, tail))
    return ast.concat(*mandatory, tail)
