"""Corpus-oriented regex matching (the "grep" substrate of FREE).

FREE needs two matching primitives over a *data unit* (a page):

* ``contains`` — does any substring match? (used to confirm candidate
  units and by the Scan baseline);
* ``finditer`` — enumerate the matching substrings (used to report
  matching strings and to rank them by frequency, Example 1.2).

Both are built on three automata derived from one parsed pattern, all
over one alphabet partition so a unit is translated to block ids once
per call and then only walked (:mod:`repro.regex.dfa`):

* the **search automaton** for ``Σ* r`` finds the first position where
  some match *ends* in a single left-to-right pass;
* the **reverse automaton** for ``reverse(r)``, run backwards from that
  end position, finds the *leftmost* start of a match ending there;
* the **forward automaton** for ``r``, run from that start, extends to
  the *longest* end.

So each span is the *earliest-ending* match, widened to the leftmost
start for that end and then to the longest end from that start, found
in linear time with the three-automaton discipline RE2 uses.  Earliest
end comes first, so this is not POSIX leftmost-longest: ``abcd|bc``
over ``abcd`` yields ``(1, 3)``, not ``(0, 4)``.

Small patterns get eager, minimized DFAs; patterns whose subset
construction would blow up (large counted repetitions under an
unanchored search, e.g. ``.{0,200}`` in the ``sigmod`` benchmark query)
automatically fall back to the lazy DFA.  An eager search automaton
skips runs of characters that leave it where it is at C speed
(:class:`repro.regex.dfa.ScanKernel`).

On top sits an *anchoring* prefilter (the lightweight cousin of the
technique in the extended version of the paper): a covering literal set
derived from the requirement tree lets ``contains`` reject most units
with pure substring tests before any automaton runs.
"""

from __future__ import annotations

import re as _stdlib_re
from typing import Iterator, List, Optional, Tuple, Union

from repro.errors import InternalError
from repro.regex import ast as ast_
from repro.regex.charclass import DOT, CharClass
from repro.regex.dfa import BlockAlphabet, DFA, LazyDFA, build_dfa
from repro.regex.nfa import NFA, build_nfa
from repro.regex.parser import parse
from repro.regex.rewrite import (
    anchor_clauses,
    anchor_literals,
    requirement_tree,
    reverse_ast,
)

#: NFAs above this size skip eager determinization and use the lazy DFA.
EAGER_NFA_LIMIT = 160


def _compile_automaton(
    nfa: NFA, alphabet: BlockAlphabet
) -> Union[DFA, LazyDFA]:
    """Pick the determinization strategy by NFA size."""
    if nfa.state_count <= EAGER_NFA_LIMIT:
        try:
            return build_dfa(nfa, max_states=20_000, alphabet=alphabet)
        except ValueError:
            pass
    return LazyDFA(nfa, alphabet=alphabet)


class Matcher:
    """A compiled pattern supporting containment and span enumeration.

    Args:
        pattern: pattern text or an already-parsed AST.
        anchoring: enable the covering-literal prefilter in
            :meth:`contains`.
    """

    def __init__(self, pattern, anchoring: bool = True):
        if isinstance(pattern, str):
            self.pattern = pattern
            self.ast = parse(pattern)
        else:
            self.ast = pattern
            self.pattern = pattern.to_pattern()
        self.anchoring = anchoring

        req = requirement_tree(self.ast)
        self.anchors: Optional[frozenset] = (
            anchor_literals(req) if anchoring else None
        )
        #: CNF prefilter: every clause must have a member present.
        self.clauses: Tuple[frozenset, ...] = (
            anchor_clauses(req) if anchoring else ()
        )

        search_ast = ast_.concat(ast_.Star(ast_.Char(DOT)), self.ast)
        nfas = [
            build_nfa(node)
            for node in (search_ast, self.ast, reverse_ast(self.ast))
        ]
        # The search NFA carries every class of the other two (and the
        # dot, which splits nothing).
        self._alphabet = BlockAlphabet(nfas[0].classes())
        self._search, self._forward, self._reverse = (
            _compile_automaton(nfa, self._alphabet) for nfa in nfas
        )

    # -- public API -----------------------------------------------------

    def prefilter_rejects(self, text: str) -> bool:
        """True when the anchoring clauses prove ``text`` has no match.

        Pure substring tests (C speed); one-sided: False means
        "unknown", the automaton must decide.
        """
        for clause in self.clauses:
            satisfied = False
            for literal in clause:
                if literal in text:
                    satisfied = True
                    break
            if not satisfied:
                return True
        return False

    def contains(self, text: str) -> bool:
        """True iff some substring of ``text`` matches the pattern."""
        if self.prefilter_rejects(text):
            return False
        data = self._alphabet.translate(text)
        return self._search.first_accept_end(data, 0) >= 0

    def search(self, text: str, start: int = 0) -> Optional[Tuple[int, int]]:
        """The first span :meth:`finditer` yields from ``start``."""
        for span in self.finditer(text, start):
            return span
        return None

    def finditer(self, text: str, start: int = 0) -> Iterator[Tuple[int, int]]:
        """Yield non-overlapping match spans from ``start`` on: the
        earliest match end, the leftmost start of a match ending there,
        the longest match from that start; then on from its end (one
        further after an empty match)."""
        data = self._alphabet.translate(text)
        first_end = self._search.first_accept_end
        leftmost = self._reverse.last_accept_backward
        longest_end = self._forward.last_accept_forward
        pos = start
        n = len(data)
        while pos <= n:
            end = first_end(data, pos)
            if end < 0:
                return
            begin = leftmost(data, end, pos)
            if begin < 0:
                raise InternalError(
                    "reverse scan found no start; search/reverse automata "
                    "disagree"
                )
            longest = longest_end(data, begin)
            if longest < 0:
                longest = end
            yield (begin, longest)
            pos = longest if longest > begin else begin + 1

    def findall(self, text: str) -> List[str]:
        """The matching substrings, in order of occurrence."""
        return [text[s:e] for s, e in self.finditer(text)]

    def count(self, text: str) -> int:
        """Number of non-overlapping matches."""
        total = 0
        for _span in self.finditer(text):
            total += 1
        return total

    def fullmatch(self, text: str) -> bool:
        """True iff the entire ``text`` matches the pattern."""
        return self._forward.accepts(text)

    def __repr__(self) -> str:
        return f"Matcher({self.pattern!r})"


def compile_matcher(pattern: str) -> Matcher:
    """Convenience wrapper: parse and compile ``pattern``."""
    return Matcher(pattern)


# --------------------------------------------------------------------------
# Translation to the stdlib dialect (the test oracle's translator)
# --------------------------------------------------------------------------

def to_stdlib_pattern(node: ast_.Node) -> str:
    """Render an AST as a Python ``re`` pattern with identical language.

    Shorthand classes are expanded to explicit ASCII classes so the
    stdlib's Unicode semantics cannot creep in.
    """
    return _stdlib(node, 0)


def _stdlib(node: ast_.Node, prec: int) -> str:
    """Render with explicit precedence: wrap in (?:...) when the node's
    own precedence is below the context's.  Alt=0 < Concat/Empty=1 <
    quantifier=2 < atom=3."""
    text, my_prec = _stdlib_raw(node)
    if my_prec < prec:
        return f"(?:{text})"
    return text


def _stdlib_raw(node: ast_.Node) -> Tuple[str, int]:
    if isinstance(node, ast_.Empty):
        return "", 1
    if isinstance(node, ast_.Char):
        return _stdlib_class(node.cls), 3
    if isinstance(node, ast_.Concat):
        return "".join(_stdlib(p, 1) for p in node.parts), 1
    if isinstance(node, ast_.Alt):
        return "|".join(_stdlib(o, 1) for o in node.options), 0
    if isinstance(node, ast_.Star):
        return _stdlib(node.child, 3) + "*", 2
    if isinstance(node, ast_.Plus):
        return _stdlib(node.child, 3) + "+", 2
    if isinstance(node, ast_.Opt):
        return _stdlib(node.child, 3) + "?", 2
    if isinstance(node, ast_.Repeat):
        base = _stdlib(node.child, 3)
        if node.hi is None:
            return f"{base}{{{node.lo},}}", 2
        if node.hi == node.lo:
            return f"{base}{{{node.lo}}}", 2
        return f"{base}{{{node.lo},{node.hi}}}", 2
    raise TypeError(f"unknown AST node {type(node).__name__}")


def _stdlib_class(cls: CharClass) -> str:
    if cls.is_singleton:
        return _stdlib_re.escape(cls.only_char)
    if cls == DOT:
        # Our dot spans the whole engine alphabet (including newline).
        return "[\\x20-\\x7e\\t\\n\\r]"
    members = sorted(cls.chars)
    # Negating within our alphabet is NOT the same as a stdlib [^...]
    # (which would also match characters outside the alphabet), so
    # always emit the positive class.
    parts = []
    i = 0
    while i < len(members):
        j = i
        while j + 1 < len(members) and ord(members[j + 1]) == ord(members[j]) + 1:
            j += 1
        if j - i >= 2:
            parts.append(
                f"{_escape_in_class(members[i])}-{_escape_in_class(members[j])}"
            )
        else:
            parts.extend(_escape_in_class(members[k]) for k in range(i, j + 1))
        i = j + 1
    return "[" + "".join(parts) + "]"


def _escape_in_class(ch: str) -> str:
    if ch in "]^-\\[":
        return "\\" + ch
    if ch == "\t":
        return "\\t"
    if ch == "\n":
        return "\\n"
    if ch == "\r":
        return "\\r"
    return ch
