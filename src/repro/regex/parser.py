"""Recursive-descent parser for the FREE regex dialect.

Grammar (Table 1 of the paper, plus counted repetition):

.. code-block:: text

    alternation := concat ('|' concat)*
    concat      := repeat*
    repeat      := atom ('*' | '+' | '?' | '{' bounds '}')*
    atom        := '(' alternation ')' | '[' class ']' | '.'
                 | escape | ordinary-character

Escapes: ``\\a`` (alphabetic), ``\\d`` (digit), ``\\s`` (whitespace),
``\\w`` (word), ``\\t \\n \\r`` (controls) and ``\\<punct>`` for any
metacharacter.  Character classes support ranges (``[a-z0-9]``),
negation (``[^abc]``) and the shorthand escapes.

The parser is strict: trailing garbage, unbalanced parentheses, empty
groups and dangling quantifiers all raise :class:`RegexSyntaxError` with
the offending position.  So do patterns past the dialect's two size
limits, :data:`MAX_NESTING_DEPTH` and
:data:`~repro.regex.nfa.MAX_COUNTED_EXPANSION`: every later compile
pass walks the expanded pattern, so both are enforced here, before any
of them runs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import RegexSyntaxError
from repro.regex import ast
from repro.regex.charclass import ALPHA, DIGIT, DOT, SPACE, WORD, CharClass
from repro.regex.nfa import MAX_COUNTED_EXPANSION

#: Deepest nesting a pattern may reach.  Every group, every quantifier
#: and every optional copy a counted repetition expands to is one level
#: (``r{0,3}`` expands to ``(r(r(r)?)?)?``).  The parser and the compile
#: passes recurse once per level, so this keeps them well inside the
#: interpreter's default recursion limit; it admits the paper's longest
#: bounded gap, ``.{0,200}`` (201 levels).
MAX_NESTING_DEPTH = 208

#: One parsed subtree: the node, its nesting depth (as counted for
#: :data:`MAX_NESTING_DEPTH`) and the most copies compilation makes of
#: any part of it: ``r{lo,hi}`` copies ``r`` ``hi`` times (``lo`` when
#: open-ended), ``r+`` twice, and nested repetitions multiply.
_Parsed = Tuple[ast.Node, int, int]

_METACHARS = set(".*+?|()[]{}")

_SHORTHANDS = {
    "a": ALPHA,
    "d": DIGIT,
    "s": SPACE,
    "w": WORD,
}

_CONTROL_ESCAPES = {"t": "\t", "n": "\n", "r": "\r"}


class _Parser:
    """Single-use recursive-descent parser over one pattern string."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0
        self.open_groups = 0

    # -- character stream ------------------------------------------------

    def _peek(self) -> Optional[str]:
        if self.pos < len(self.pattern):
            return self.pattern[self.pos]
        return None

    def _next(self) -> str:
        ch = self._peek()
        if ch is None:
            raise self._error("unexpected end of pattern")
        self.pos += 1
        return ch

    def _eat(self, ch: str) -> None:
        if self._peek() != ch:
            raise self._error(f"expected {ch!r}")
        self.pos += 1

    def _error(self, message: str) -> RegexSyntaxError:
        return RegexSyntaxError(message, self.pattern, self.pos)

    # -- grammar ----------------------------------------------------------

    def parse(self) -> ast.Node:
        node, _depth, _copies = self._alternation()
        if self.pos != len(self.pattern):
            raise self._error("unexpected character")
        return node

    def _alternation(self) -> _Parsed:
        node, depth, copies = self._concat()
        options = [node]
        while self._peek() == "|":
            self._next()
            option, option_depth, option_copies = self._concat()
            options.append(option)
            depth = max(depth, option_depth)
            copies = max(copies, option_copies)
        return ast.alt(*options), depth, copies

    def _concat(self) -> _Parsed:
        parts = []
        depth, copies = 0, 1
        while True:
            ch = self._peek()
            if ch is None or ch in "|)":
                break
            part, part_depth, part_copies = self._repeat()
            parts.append(part)
            depth = max(depth, part_depth)
            copies = max(copies, part_copies)
        return ast.concat(*parts), depth, copies

    def _repeat(self) -> _Parsed:
        node, depth, copies = self._atom()
        while True:
            if copies > MAX_COUNTED_EXPANSION:
                raise self._error(
                    f"repetition expands to {copies} copies "
                    f"(limit {MAX_COUNTED_EXPANSION})"
                )
            if depth > MAX_NESTING_DEPTH:
                raise self._error(
                    f"pattern nests {depth} levels deep "
                    f"(limit {MAX_NESTING_DEPTH})"
                )
            ch = self._peek()
            if ch == "*":
                self._next()
                node = ast.Star(node)
                depth += 1
            elif ch == "+":
                self._next()
                node = ast.Plus(node)
                depth += 1
                copies *= 2  # r+ compiles as r r*
            elif ch == "?":
                self._next()
                node = ast.Opt(node)
                depth += 1
            elif ch == "{":
                repeat = self._counted(node)
                node, lo, hi = repeat, repeat.lo, repeat.hi
                depth += 1 if hi is None else 1 + hi - lo
                copies *= max(lo if hi is None else hi, 1)
            else:
                return node, depth, copies

    def _counted(self, node: ast.Node) -> ast.Repeat:
        self._eat("{")
        lo = self._integer()
        hi: Optional[int]
        if self._peek() == ",":
            self._next()
            if self._peek() == "}":
                hi = None
            else:
                hi = self._integer()
        else:
            hi = lo
        self._eat("}")
        try:
            return ast.Repeat(node, lo, hi)
        except ValueError as exc:
            raise self._error(str(exc)) from exc

    def _integer(self) -> int:
        start = self.pos
        while self._peek() is not None and self._peek().isdigit():
            self.pos += 1
        if self.pos == start:
            raise self._error("expected a number")
        return int(self.pattern[start : self.pos])

    def _atom(self) -> _Parsed:
        ch = self._peek()
        if ch is None:
            raise self._error("unexpected end of pattern")
        if ch == "(":
            self._next()
            self.open_groups += 1
            if self.open_groups > MAX_NESTING_DEPTH:
                raise self._error(
                    f"groups nest {self.open_groups} levels deep "
                    f"(limit {MAX_NESTING_DEPTH})"
                )
            node, depth, copies = self._alternation()
            if self._peek() != ")":
                raise self._error("unbalanced parenthesis")
            self._next()
            self.open_groups -= 1
            return node, depth + 1, copies
        if ch == "[":
            return self._char_class(), 0, 1
        if ch == ".":
            self._next()
            return ast.Char(DOT), 0, 1
        if ch == "\\":
            return self._escape(), 0, 1
        if ch in "*+?{":
            raise self._error("quantifier with nothing to repeat")
        if ch in ")|":
            raise self._error("unexpected character")
        self._next()
        self._require_in_alphabet(ch)
        return ast.Char.literal(ch), 0, 1

    def _escape(self) -> ast.Node:
        self._eat("\\")
        ch = self._next()
        if ch in _SHORTHANDS:
            return ast.Char(_SHORTHANDS[ch])
        if ch in _CONTROL_ESCAPES:
            return ast.Char.literal(_CONTROL_ESCAPES[ch])
        if ch.isalnum():
            raise self._error(f"unknown escape \\{ch}")
        self._require_in_alphabet(ch)
        return ast.Char.literal(ch)

    def _char_class(self) -> ast.Node:
        self._eat("[")
        negated = False
        if self._peek() == "^":
            self._next()
            negated = True
        chars = set()
        first = True
        while True:
            ch = self._peek()
            if ch is None:
                raise self._error("unterminated character class")
            if ch == "]" and not first:
                self._next()
                break
            first = False
            lo = self._class_char()
            if isinstance(lo, CharClass):
                chars.update(lo.chars)
                continue
            if self._peek() == "-" and self._lookahead(1) not in (None, "]"):
                self._next()
                hi = self._class_char()
                if isinstance(hi, CharClass):
                    raise self._error("shorthand cannot bound a range")
                if ord(lo) > ord(hi):
                    raise self._error(f"reversed range {lo!r}-{hi!r}")
                chars.update(chr(c) for c in range(ord(lo), ord(hi) + 1))
            else:
                chars.add(lo)
        if not chars:
            raise self._error("empty character class")
        cls = CharClass(chars)
        if negated:
            cls = cls.negate()
            if len(cls) == 0:
                raise self._error("negated class matches nothing")
        return ast.Char(cls)

    def _class_char(self):
        """One class member: a char, an escape, or a shorthand class."""
        ch = self._next()
        if ch == "\\":
            esc = self._next()
            if esc in _SHORTHANDS:
                return _SHORTHANDS[esc]
            if esc in _CONTROL_ESCAPES:
                return _CONTROL_ESCAPES[esc]
            if esc.isalnum():
                raise self._error(f"unknown escape \\{esc}")
            self._require_in_alphabet(esc)
            return esc
        self._require_in_alphabet(ch)
        return ch

    def _lookahead(self, offset: int) -> Optional[str]:
        index = self.pos + offset
        if index < len(self.pattern):
            return self.pattern[index]
        return None

    def _require_in_alphabet(self, ch: str) -> None:
        try:
            CharClass.singleton(ch)
        except ValueError as exc:
            raise self._error(str(exc)) from exc


def parse(pattern: str) -> ast.Node:
    """Parse ``pattern`` into an AST.

    Raises :class:`repro.errors.RegexSyntaxError` on malformed input.

    >>> parse("a(b|c)*").to_pattern()
    'a(b|c)*'
    """
    return _Parser(pattern).parse()
