"""Property-based tests: the from-scratch engine against two oracles.

Oracle 1: the stdlib ``re`` module, via the AST translation (containment
must agree exactly — containment is insensitive to the leftmost-greedy
vs leftmost-longest difference).

Oracle 2: direct NFA simulation for whole-string acceptance (parser ->
NFA -> eager DFA -> lazy DFA must all define the same language).

Oracle 3: ``finditer`` spans against a reference built from
per-character ``NFA.step`` simulation, for the scan kernel over an eager
table and over a lazily filled one.
"""

from __future__ import annotations

import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.regex import ast, matcher as matcher_module
from repro.regex.charclass import DOT, CharClass
from repro.regex.dfa import DFA, LazyDFA, build_dfa
from repro.regex.matcher import Matcher, to_stdlib_pattern
from repro.regex.nfa import build_nfa
from repro.regex.parser import parse

ALPHABET = "abc"


def asts(max_leaves: int = 8):
    """Strategy producing small ASTs over a 3-letter alphabet."""
    chars = st.sampled_from(ALPHABET).map(ast.Char.literal)
    classes = st.sets(
        st.sampled_from(ALPHABET), min_size=1, max_size=3
    ).map(lambda s: ast.Char(CharClass(s)))
    leaves = st.one_of(chars, classes, st.just(ast.Empty()))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: ast.concat(*t)),
            st.tuples(inner, inner).map(lambda t: ast.alt(*t)),
            inner.map(ast.Star),
            inner.map(ast.Plus),
            inner.map(ast.Opt),
            st.tuples(
                inner,
                st.integers(0, 2),
                st.integers(0, 3),
            ).map(lambda t: ast.Repeat(t[0], t[1], max(t[1], t[2]))),
        ),
        max_leaves=max_leaves,
    )


texts = st.text(alphabet=ALPHABET, max_size=14)


@settings(max_examples=150, deadline=None)
@given(node=asts(), text=texts)
def test_containment_matches_stdlib(node, text):
    ours = Matcher(node, backend="dfa")
    oracle = re.compile(to_stdlib_pattern(node))
    assert ours.contains(text) == (oracle.search(text) is not None)


@settings(max_examples=150, deadline=None)
@given(node=asts(), text=texts)
def test_fullmatch_matches_stdlib(node, text):
    ours = Matcher(node, backend="dfa")
    oracle = re.compile(to_stdlib_pattern(node))
    assert ours.fullmatch(text) == (oracle.fullmatch(text) is not None)


@settings(max_examples=100, deadline=None)
@given(node=asts(max_leaves=6), text=texts)
def test_nfa_dfa_lazy_agree(node, text):
    nfa = build_nfa(node)
    eager = build_dfa(nfa)
    lazy = LazyDFA(nfa)
    expected = nfa.accepts(text)
    assert eager.accepts(text) == expected
    assert lazy.accepts(text) == expected


def reference_spans(node, text, start):
    """What ``finditer`` promises, by brute force over ``NFA.step``.

    From ``pos``: the earliest position where any match ends, the
    smallest start of a match ending there, and the longest match from
    that start; then on from its end (one further after an empty match).
    """
    nfa = build_nfa(node)
    n = len(text)
    ends_from = []
    for s in range(n + 1):
        current = nfa.epsilon_closure({nfa.start})
        ends = {s} if nfa.accept in current else set()
        for i in range(s, n):
            current = nfa.step(current, text[i])
            if not current:
                break
            if nfa.accept in current:
                ends.add(i + 1)
        ends_from.append(ends)
    spans = []
    pos = start
    while pos <= n:
        reachable = [min(ends_from[s]) for s in range(pos, n + 1) if ends_from[s]]
        if not reachable:
            break
        end = min(reachable)
        begin = min(s for s in range(pos, end + 1) if end in ends_from[s])
        longest = max(ends_from[begin])
        spans.append((begin, longest))
        pos = longest if longest > begin else begin + 1
    return spans


#: One- and several-byte foreign characters, the in-range controls the
#: alphabet leaves out, and the pattern's own letters.
scan_texts = st.text(
    alphabet=ALPHABET + "d \u00e9\U0001f600\x00\x7f", max_size=14
)


@pytest.mark.parametrize("automaton", [DFA, LazyDFA])
@settings(max_examples=150, deadline=None)
@given(
    node=st.one_of(asts(), asts(4).map(
        lambda n: ast.concat(n, ast.Char(DOT), n)
    )),
    text=scan_texts,
    data=st.data(),
)
def test_kernel_spans_match_nfa_reference(automaton, node, text, data):
    start = data.draw(st.integers(0, len(text)))
    # Nothing is small enough for the eager builder at limit -1.
    limit = matcher_module.EAGER_NFA_LIMIT if automaton is DFA else -1
    with mock.patch.object(matcher_module, "EAGER_NFA_LIMIT", limit):
        ours = Matcher(node)
    assert type(ours._search) is type(ours._reverse) is automaton
    assert list(ours.finditer(text, start)) == reference_spans(node, text, start)
    assert ours.contains(text) == bool(reference_spans(node, text, 0))


@settings(max_examples=100, deadline=None)
@given(node=asts(), text=texts)
def test_match_count_parity_with_re_backend_existence(node, text):
    """Span *existence* per position agrees between backends.

    Exact spans may differ (POSIX longest vs Python greedy), but if one
    backend finds any match the other must too.
    """
    dfa = Matcher(node, backend="dfa")
    re_ = Matcher(node, backend="re")
    assert (dfa.search(text) is None) == (re_.search(text) is None)


@settings(max_examples=100, deadline=None)
@given(node=asts(), text=texts)
def test_spans_are_real_matches(node, text):
    """Every reported span, when sliced, must fullmatch the pattern."""
    matcher = Matcher(node, backend="dfa")
    nfa = build_nfa(node)
    for start, end in matcher.finditer(text):
        assert 0 <= start <= end <= len(text)
        assert nfa.accepts(text[start:end])


@settings(max_examples=100, deadline=None)
@given(node=asts(), text=texts)
def test_spans_non_overlapping_and_ordered(node, text):
    spans = list(Matcher(node, backend="dfa").finditer(text))
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert s2 >= max(e1, s1 + 1)


@settings(max_examples=100, deadline=None)
@given(node=asts(), text=texts)
def test_round_trip_parse(node, text):
    """to_pattern() must reparse to the same language (checked on text)."""
    reparsed = parse(node.to_pattern())
    assert build_nfa(node).accepts(text) == build_nfa(reparsed).accepts(text)


@settings(max_examples=60, deadline=None)
@given(
    pattern_text=st.text(
        alphabet="abc()|*+?[].\\{}0-9", min_size=0, max_size=12
    ),
)
def test_parser_never_crashes_unexpectedly(pattern_text):
    """Arbitrary input either parses or raises RegexSyntaxError."""
    from repro.errors import RegexSyntaxError

    try:
        node = parse(pattern_text)
    except RegexSyntaxError:
        return
    except ValueError as exc:
        # counted repetitions beyond the expansion cap surface as
        # ValueError at NFA build time, not parse time
        pytest.skip(f"expansion limit: {exc}")
    # If it parsed, it must also compile.
    Matcher(node).contains("abcabc")
