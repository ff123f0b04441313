"""Property-based tests: the from-scratch engine against two oracles.

Oracle 1: the stdlib ``re`` module, via the AST translation (containment
must agree exactly — containment is insensitive to the leftmost-greedy
vs leftmost-longest difference).

Oracle 2: direct NFA simulation for whole-string acceptance (parser ->
NFA -> eager DFA -> lazy DFA must all define the same language).

Oracle 3: ``finditer`` spans against a reference built from
per-character ``NFA.step`` simulation, for the scan kernel over an eager
table and over a lazily filled one, and for the eager search
automaton's skips: forced at every opportunity, adaptive, and off.
"""

from __future__ import annotations

import contextlib
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.regex import ast, dfa as dfa_module, matcher as matcher_module
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
    ours = Matcher(node)
    oracle = re.compile(to_stdlib_pattern(node))
    assert ours.contains(text) == (oracle.search(text) is not None)


@settings(max_examples=150, deadline=None)
@given(node=asts(), text=texts)
def test_fullmatch_matches_stdlib(node, text):
    ours = Matcher(node)
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
    steps = {}  # (subset, character) -> NFA.step: long texts stay cheap
    n = len(text)
    ends_from = []
    for s in range(n + 1):
        current = nfa.epsilon_closure({nfa.start})
        ends = {s} if nfa.accept in current else set()
        for i in range(s, n):
            key = (current, text[i])
            if key not in steps:
                steps[key] = nfa.step(current, text[i])
            current = steps[key]
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


#: Long texts over a skewed alphabet: runs of ``d`` and spaces (in the
#: engine alphabet, in no pattern class, so a search automaton mostly
#: stays put on them), the pattern's letters now and then, and runs of
#: one- and several-byte foreign characters.
long_texts = st.lists(
    st.one_of(
        st.tuples(st.sampled_from("dd "), st.integers(1, 60)),
        st.tuples(st.sampled_from(ALPHABET), st.integers(1, 3)),
        st.tuples(
            st.sampled_from(["\u00e9", "\U0001f600", "\x00", "\x7f"]),
            st.integers(1, 5),
        ),
    ).map(lambda run: run[0] * run[1]),
    min_size=6,
    max_size=20,
).map("".join)

#: Patterns that do not match the empty string (a search for one stops
#: at once), some with ``.*`` or ``[^a]*`` gaps between two parts, which
#: give the search automaton skippable states past the start.
gapped_asts = st.one_of(
    asts(6),
    st.tuples(asts(3), asts(3)).map(
        lambda t: ast.concat(t[0], ast.Star(ast.Char(DOT)), t[1])
    ),
    st.tuples(asts(3), asts(3)).map(
        lambda t: ast.concat(
            t[0], ast.Star(ast.Char(CharClass("a").negate())), t[1]
        )
    ),
).filter(lambda node: not build_nfa(node).accepts(""))

#: The skip constants each regime patches.  Forced: no jump is short, so
#: none is followed by a cooldown or switches a state off (a drawn subset
#: of the states starts off, so the walk also enters skippable states
#: from a start state that does not skip).  Adaptive: small enough that
#: short texts reach cooldowns and switch-offs.  Off: every state is
#: switched off before the scan, so the constants do not matter.
SKIP_REGIMES = {
    "forced": {"SKIP_MIN_JUMP": 0, "SKIP_COOLDOWN": 0, "SKIP_SAMPLE": 1 << 30},
    "adaptive": {"SKIP_MIN_JUMP": 6, "SKIP_COOLDOWN": 5, "SKIP_SAMPLE": 2},
    "off": {},
}


def skip_regime(regime):
    constants = SKIP_REGIMES[regime]
    if not constants:
        return contextlib.nullcontext()
    return mock.patch.multiple(dfa_module, **constants)


def skipping_matcher(node, regime, data):
    """A matcher whose eager search automaton starts in ``regime``."""
    ours = Matcher(node)
    search = ours._search
    assert type(search) is DFA
    n = search.n_blocks
    skippable = list(range(search.limit + n, search.skip_limit + 1, n))
    off = []
    if regime == "off":
        off = skippable
    elif regime == "forced" and skippable:
        off = data.draw(st.sets(st.sampled_from(skippable)))
    for state in off:
        search._switch_off(state)
    return ours


@pytest.mark.parametrize("regime", sorted(SKIP_REGIMES))
@settings(max_examples=120, deadline=None)
@given(node=gapped_asts, text=long_texts, data=st.data())
def test_skipping_spans_match_nfa_reference(regime, node, text, data):
    start = data.draw(st.integers(0, len(text)))
    with skip_regime(regime):
        ours = skipping_matcher(node, regime, data)
        assert list(ours.finditer(text, start)) == reference_spans(
            node, text, start
        )
        assert ours.contains(text) == bool(reference_spans(node, text, 0))


@pytest.mark.parametrize("regime", sorted(SKIP_REGIMES))
@settings(max_examples=40, deadline=None)
@given(
    node=gapped_asts,
    batch=st.lists(long_texts, min_size=2, max_size=8),
    data=st.data(),
)
def test_reused_matcher_answers_every_text_alike(regime, node, batch, data):
    """What one scan leaves on the kernel (jump records, switched-off
    states, a lowered ``skip_limit``) never changes a later answer."""
    with skip_regime(regime):
        ours = skipping_matcher(node, regime, data)
        for text in batch + batch[::-1]:
            assert list(ours.finditer(text)) == reference_spans(node, text, 0)


@settings(max_examples=100, deadline=None)
@given(node=asts(), text=texts)
def test_match_count_parity_with_re_backend_existence(node, text):
    """Match *existence* agrees with stdlib ``re``.

    Exact spans may differ (earliest end first here, leftmost-greedy
    there), but if one finds any match the other must too.
    """
    oracle = re.compile(to_stdlib_pattern(node))
    found = Matcher(node).search(text) is not None
    assert found == (oracle.search(text) is not None)


@settings(max_examples=100, deadline=None)
@given(node=asts(), text=texts)
def test_spans_are_real_matches(node, text):
    """Every reported span, when sliced, must fullmatch the pattern."""
    matcher = Matcher(node)
    nfa = build_nfa(node)
    for start, end in matcher.finditer(text):
        assert 0 <= start <= end <= len(text)
        assert nfa.accepts(text[start:end])


@settings(max_examples=100, deadline=None)
@given(node=asts(), text=texts)
def test_spans_non_overlapping_and_ordered(node, text):
    spans = list(Matcher(node).finditer(text))
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
