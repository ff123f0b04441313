"""DFA tests: eager subset construction, minimization, lazy DFA parity."""

import pytest

from repro.errors import InternalError
from repro.regex.dfa import DFA, UNFILLED, LazyDFA, build_dfa
from repro.regex.nfa import build_nfa
from repro.regex.parser import parse


def dfa_of(pattern: str, minimize=True) -> DFA:
    return build_dfa(build_nfa(parse(pattern)), minimize=minimize)


def first_accept_end(automaton, text, start):
    return automaton.first_accept_end(automaton.alphabet.translate(text), start)


def last_accept_forward(automaton, text, start):
    return automaton.last_accept_forward(
        automaton.alphabet.translate(text), start
    )


def last_accept_backward(automaton, text, end, lo):
    return automaton.last_accept_backward(
        automaton.alphabet.translate(text), end, lo
    )


class TestAcceptance:
    @pytest.mark.parametrize(
        "pattern,good,bad",
        [
            ("abc", ["abc"], ["ab", "abcd", "xbc", ""]),
            ("a*b", ["b", "ab", "aaab"], ["a", "ba", ""]),
            ("(a|b)+", ["a", "ba", "abba"], ["", "c", "ac"]),
            ("a.c", ["abc", "a.c", "azc"], ["ac", "abbc"]),
            ("[0-9]{2}", ["42"], ["4", "421", "ab"]),
            ("x(y|)z", ["xyz", "xz"], ["x", "xyyz"]),
        ],
    )
    def test_accepts(self, pattern, good, bad):
        dfa = dfa_of(pattern)
        for text in good:
            assert dfa.accepts(text), (pattern, text)
        for text in bad:
            assert not dfa.accepts(text), (pattern, text)

    def test_matches_empty(self):
        assert dfa_of("a*").matches_empty()
        assert not dfa_of("a+").matches_empty()

    def test_foreign_character_rejects(self):
        dfa = dfa_of(".*")
        assert not dfa.accepts("\x00")


class TestMinimization:
    def test_minimized_not_larger(self):
        raw = dfa_of("(a|b)*abb", minimize=False)
        small = dfa_of("(a|b)*abb", minimize=True)
        assert small.state_count <= raw.state_count

    def test_equivalent_patterns_same_size(self):
        # a+ and aa* denote the same language -> same minimal DFA size.
        a = dfa_of("a+")
        b = dfa_of("aa*")
        assert a.state_count == b.state_count

    def test_language_preserved(self):
        texts = ["", "a", "b", "ab", "abb", "aabb", "babb", "abab"]
        raw = dfa_of("(a|b)*abb", minimize=False)
        small = dfa_of("(a|b)*abb", minimize=True)
        for text in texts:
            assert raw.accepts(text) == small.accepts(text)

    def test_dead_state_is_zero(self):
        dfa = dfa_of("abc")
        # every transition out of state 0 loops on 0 and it never accepts
        # (accepting states are exactly the offsets in (0, limit])
        assert 0 <= dfa.limit < dfa.start
        assert all(t == 0 for t in dfa.flat[:dfa.n_blocks])

    def test_states_ordered_dead_accepting_rest(self):
        nfa = build_nfa(parse("(a|b)*abb"))
        dfa = build_dfa(nfa)
        n = dfa.n_blocks
        assert len(dfa.flat) == dfa.state_count * n
        assert dfa.limit == n  # one accepting state, right after dead
        for text in ["", "a", "abb", "ababb", "abba", "c"]:
            state = dfa.start
            for block in dfa.alphabet.translate(text):
                state = dfa.flat[state + block]
            assert (0 < state <= dfa.limit) == nfa.accepts(text), text

    def test_entries_to_one_state_share_one_int(self):
        # 8 bytes an entry: the memory rule serve_zipf's peak_rss_mb
        # depends on (see tests/test_matcher_memory.py).
        nfa = build_nfa(parse("abcdefghijklmnopqrstuvwxyz"))
        lazy = LazyDFA(nfa)
        assert lazy.accepts("abcdefghijklmnopqrstuvwxyz")
        for automaton in (build_dfa(nfa), lazy):
            assert len(automaton.flat) > 256 + 5  # past the cached small ints
            assert (
                len({id(t) for t in automaton.flat})
                == len(set(automaton.flat))
            )

    def test_death_rejects(self):
        dfa = dfa_of("a+")
        assert not dfa.accepts("ab")
        assert not dfa.accepts("a\x00a")
        with pytest.raises(InternalError):
            dfa._fill(dfa.start, 1)


class TestScanPrimitives:
    def test_first_accept_end_search(self):
        # search automaton for .*abc
        dfa = dfa_of(".*abc")
        assert first_accept_end(dfa, "xxabcxx", 0) == 5
        assert first_accept_end(dfa, "abc", 0) == 3
        assert first_accept_end(dfa, "ab", 0) == -1

    def test_first_accept_end_respects_start(self):
        dfa = dfa_of(".*ab")
        assert first_accept_end(dfa, "abxab", 1) == 5

    def test_last_accept_forward(self):
        dfa = dfa_of("a+")
        assert last_accept_forward(dfa, "aaab", 0) == 3
        assert last_accept_forward(dfa, "baaa", 0) == -1

    def test_last_accept_backward(self):
        # reversed pattern of "ab+" is "b+a"
        dfa = dfa_of("b+a")
        # text "xabb", match of ab+ is at [1,4); scanning backwards from 4
        assert last_accept_backward(dfa, "xabb", 4, 0) == 1

    def test_backward_from_zero_scans_nothing(self):
        assert last_accept_backward(dfa_of("a*"), "aaa", 0, 0) == 0
        assert last_accept_backward(dfa_of("a+"), "aaa", 0, 0) == -1

    def test_foreign_characters_keep_str_offsets(self):
        # one block id per character, whatever its UTF-8 length
        dfa = dfa_of(".*ab")
        text = "\u00e9\U0001f600\x00\x7f\udc80ab"
        assert list(dfa.alphabet.translate(text)[:5]) == [0] * 5
        assert first_accept_end(dfa, text, 0) == len(text) == 7
        assert first_accept_end(dfa, "a\u00e9b", 0) == -1


class TestLazyDFA:
    @pytest.mark.parametrize(
        "pattern,texts",
        [
            ("abc", ["abc", "ab", "abcd", ""]),
            ("(a|b)*abb", ["abb", "aabb", "ab", ""]),
            ("a{2,4}", ["a", "aa", "aaa", "aaaa", "aaaaa"]),
            (".*foo", ["xfoo", "foo", "fo"]),
        ],
    )
    def test_parity_with_eager(self, pattern, texts):
        nfa = build_nfa(parse(pattern))
        eager = build_dfa(nfa)
        lazy = LazyDFA(nfa)
        for text in texts:
            assert eager.accepts(text) == lazy.accepts(text), (pattern, text)

    def test_scan_primitive_parity(self):
        pattern = ".*ab"
        nfa = build_nfa(parse(pattern))
        eager = build_dfa(nfa)
        lazy = LazyDFA(nfa)
        text = "xxabyyabzz"
        assert (
            first_accept_end(eager, text, 0)
            == first_accept_end(lazy, text, 0)
        )

    def test_cache_flush_keeps_answers(self):
        nfa = build_nfa(parse("(a|b)*abb"))
        lazy = LazyDFA(nfa, cache_limit=3)  # absurdly small: force flushes
        text = "abab" * 50 + "abb"
        assert lazy.accepts(text)
        assert lazy.flush_count > 0

    def test_counted_gap_under_search_terminates(self):
        # The pattern class that blows up eager subset construction.
        nfa = build_nfa(parse(".*>.{0,50}sig"))
        lazy = LazyDFA(nfa)
        assert first_accept_end(lazy, ">" + "x" * 30 + "sig", 0) > 0
        assert first_accept_end(lazy, ">" + "x" * 80 + "sig", 0) == -1

    @pytest.mark.parametrize(
        "pattern,scan,text,args",
        [
            (".*(a|b)*abb", first_accept_end, "abab" * 50 + "abb", (0,)),
            ("(a|b)*abb", last_accept_forward, "abab" * 50 + "abb", (0,)),
            ("bba(a|b)*", last_accept_backward, "abab" * 50 + "abb", (203, 1)),
        ],
    )
    def test_cache_flush_mid_scan(self, pattern, scan, text, args):
        """A flush empties the table the loop is walking; the scan must
        carry on from the re-interned state and agree with the eager
        automaton."""
        nfa = build_nfa(parse(pattern))
        lazy = LazyDFA(nfa, cache_limit=3)
        flat = lazy.flat
        expected = scan(build_dfa(nfa), text, *args)
        assert expected >= 0
        assert scan(lazy, text, *args) == expected
        assert lazy.flush_count > 1
        assert lazy.flat is flat  # flushed in place
        assert lazy.start == lazy.n_blocks and lazy.limit == 0

    def test_dead_is_offset_zero_and_guarded(self, monkeypatch):
        nfa = build_nfa(parse("ab"))
        lazy = LazyDFA(nfa)
        n = lazy.n_blocks
        assert lazy.flat[:n] == [0] + [UNFILLED] * (n - 1)
        assert not lazy.accepts("ax")
        assert not lazy.accepts("abb")  # death after an accept
        assert not lazy.accepts("\x00")
        # an empty subset that does not intern at offset 0 is refused
        monkeypatch.setattr(
            LazyDFA, "_intern", lambda self, subset: self.n_blocks
        )
        with pytest.raises(InternalError):
            lazy._reset_cache()

    def test_matches_empty(self):
        nfa = build_nfa(parse("a*"))
        assert LazyDFA(nfa).matches_empty()

    def test_eager_blowup_guard(self):
        nfa = build_nfa(parse(".*a.{0,60}b.{0,60}c"))
        with pytest.raises(ValueError):
            build_dfa(nfa, max_states=50)
