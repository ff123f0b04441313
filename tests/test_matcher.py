"""Matcher tests: containment, span semantics, stdlib oracle, anchoring."""

import re

import pytest

from repro.errors import InternalError
from repro.regex.dfa import build_dfa
from repro.regex.matcher import Matcher, to_stdlib_pattern
from repro.regex.nfa import build_nfa
from repro.regex.parser import parse


class TestContains:
    @pytest.mark.parametrize(
        "pattern,text,expected",
        [
            ("abc", "xxabcxx", True),
            ("abc", "ababab", False),
            ("a+b", "caaab", True),
            ("a|b", "ccc", False),
            ("[0-9]+", "px44q", True),
            ("colou?r", "my color", True),
            ("colou?r", "my colour", True),
            ("c.t", "a cat sat", True),
            ("^", None, None),  # placeholder replaced below
        ][:-1],
    )
    def test_basic(self, pattern, text, expected):
        assert Matcher(pattern).contains(text) is expected

    def test_empty_pattern_contains_everything(self):
        assert Matcher("").contains("")
        assert Matcher("").contains("abc")

    def test_contains_at_boundaries(self):
        m = Matcher("ab")
        assert m.contains("abxx")
        assert m.contains("xxab")

    def test_multiline_text(self):
        m = Matcher("foo.bar")
        assert m.contains("xx foo\nbar yy")  # our dot spans newline


class TestSpans:
    def test_single_match(self):
        assert list(Matcher("bc").finditer("abcd")) == [(1, 3)]

    def test_multiple_matches_non_overlapping(self):
        assert list(Matcher("aa").finditer("aaaa")) == [(0, 2), (2, 4)]

    def test_leftmost_longest(self):
        # earliest end 1, leftmost start 0, longest from there (0, 2)
        spans = list(Matcher("a|ab").finditer("ab"))
        assert spans == [(0, 2)]

    def test_leftmost_longest_with_star(self):
        text = "<script>a</script> mid <script>b</script>"
        spans = list(Matcher("<script>.*</script>").finditer(text))
        # greedy .* spans to the LAST </script> (longest from the start)
        assert spans == [(0, len(text))]

    def test_earliest_end_comes_before_leftmost_start(self):
        # bc ends (at 3) before abcd does, so this is not POSIX's (0, 4)
        assert list(Matcher("abcd|bc").finditer("abcd")) == [(1, 3)]

    def test_plus_greedy(self):
        assert list(Matcher("a+").finditer("aaa b aa")) == [(0, 3), (6, 8)]

    def test_findall_strings(self):
        assert Matcher("a.c").findall("aXc abc") == ["aXc", "abc"]

    def test_count(self):
        assert Matcher("[0-9]+").count("1 22 333") == 3

    def test_search_first(self):
        assert Matcher("b+").search("abbbc") == (1, 4)
        assert Matcher("z").search("abc") is None

    def test_search_with_start(self):
        assert Matcher("a").search("aba", 1) == (2, 3)

    def test_empty_match_advances(self):
        spans = list(Matcher("a*").finditer("ba"))
        assert (0, 0) in spans and (1, 2) in spans

    def test_non_ascii_keeps_str_offsets(self):
        text = "\u00e9\u00e9 ab \U0001f600 ab"
        assert list(Matcher("ab").finditer(text)) == [(3, 5), (8, 10)]
        assert Matcher("a.b").findall("a\u00e9b a\x00b a\x7fb a-b") == ["a-b"]

    def test_search_reverse_disagreement_is_internal_error(self):
        # Not an AssertionError: it must survive -O and map to a 500.
        m = Matcher("ab")
        m._reverse = build_dfa(build_nfa(parse("aa")), alphabet=m._alphabet)
        with pytest.raises(InternalError, match="disagree"):
            list(m.finditer("xxab"))

    def test_fullmatch(self):
        m = Matcher("ab+")
        assert m.fullmatch("abbb")
        assert not m.fullmatch("abbbc")
        assert not m.fullmatch("xabb")


class TestAnchoring:
    def test_anchor_extracted(self):
        m = Matcher("(Bill|William).*Clinton")
        assert m.anchors == frozenset({"Clinton"})

    def test_anchor_none_for_class_queries(self):
        m = Matcher(r"\d\d\d")
        # digits expand to an OR of 1-grams; a valid (weak) anchor set
        assert m.anchors is None or all(len(a) == 1 for a in m.anchors)

    def test_anchor_disabled(self):
        m = Matcher("abc", anchoring=False)
        assert m.anchors is None
        assert m.contains("xxabc")

    def test_anchored_and_unanchored_agree(self):
        texts = ["has Clinton here", "nothing", "Bill only", "BillClinton"]
        with_anchor = Matcher("(Bill|William).*Clinton")
        without = Matcher("(Bill|William).*Clinton", anchoring=False)
        for text in texts:
            assert with_anchor.contains(text) == without.contains(text)


class TestReBackend:
    """Containment against stdlib ``re`` over ``to_stdlib_pattern``."""

    PATTERNS = [
        "abc",
        "a+b*c?",
        "(ab|cd)+",
        "[a-f]{2,3}",
        r"\d\d-\d\d",
        "x(y|)z",
        "<[^>]*>",
    ]
    TEXTS = ["", "abc", "aabbcc", "xz xyz", "12-34", "<tag> body", "cdcdab"]

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_contains_parity(self, pattern):
        ours = Matcher(pattern)
        oracle = re.compile(to_stdlib_pattern(parse(pattern)))
        for text in self.TEXTS:
            assert ours.contains(text) == (
                oracle.search(text) is not None
            ), (pattern, text)

    def test_stdlib_translation_language(self):
        pattern = r"(\a|\d)+\.edu"
        compiled = re.compile(to_stdlib_pattern(parse(pattern)))
        assert compiled.fullmatch("cs42.edu")
        assert not compiled.fullmatch("cs .edu")


class TestLazyPatterns:
    """Patterns routed to the lazy DFA must still match correctly."""

    def test_sigmod_like(self):
        m = Matcher(r'<a href=("|\')?[^>]*\.pdf("|\')?>.{0,200}sigmod')
        text = '<a href="x.pdf">' + "w" * 100 + "sigmod"
        assert m.contains(text)
        far = '<a href="x.pdf">' + "w" * 300 + "sigmod"
        assert not m.contains(far)

    def test_bounded_gap_span(self):
        m = Matcher("a.{0,60}b")
        text = "a" + "x" * 50 + "b"
        assert list(m.finditer(text)) == [(0, len(text))]


class TestBenchmarkQueriesMatch:
    """Hand-built positive/negative texts for each Figure 8 query."""

    CASES = {
        "mp3": (
            '<a href="http://x.com/song.mp3">song</a>',
            '<a href="http://x.com/song.mp4">song</a>',
        ),
        "ebay": (
            "go to ebay for the big auction now",
            "go to ebay for the big sale now",
        ),
        "zip": (
            "office: sanjose, ca 95120",
            "office: sanjose ca 9512",
        ),
        "html": ("<b <i>", "<b></b><i></i>"),
        "clinton": (
            "william jefferson clinton",
            "william clinton",
        ),
        "powerpc": (
            "motorola ships mpc7400x today",
            "motorola ships pentium3 today",
        ),
        "script": (
            "<script>var x=1;</script>",
            "<script no close",
        ),
        "phone": ("call (408) 555-0199", "call 40855 50199"),
        "sigmod": (
            '<a href="p.pdf">p</a> in sigmod',
            '<a href="p.doc">p</a> in sigmod',
        ),
        "stanford": (
            "mail me at jo-e.smith@cs.stanford.edu ok",
            "mail me at jo-e.smith@cs.mit.edu ok",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_positive_negative(self, name):
        from repro.bench.queries import BENCHMARK_QUERIES

        matcher = Matcher(BENCHMARK_QUERIES[name])
        positive, negative = self.CASES[name]
        assert matcher.contains(positive), name
        assert not matcher.contains(negative), name
