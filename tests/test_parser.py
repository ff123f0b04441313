"""Parser tests: grammar coverage, escapes, classes, errors, round-trip."""

import pytest

from repro.errors import RegexSyntaxError
from repro.regex import ast
from repro.regex.charclass import ALPHA, DIGIT, DOT, SPACE, WORD, CharClass
from repro.regex.nfa import MAX_COUNTED_EXPANSION
from repro.regex.parser import MAX_NESTING_DEPTH, parse


class TestAtoms:
    def test_single_literal(self):
        node = parse("a")
        assert isinstance(node, ast.Char)
        assert node.cls == CharClass.singleton("a")

    def test_literal_string(self):
        node = parse("abc")
        assert isinstance(node, ast.Concat)
        assert len(node.parts) == 3

    def test_dot(self):
        assert parse(".").cls == DOT

    def test_empty_pattern_matches_empty(self):
        assert isinstance(parse(""), ast.Empty)

    def test_group(self):
        assert parse("(a)") == parse("a")

    def test_nested_groups(self):
        assert parse("((a))") == parse("a")


class TestEscapes:
    @pytest.mark.parametrize(
        "pattern,cls",
        [(r"\a", ALPHA), (r"\d", DIGIT), (r"\s", SPACE), (r"\w", WORD)],
    )
    def test_shorthand(self, pattern, cls):
        assert parse(pattern).cls == cls

    @pytest.mark.parametrize("meta", list(".*+?|()[]{}\\"))
    def test_escaped_metachar(self, meta):
        node = parse("\\" + meta)
        assert node.cls == CharClass.singleton(meta)

    def test_control_escapes(self):
        assert parse(r"\t").cls.only_char == "\t"
        assert parse(r"\n").cls.only_char == "\n"
        assert parse(r"\r").cls.only_char == "\r"

    def test_unknown_escape_rejected(self):
        with pytest.raises(RegexSyntaxError):
            parse(r"\q")

    def test_trailing_backslash_rejected(self):
        with pytest.raises(RegexSyntaxError):
            parse("ab\\")


class TestQuantifiers:
    def test_star(self):
        node = parse("a*")
        assert isinstance(node, ast.Star)

    def test_plus(self):
        assert isinstance(parse("a+"), ast.Plus)

    def test_opt(self):
        assert isinstance(parse("a?"), ast.Opt)

    def test_counted_exact(self):
        node = parse("a{3}")
        assert isinstance(node, ast.Repeat)
        assert (node.lo, node.hi) == (3, 3)

    def test_counted_open(self):
        node = parse("a{2,}")
        assert (node.lo, node.hi) == (2, None)

    def test_counted_range(self):
        node = parse("a{0,200}")
        assert (node.lo, node.hi) == (0, 200)

    def test_quantifier_binds_to_atom(self):
        node = parse("ab*")
        assert isinstance(node, ast.Concat)
        assert isinstance(node.parts[1], ast.Star)

    def test_quantifier_on_group(self):
        node = parse("(ab)*")
        assert isinstance(node, ast.Star)
        assert isinstance(node.child, ast.Concat)

    def test_stacked_quantifiers(self):
        node = parse("a*?")  # (a*)? in this dialect, not lazy matching
        assert isinstance(node, ast.Opt)
        assert isinstance(node.child, ast.Star)

    def test_dangling_quantifier_rejected(self):
        for bad in ("*a", "+a", "?a", "{2}a", "|*"):
            with pytest.raises(RegexSyntaxError):
                parse(bad)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(RegexSyntaxError):
            parse("a{3,2}")

    def test_malformed_bounds_rejected(self):
        for bad in ("a{", "a{}", "a{x}", "a{1,2"):
            with pytest.raises(RegexSyntaxError):
                parse(bad)


class TestAlternation:
    def test_two_options(self):
        node = parse("a|b")
        assert isinstance(node, ast.Alt)
        assert len(node.options) == 2

    def test_flattened(self):
        node = parse("a|b|c")
        assert len(node.options) == 3

    def test_precedence_concat_over_alt(self):
        node = parse("ab|cd")
        assert isinstance(node, ast.Alt)
        assert all(isinstance(o, ast.Concat) for o in node.options)

    def test_empty_branch_allowed(self):
        node = parse("a|")
        assert isinstance(node, ast.Alt)
        assert isinstance(node.options[1], ast.Empty)

    def test_group_changes_precedence(self):
        grouped = parse("a(b|c)d")
        flat = parse("ab|cd")
        assert grouped != flat


class TestCharClasses:
    def test_simple_class(self):
        node = parse("[abc]")
        assert set(node.cls.chars) == {"a", "b", "c"}

    def test_range(self):
        node = parse("[a-e]")
        assert set(node.cls.chars) == set("abcde")

    def test_multiple_ranges(self):
        node = parse("[a-c0-2]")
        assert set(node.cls.chars) == set("abc012")

    def test_negated(self):
        node = parse("[^a]")
        assert "a" not in node.cls
        assert "b" in node.cls

    def test_negated_range(self):
        node = parse("[^a-z]")
        assert "m" not in node.cls
        assert "M" in node.cls

    def test_shorthand_inside_class(self):
        node = parse(r"[\d-]")
        assert "5" in node.cls and "-" in node.cls

    def test_literal_dash_positions(self):
        # leading or trailing '-' is a literal
        assert "-" in parse("[-a]").cls
        assert "-" in parse("[a-]").cls

    def test_bracket_literal_first(self):
        # ']' right after '[' is a literal in this dialect via escape
        node = parse(r"[\]]")
        assert "]" in node.cls

    def test_caret_not_first_is_literal(self):
        node = parse("[a^]")
        assert "^" in node.cls and "a" in node.cls

    def test_unterminated_rejected(self):
        with pytest.raises(RegexSyntaxError):
            parse("[abc")

    def test_empty_class_rejected(self):
        with pytest.raises(RegexSyntaxError):
            parse("[]")

    def test_reversed_range_rejected(self):
        with pytest.raises(RegexSyntaxError):
            parse("[z-a]")

    def test_metachars_literal_inside_class(self):
        node = parse("[.*+?]")
        assert set(node.cls.chars) == {".", "*", "+", "?"}


class TestErrors:
    @pytest.mark.parametrize("bad", ["(", ")", "(a", "a)", "(a|b", "a|b)"])
    def test_unbalanced_parens(self, bad):
        with pytest.raises(RegexSyntaxError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(RegexSyntaxError) as excinfo:
            parse("ab[")
        assert excinfo.value.position >= 2
        assert excinfo.value.pattern == "ab["


class TestLimits:
    """Patterns past the dialect's size limits fail at parse time."""

    DEPTH = MAX_NESTING_DEPTH
    COPIES = MAX_COUNTED_EXPANSION

    @pytest.mark.parametrize("pattern", [
        "x.{0,250}y", "(" * 300 + "a" + ")" * 300, "a{5000}",
    ], ids=["gap", "groups", "count"])
    def test_hostile_patterns_rejected(self, pattern):
        with pytest.raises(RegexSyntaxError):
            parse(pattern)

    def test_group_nesting(self):
        n = self.DEPTH
        assert parse("(" * n + "a" + ")" * n) == parse("a")
        with pytest.raises(RegexSyntaxError, match="nest"):
            parse("(" * (n + 1) + "a" + ")" * (n + 1))

    def test_bounded_gap_nesting(self):
        # .{0,k} expands to k nested optional copies plus one level.
        gap = self.DEPTH - 1
        assert parse(f"x.{{0,{gap}}}y") == ast.concat(
            ast.Char.literal("x"),
            ast.Repeat(ast.Char(DOT), 0, gap),
            ast.Char.literal("y"),
        )
        with pytest.raises(RegexSyntaxError, match="nests"):
            parse(f"x.{{0,{gap + 1}}}y")

    def test_groups_and_gaps_add_up(self):
        gap = self.DEPTH - 11
        parse("(" * 10 + f"x.{{0,{gap}}}y" + ")" * 10)
        with pytest.raises(RegexSyntaxError, match="nests"):
            parse("(" * 11 + f"x.{{0,{gap}}}y" + ")" * 11)

    def test_stacked_quantifiers_count(self):
        parse("a" + "?" * self.DEPTH)
        with pytest.raises(RegexSyntaxError, match="nests"):
            parse("a" + "?" * (self.DEPTH + 1))

    def test_counted_copies(self):
        parse(f"a{{{self.COPIES}}}")
        parse(f"a{{{self.COPIES},}}")
        with pytest.raises(RegexSyntaxError, match="copies"):
            parse(f"a{{{self.COPIES + 1}}}")
        with pytest.raises(RegexSyntaxError, match="copies"):
            parse(f"a{{0,{self.COPIES + 1}}}")

    def test_nested_repetitions_multiply(self):
        parse("(a{64}){64}")
        with pytest.raises(RegexSyntaxError, match="copies"):
            parse("(a{65}){64}")
        with pytest.raises(RegexSyntaxError, match="copies"):
            parse("(a{0}){5000}")

    def test_plus_counts_two_copies(self):
        # r+ compiles as r r*: stacked pluses double the automaton.
        parse("a" + "+" * 12)
        with pytest.raises(RegexSyntaxError, match="copies"):
            parse("a" + "+" * 13)


class TestRoundTrip:
    """to_pattern() output must re-parse to an equal AST."""

    @pytest.mark.parametrize(
        "pattern",
        [
            "a",
            "abc",
            "a|b",
            "a*b+c?",
            "(ab|cd)*e",
            "[a-z]+@[a-z]+",
            r"\d\d\d-\d\d\d\d",
            "a{2,5}",
            "a{3,}",
            "a{4}",
            r"<a href=(\"|')?.*\.mp3(\"|')?>",
            "(Bill|William).*Clinton",
            r"motorola.*(xpc|mpc)[0-9]+[0-9a-z]*",
            "<[^>]*<",
            r"<script>.*</script>",
        ],
    )
    def test_round_trip(self, pattern):
        node = parse(pattern)
        assert parse(node.to_pattern()) == node


class TestBenchmarkQueriesParse:
    """Every Figure 8 benchmark query must parse."""

    def test_all_benchmark_queries(self):
        from repro.bench.queries import BENCHMARK_QUERIES

        for name, pattern in BENCHMARK_QUERIES.items():
            node = parse(pattern)
            assert node is not None, name
