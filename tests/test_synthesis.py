"""Synthetic web tests: determinism and controlled feature frequencies."""

import pytest

from repro.corpus.synthesis import (
    DEFAULT_FEATURES,
    CorpusConfig,
    SyntheticWeb,
    ZipfSampler,
    build_corpus,
    make_vocabulary,
)
import random


class TestVocabulary:
    def test_size_and_uniqueness(self):
        words = make_vocabulary(500, random.Random(1))
        assert len(words) == len(set(words)) == 500

    def test_word_shape(self):
        words = make_vocabulary(100, random.Random(2))
        assert all(2 <= len(w) <= 18 for w in words)
        assert all(w.isalpha() and w.islower() for w in words)

    def test_zipf_skew(self):
        words = make_vocabulary(100, random.Random(3))
        sampler = ZipfSampler(words, exponent=1.1)
        rng = random.Random(4)
        sample = sampler.sample(rng, 20_000)
        counts = {}
        for w in sample:
            counts[w] = counts.get(w, 0) + 1
        # rank-1 word must be much more common than rank-50
        assert counts.get(words[0], 0) > 5 * counts.get(words[49], 1)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = build_corpus(n_pages=20, seed=11)
        b = build_corpus(n_pages=20, seed=11)
        assert [u.text for u in a] == [u.text for u in b]

    def test_different_seed_differs(self):
        a = build_corpus(n_pages=5, seed=1)
        b = build_corpus(n_pages=5, seed=2)
        assert [u.text for u in a] != [u.text for u in b]

    def test_page_independent_of_order(self):
        web = SyntheticWeb(CorpusConfig(n_pages=50, seed=9))
        direct = web.page(33).text
        web2 = SyntheticWeb(CorpusConfig(n_pages=50, seed=9))
        for i in range(33):
            web2.page(i)
        assert web2.page(33).text == direct


class TestStructure:
    def test_html_skeleton(self):
        corpus = build_corpus(n_pages=10, seed=5)
        for unit in corpus:
            assert unit.text.startswith("<html>")
            assert unit.text.endswith("</body></html>")
            assert "<title>" in unit.text

    def test_urls_assigned(self):
        corpus = build_corpus(n_pages=5, seed=5)
        assert all(u.url.startswith("http://") for u in corpus)

    def test_alphabet_clean(self):
        """Pages must use only the engine alphabet."""
        from repro.regex.charclass import ALPHABET

        corpus = build_corpus(n_pages=20, seed=6)
        for unit in corpus:
            assert set(unit.text) <= ALPHABET

    def test_hyperlinks_nearly_universal(self):
        """sel(<a href=) ~ 1, the Example 2.1 premise."""
        corpus = build_corpus(n_pages=100, seed=7)
        with_link = sum('<a href="' in u.text for u in corpus)
        assert with_link / len(corpus) > 0.9


class TestFeaturePlanting:
    def test_feature_frequency_tracks_probability(self):
        probs = {"mp3": 0.3, "powerpc": 0.0}
        corpus = build_corpus(n_pages=400, seed=8, feature_probs=probs)
        mp3_pages = sum(".mp3" in u.text for u in corpus)
        powerpc_pages = sum("motorola" in u.text for u in corpus)
        assert 0.2 <= mp3_pages / 400 <= 0.4
        assert powerpc_pages == 0

    def test_all_features_have_defaults(self):
        config = CorpusConfig()
        for name in DEFAULT_FEATURES:
            assert 0.0 <= config.probability(name) <= 1.0

    def test_unknown_feature_probability_zero(self):
        assert CorpusConfig().probability("nonexistent") == 0.0

    def test_override(self):
        config = CorpusConfig(feature_probs={"mp3": 0.77})
        assert config.probability("mp3") == 0.77

    @pytest.mark.parametrize(
        "feature,needle",
        [
            ("mp3", ".mp3"),
            ("ebay", "ebay"),
            ("zip", "our office:"),
            ("phone", "call"),
            ("clinton", "william"),
            ("powerpc", "motorola"),
            ("script", "<script>"),
            ("sigmod", "sigmod"),
            ("stanford", "stanford.edu"),
            ("edison", "Edison"),
        ],
    )
    def test_feature_renderers_produce_needles(self, feature, needle):
        corpus = build_corpus(
            n_pages=150, seed=10, feature_probs={feature: 1.0}
        )
        hits = sum(needle in u.text for u in corpus)
        # the needle must appear in (nearly) all pages when p = 1
        assert hits >= len(corpus) * 0.95

    def test_benchmark_queries_find_planted_features(self):
        """Each planted feature must be matched by its Figure 8 query."""
        import re

        from repro.bench.queries import BENCHMARK_QUERIES
        from repro.regex.matcher import to_stdlib_pattern
        from repro.regex.parser import parse

        feature_of_query = {
            "mp3": "mp3",
            "ebay": "ebay",
            "zip": "zip",
            "clinton": "clinton",
            "powerpc": "powerpc",
            "script": "script",
            "phone": "phone",
            "sigmod": "sigmod",
            "stanford": "stanford",
        }
        for query, feature in feature_of_query.items():
            corpus = build_corpus(
                n_pages=40, seed=12, feature_probs={feature: 1.0}
            )
            oracle = re.compile(
                to_stdlib_pattern(parse(BENCHMARK_QUERIES[query]))
            )
            hits = sum(oracle.search(u.text) is not None for u in corpus)
            assert hits >= len(corpus) * 0.9, query

    def test_with_pages_helper(self):
        config = CorpusConfig(n_pages=10).with_pages(25)
        assert config.n_pages == 25
