import itertools

import pytest
from hypothesis import given, settings, strategies as st

from turlex import (
    RankedMatch,
    best_matches,
    gestalt_similarity,
    levenshtein_distance,
    levenshtein_similarity,
)

from .oracles import slow_best_matches, slow_gestalt, slow_levenshtein

# Frozen scores for the comparison fixtures; also asserted in acceptance.
REFERENCE_GESTALT = [
    ("gelirm", "gelirim", 0.92),
    ("gelirm", "geldim", 0.83),
    ("gelirm", "geliyorum", 0.80),
    ("gelirm", "germ", 0.80),
    ("biliyrm", "bildirim", 0.80),
    ("biliyrm", "bilim", 0.83),
    ("biliyrm", "biliyorum", 0.88),
    ("sonuşlar", "sonuçlar", 0.88),
]

short_word = st.text(alphabet="abçd", max_size=6)


class TestLevenshteinDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("kitten", "sitting", 3),
            ("cok", "çok", 1),
            ("", "", 0),
            ("", "abc", 3),
            ("abc", "", 3),
            ("aynı", "aynı", 0),
            ("gelirm", "gelirim", 1),
            ("cok", "cop", 1),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    def test_exhaustive_against_oracle_up_to_length_three(self):
        alphabet = "abçd"
        words = [""]
        for n in (1, 2, 3):
            words += ["".join(p) for p in itertools.product(alphabet, repeat=n)]
        for a in words:
            for b in words:
                assert levenshtein_distance(a, b) == slow_levenshtein(a, b), (a, b)

    @given(short_word, short_word)
    def test_sampled_against_oracle_up_to_length_six(self, a, b):
        assert levenshtein_distance(a, b) == slow_levenshtein(a, b)

    @given(short_word, short_word)
    def test_symmetric(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(short_word)
    def test_zero_iff_equal(self, a):
        assert levenshtein_distance(a, a) == 0

    @given(short_word, short_word, short_word)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)


class TestLevenshteinSimilarity:
    def test_both_empty(self):
        assert levenshtein_similarity("", "") == 1.0

    def test_single_edit_three_letter_pair(self):
        assert levenshtein_similarity("cok", "çok") == pytest.approx(2 / 3)
        assert levenshtein_similarity("cok", "cop") == pytest.approx(2 / 3)

    def test_normalizes_by_longer_word(self):
        assert levenshtein_similarity("gelirm", "gelirim") == pytest.approx(1 - 1 / 7)

    @given(short_word, short_word)
    def test_bounded(self, a, b):
        assert 0.0 <= levenshtein_similarity(a, b) <= 1.0

    @given(short_word)
    def test_identical_scores_one(self, a):
        assert levenshtein_similarity(a, a) == 1.0


class TestGestaltSimilarity:
    def test_reference_scores(self):
        for a, b, expected in REFERENCE_GESTALT:
            assert round(gestalt_similarity(a, b), 2) == pytest.approx(expected), (a, b)

    def test_rounding_boundary_case(self):
        # 14 matched characters over 16 total: exactly 0.875
        assert gestalt_similarity("biliyrm", "biliyorum") == pytest.approx(0.875)

    def test_both_empty(self):
        assert gestalt_similarity("", "") == 1.0

    def test_disjoint_strings(self):
        assert gestalt_similarity("abc", "xyz") == 0.0

    def test_exhaustive_against_oracle_short_strings(self):
        # every pair over a three-letter alphabet up to length 4; the
        # length-5 sweep runs in the acceptance suite
        alphabet = "abç"
        words = [""]
        for n in (1, 2, 3, 4):
            words += ["".join(p) for p in itertools.product(alphabet, repeat=n)]
        for a in words:
            for b in words:
                assert gestalt_similarity(a, b) == pytest.approx(slow_gestalt(a, b)), (a, b)

    @given(st.text(alphabet="abç", max_size=7), st.text(alphabet="abç", max_size=7))
    @settings(max_examples=300)
    def test_sampled_against_oracle(self, a, b):
        assert gestalt_similarity(a, b) == pytest.approx(slow_gestalt(a, b))

    @given(short_word, short_word)
    def test_bounded(self, a, b):
        assert 0.0 <= gestalt_similarity(a, b) <= 1.0

    @given(short_word)
    def test_identical_scores_one(self, a):
        assert gestalt_similarity(a, a) == 1.0


class TestBestMatches:
    CANDIDATES = ["gelirim", "geldim", "geliyorum", "germ"]

    def test_orders_by_score(self):
        matches = best_matches("gelirm", self.CANDIDATES, "gestalt", 0.6)
        assert [m.candidate for m in matches] == ["gelirim", "geldim", "germ", "geliyorum"]
        assert matches[0] == RankedMatch("gelirim", pytest.approx(12 / 13))

    def test_threshold_filters(self):
        matches = best_matches("gelirm", self.CANDIDATES, "gestalt", 0.81)
        assert [m.candidate for m in matches] == ["gelirim", "geldim"]

    def test_score_tie_broken_by_edit_distance_then_lexicographic(self):
        # all four candidates score 2/3 under levenshtein similarity and
        # sit one edit away, so the order is purely lexicographic
        matches = best_matches("cok", ["çok", "cık", "cop", "cuk"], "levenshtein", 0.6)
        assert [m.candidate for m in matches] == ["cop", "cuk", "cık", "çok"]

    def test_edit_distance_breaks_equal_scores(self):
        # both candidates keep the "ab" block and score 0.5, but "xyab"
        # needs four edits where "abxy" needs two
        word = "abcd"
        assert gestalt_similarity(word, "xyab") == gestalt_similarity(word, "abxy") == 0.5
        assert levenshtein_distance(word, "abxy") == 2
        assert levenshtein_distance(word, "xyab") == 4
        matches = best_matches(word, ["xyab", "abxy"], "gestalt", 0.5)
        assert [m.candidate for m in matches] == ["abxy", "xyab"]

    def test_empty_result_below_threshold(self):
        assert best_matches("zzz", ["çok"], "gestalt", 0.8) == []

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            best_matches("a", ["b"], "gestalt", 1.5)
        with pytest.raises(ValueError, match="threshold"):
            best_matches("a", ["b"], "gestalt", -0.1)

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            best_matches("a", ["b"], "cosine", 0.5)  # type: ignore[arg-type]

    @given(st.lists(short_word, max_size=8), short_word)
    def test_scores_descend_and_respect_threshold(self, candidates, word):
        matches = best_matches(word, candidates, "gestalt", 0.5)
        scores = [m.score for m in matches]
        assert scores == sorted(scores, reverse=True)
        assert all(s >= 0.5 for s in scores)

    # A two-letter alphabet makes one word often contain the other, so
    # scores reach the length bound 2*min/(la+lb); thresholds equal to such
    # a bound sit on the pruning edge and are drawn on purpose.
    @given(
        st.text(alphabet="ab", max_size=8),
        st.lists(st.text(alphabet="ab", max_size=8), max_size=10),
        st.sampled_from(["gestalt", "levenshtein"]),
        st.sampled_from([0.0, 0.5, 0.6, 2 / 3, 0.8, 6 / 7, 1.0]) | st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=2000)
    def test_matches_full_scan_oracle(self, word, candidates, metric, threshold):
        got = [(m.candidate, m.score) for m in best_matches(word, candidates, metric, threshold)]
        assert got == slow_best_matches(word, candidates, metric, threshold)
