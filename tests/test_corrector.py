import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from turlex import (
    CandidateExplosionError,
    CorrectionResult,
    CorrectorConfig,
    Dictionary,
    LexiconResources,
    Method,
    candidate_count,
    correct_word,
    count_ambiguous,
    diacritic_correct,
    generate_candidates,
)
import turlex.corrector
from turlex.corrector import DEFAULT_TOGGLE_PAIRS

from .oracles import slow_candidates, slow_correct_word, slow_diacritic_pick

PAIRS = frozenset(DEFAULT_TOGGLE_PAIRS)

# toggleable letters on both sides plus a few neutral consonants
mixed_word = st.text(alphabet="cçgğiıoösşuükmrt", min_size=1, max_size=8)

# Words of up to 8 letters built run by run, so doubled letters are common,
# over few letters, so random words share toggles and substrings.
cascade_word = (
    st.lists(st.tuples(st.sampled_from("cçiıoökl"), st.integers(1, 2)), min_size=1, max_size=5)
    .map(lambda runs: "".join(ch * n for ch, n in runs))
    .filter(lambda w: len(w) <= 8)
)


def noisy(words: list[str]) -> st.SearchStrategy[str]:
    """One of words with letters toggled and, half the time, stretched."""
    partner = dict(PAIRS) | {b: a for a, b in PAIRS}

    def variants(ch: str, stretch: bool) -> list[str]:
        toggled = [partner[ch]] if ch in partner else []
        return [ch] + toggled + ([ch * 2, ch * 3] if stretch else [])

    return st.tuples(st.sampled_from(words), st.booleans()).flatmap(
        lambda ws: st.tuples(*(st.sampled_from(variants(ch, ws[1])) for ch in ws[0])).map("".join)
    )


class TestAmbiguityMap:
    def test_partner_is_an_involution(self):
        for a, b in DEFAULT_TOGGLE_PAIRS:
            assert generate_candidates(a) == generate_candidates(b) == {a, b}

    def test_unpaired_characters(self):
        assert count_ambiguous("k") == 0
        assert generate_candidates("k") == {"k"}


class TestCandidateGeneration:
    def test_count_ambiguous(self):
        assert count_ambiguous("simarik") == 3  # s, i, i
        assert count_ambiguous("krt") == 0
        assert count_ambiguous("çöğş") == 4  # second members toggle back too

    def test_candidate_count_is_closed_form(self):
        assert candidate_count("simarik") == 8
        assert candidate_count("krt") == 1
        word = "cgisou" * 3  # 18 toggle positions
        assert count_ambiguous(word) == 18
        assert candidate_count(word) == 262144

    def test_generate_candidates_small(self):
        assert generate_candidates("cok") == {"cok", "çok", "cök", "çök"}

    def test_word_itself_is_always_included(self):
        assert "krt" in generate_candidates("krt")

    def test_generation_cap(self):
        word = "i" * 17
        with pytest.raises(CandidateExplosionError) as err:
            generate_candidates(word)
        assert err.value.positions == 17
        assert err.value.cap == 16
        assert "2**17" in str(err.value)

    def test_raised_cap_allows_generation(self):
        word = "i" * 17
        assert len(generate_candidates(word, max_positions=17)) == 2**17

    @given(mixed_word)
    @settings(max_examples=200)
    def test_matches_product_enumeration(self, word):
        assert generate_candidates(word) == slow_candidates(word, PAIRS)

    @given(mixed_word)
    def test_count_matches_enumeration(self, word):
        assert len(generate_candidates(word)) == candidate_count(word)


def freq_dict(entries: dict[str, int]) -> Dictionary:
    d = Dictionary()
    for word, freq in entries.items():
        d.add(word, freq)
    return d


class TestDiacriticCorrect:
    def test_basic(self, tiny_dict):
        assert diacritic_correct("cok", tiny_dict) == "çok"
        assert diacritic_correct("kotu", tiny_dict) == "kötü"

    def test_reverse_direction(self, tiny_dict):
        # over-corrected input repairs back toward the dictionary form
        assert diacritic_correct("şök", tiny_dict) == "şok"

    def test_none_when_nothing_reachable(self, tiny_dict):
        assert diacritic_correct("zzz", tiny_dict) is None

    def test_frequency_ranks_first(self):
        d = freq_dict({"çok": 11, "cök": 10})
        assert diacritic_correct("cok", d) == "çok"
        d = freq_dict({"çok": 10, "cök": 11})
        assert diacritic_correct("cok", d) == "cök"

    def test_fewer_toggles_break_frequency_ties(self):
        d = freq_dict({"sık": 7, "şik": 7})
        # both need toggles from "sik": sık needs one, şik needs one... use
        # a case with genuinely different toggle counts
        d = freq_dict({"sik": 7, "şık": 7})
        assert diacritic_correct("sik", d) == "sik"  # zero toggles beats two

    def test_lexicographic_last_resort(self):
        d = freq_dict({"çok": 5, "cök": 5})
        # equal frequency, one toggle each: code point order decides
        assert diacritic_correct("cok", d) == "cök"

    def test_explosion_cap(self, tiny_dict):
        with pytest.raises(CandidateExplosionError):
            diacritic_correct("i" * 17, tiny_dict)

    def test_trie_pruning_matches_naive_ranking(self, bundled):
        entries = dict(bundled.dictionary.items())
        for word in ["cok", "guzel", "kotu", "igrenc", "simarik", "surukleyici", "film", "zzz"]:
            assert diacritic_correct(word, bundled.dictionary) == slow_diacritic_pick(
                word, PAIRS, entries
            ), word

    @given(
        mixed_word,
        st.dictionaries(mixed_word, st.integers(min_value=1, max_value=50), max_size=12),
    )
    @settings(max_examples=200)
    def test_matches_naive_on_random_dictionaries(self, word, entries):
        d = freq_dict(entries)
        assert diacritic_correct(word, d) == slow_diacritic_pick(word, PAIRS, entries)


class TestCorrectWord:
    def test_exact(self, tiny_resources):
        r = correct_word("film", tiny_resources)
        assert r == CorrectionResult("film", "film", Method.EXACT, 1.0, ("exact",))

    def test_abbreviation(self, tiny_resources):
        r = correct_word("slm", tiny_resources)
        assert r.corrected == "selam"
        assert r.method is Method.ABBREVIATION
        assert r.confidence == 1.0

    def test_diacritic(self, tiny_resources):
        r = correct_word("cok", tiny_resources)
        assert (r.corrected, r.method, r.confidence) == ("çok", Method.DIACRITIC, 1.0)
        assert r.trace == ("diacritic",)

    def test_fuzzy_fallback(self, tiny_resources):
        r = correct_word("gelirm", tiny_resources)
        assert r.corrected == "gelirim"
        assert r.method is Method.FUZZY_FALLBACK
        assert r.confidence == pytest.approx(12 / 13)

    def test_unchanged(self, tiny_resources):
        r = correct_word("xyzw", tiny_resources)
        assert r == CorrectionResult("xyzw", "xyzw", Method.UNCHANGED, 0.0, ())

    def test_collapse_then_exact(self, tiny_resources):
        r = correct_word("çooookkkk", tiny_resources)
        assert (r.corrected, r.method) == ("çok", Method.REPEAT_COLLAPSE)
        assert r.confidence == 1.0
        assert r.trace == ("repeat_collapse", "exact")

    def test_collapse_then_abbreviation(self, tiny_resources):
        r = correct_word("grrrz", tiny_resources)
        assert r.corrected == "görüşürüz"
        assert r.method is Method.REPEAT_COLLAPSE
        assert r.trace == ("repeat_collapse", "abbreviation")

    def test_collapse_then_diacritic(self, tiny_resources):
        r = correct_word("cooook", tiny_resources)
        assert r.corrected == "çok"
        assert r.trace == ("repeat_collapse", "diacritic")

    def test_collapse_unresolved_returns_original(self, tiny_resources):
        r = correct_word("qqqq", tiny_resources)
        assert r.corrected == "qqqq"  # not "q"
        assert r.method is Method.UNCHANGED
        assert r.confidence == 0.0
        assert r.trace == ("repeat_collapse",)

    def test_unresolved_collapse_skips_late_stages_on_the_word(self, bundled, monkeypatch):
        # "tesekurler" matches nothing; "tesekkurler" itself would reach
        # "teşekkürler" by toggling, but only the collapsed form is tried.
        seen = []
        real = turlex.corrector.best_matches

        def spy(word, *rest):
            seen.append(word)
            return real(word, *rest)

        monkeypatch.setattr(turlex.corrector, "best_matches", spy)
        r = correct_word("tesekkurler", bundled)
        assert r == CorrectionResult(
            "tesekkurler", "tesekkurler", Method.UNCHANGED, 0.0, ("repeat_collapse",)
        )
        assert seen == ["tesekurler"]

    def test_stretching_beats_fuzzy(self, tiny_resources):
        # "filmm" must resolve by collapsing, not by fuzzy similarity
        r = correct_word("filmm", tiny_resources)
        assert (r.corrected, r.method) == ("film", Method.REPEAT_COLLAPSE)
        assert r.trace == ("repeat_collapse", "exact")

    # alternating letters so the repeat-collapse stage stays out of the way
    WIDE = "iu" * 8 + "i"  # 17 toggle positions
    WIDE_TARGET = "ıu" * 8 + "ı"

    def _wide_resources(self):
        return LexiconResources(
            dictionary=freq_dict({self.WIDE_TARGET: 5}),
            stopwords=frozenset(),
            abbreviations={},
            stemmer=_Identity(),
        )

    def test_explosion_degrades_to_fuzzy(self):
        r = correct_word(self.WIDE, self._wide_resources())
        assert "toggle_overflow" in r.trace
        # the fuzzy stage still runs but only the u letters line up,
        # well under the confidence floor, so the word passes through
        assert r.method is Method.UNCHANGED
        assert r.corrected == self.WIDE

    def test_raised_cap_resolves_wide_words(self):
        config = CorrectorConfig(max_toggle_positions=17)
        r = correct_word(self.WIDE, self._wide_resources(), config)
        assert (r.corrected, r.method) == (self.WIDE_TARGET, Method.DIACRITIC)
        assert "toggle_overflow" not in r.trace

    def test_exact_wins_over_everything(self, tiny_resources):
        # "anne" has a double letter and toggleable letters, but it is in
        # the dictionary, so nothing else runs
        r = correct_word("anne", tiny_resources)
        assert r.trace == ("exact",)

    @given(st.text(alphabet="cçgğiıoösşuükmrtqe", min_size=1, max_size=10))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_total_function_invariants(self, tiny_resources, word):
        r = correct_word(word, tiny_resources)
        assert r.original == word
        assert 0.0 <= r.confidence <= 1.0
        assert isinstance(r.method, Method)
        assert r.corrected
        if r.method is Method.UNCHANGED:
            assert r.corrected == word
            assert r.confidence == 0.0
        if r.method is Method.EXACT:
            assert r.corrected == word

    @given(
        st.dictionaries(cascade_word, st.integers(min_value=1, max_value=50), max_size=10),
        st.data(),
    )
    @settings(max_examples=300, deadline=2000)
    def test_matches_slow_cascade(self, entries, data):
        abbreviations = data.draw(
            st.dictionaries(cascade_word, st.sampled_from(sorted(entries) or ["x"]), max_size=2)
        )
        word = data.draw(cascade_word | noisy(sorted(entries) or ["x"]))
        config = CorrectorConfig(
            fuzzy_threshold=data.draw(st.sampled_from([0.5, 0.8])),
            max_toggle_positions=data.draw(st.sampled_from([1, 3, 16])),
        )
        resources = LexiconResources(freq_dict(entries), frozenset(), abbreviations, _Identity())
        r = correct_word(word, resources, config)
        expected = slow_correct_word(
            word, entries, abbreviations, PAIRS, config.fuzzy_threshold, config.max_toggle_positions
        )
        assert (r.original, r.corrected, r.method.value, r.confidence, r.trace) == expected


class TestCorrectorConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="fuzzy_threshold"):
            CorrectorConfig(fuzzy_threshold=1.2)

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="max_toggle_positions"):
            CorrectorConfig(max_toggle_positions=-1)

    def test_defaults(self):
        config = CorrectorConfig()
        assert config.fuzzy_threshold == 0.8
        assert config.max_toggle_positions == 16


class _Identity:
    def stem(self, word: str) -> str:
        return word
