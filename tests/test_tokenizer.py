import unicodedata

from hypothesis import given, strategies as st

from turlex import (
    Dictionary,
    Token,
    collapse_repeats,
    remove_stopwords,
    strip_noise,
    tokenize,
    turkish_lowercase,
)
from turlex.tokenizer import _NOISE_TABLE

from .oracles import slow_collapse, slow_strip_noise

TR_LOWER = "abcçdefgğhıijklmnoöprsştuüvyz"
TR_UPPER = "ABCÇDEFGĞHIİJKLMNOÖPRSŞTUÜVYZ"

tr_text = st.text(alphabet=TR_LOWER + TR_UPPER + " .,!?:;0123456789'\"-()", max_size=40)


class TestTurkishLowercase:
    def test_dotted_capital_i(self):
        assert turkish_lowercase("İSTANBUL") == "istanbul"

    def test_dotless_capital_i(self):
        assert turkish_lowercase("ISPARTA") == "ısparta"

    def test_mixed_sentence(self):
        assert turkish_lowercase("Iİiı ÇOK GÜZEL") == "ıiiı çok güzel"

    def test_plain_ascii_untouched(self):
        assert turkish_lowercase("hello") == "hello"

    @given(tr_text)
    def test_idempotent(self, text):
        once = turkish_lowercase(text)
        assert turkish_lowercase(once) == once

    @given(tr_text)
    def test_length_preserved(self, text):
        assert len(turkish_lowercase(text)) == len(text)


class TestStripNoise:
    def test_punctuation_becomes_space(self):
        assert strip_noise("harika!!!") == "harika   "

    def test_digits_removed(self):
        assert strip_noise("10 puan") == "   puan"

    def test_symbols_removed(self):
        assert strip_noise("a+b=c") == "a b c"

    def test_emoji_removed(self):
        assert strip_noise("süper 😀") == "süper  "

    def test_letters_and_whitespace_survive(self):
        assert strip_noise("çok iyi\tfilm\n") == "çok iyi\tfilm\n"

    @given(tr_text)
    def test_output_has_no_noise_characters(self, text):
        for ch in strip_noise(text):
            cat = unicodedata.category(ch)
            assert cat[0] not in ("P", "S") and cat != "Nd"

    @given(tr_text)
    def test_length_preserved(self, text):
        assert len(strip_noise(text)) == len(text)

    def test_classification_cache_stays_bounded(self):
        # Every code point up to U+2FFFF, surrogates included, through one call.
        text = "".join(map(chr, range(0x30000)))
        assert strip_noise(text) == slow_strip_noise(text)
        assert len(_NOISE_TABLE) <= 4096

    @given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()), max_size=40))
    def test_matches_per_character_classification(self, text):
        assert strip_noise(text) == slow_strip_noise(text)


class TestTokenize:
    def test_full_cleanup(self):
        tokens = tokenize("Bu film ÇOK güzel!!! 10/10")
        assert [t.surface for t in tokens] == ["bu", "film", "çok", "güzel"]
        assert [t.index for t in tokens] == [0, 1, 2, 3]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_noise_only_text(self):
        assert tokenize("!!! ... 123") == []

    @given(tr_text)
    def test_indices_are_sequential(self, text):
        tokens = tokenize(text)
        assert [t.index for t in tokens] == list(range(len(tokens)))

    @given(tr_text)
    def test_surfaces_are_clean_and_lowercase(self, text):
        for token in tokenize(text):
            assert token.surface == turkish_lowercase(token.surface)
            assert " " not in token.surface
            assert token.surface != ""


def dict_of(*words):
    d = Dictionary()
    for w in words:
        d.add(w)
    return d


class TestCollapseRepeats:
    def test_stretched_word_collapses_to_dictionary_hit(self):
        assert collapse_repeats("çooookkkk", dict_of("çok")) == "çok"

    def test_single_stretched_run(self):
        assert collapse_repeats("şoook", dict_of("şok")) == "şok"

    def test_no_runs_returns_word_unchanged(self):
        assert collapse_repeats("film", dict_of("film")) == "film"

    def test_legitimate_double_letter_is_kept(self):
        # "anne" is in the dictionary with zero characters removed, so the
        # double n survives even though "ane" would also be a candidate.
        assert collapse_repeats("anne", dict_of("anne")) == "anne"

    def test_fewest_removed_wins(self):
        assert collapse_repeats("ellli", dict_of("eli", "elli")) == "elli"

    def test_tie_breaks_lexicographically(self):
        # both keep-one and keep-two forms drop one char; the smaller string wins
        assert collapse_repeats("aabb", dict_of("abb", "aab")) == "aab"

    def test_no_dictionary_hit_collapses_every_run(self):
        assert collapse_repeats("xxyyzz", dict_of()) == "xyz"

    def test_too_many_runs_skips_enumeration(self):
        word = "aabbccddeeffgghhii"  # nine runs, above the enumeration cap
        assert collapse_repeats(word, dict_of(word)) == "abcdefghi"

    @given(st.text(alphabet="abç", min_size=1, max_size=12))
    def test_never_longer_than_input(self, word):
        assert len(collapse_repeats(word, dict_of())) <= len(word)

    @given(st.text(alphabet="abç", min_size=1, max_size=12))
    def test_idempotent_without_dictionary(self, word):
        once = collapse_repeats(word, dict_of())
        assert collapse_repeats(once, dict_of()) == once

    @given(st.lists(st.text(alphabet="abç", min_size=1, max_size=8), max_size=12), st.data())
    def test_matches_full_enumeration(self, words, data):
        # Queries are random or a stretched dictionary word; up to 24
        # letters, so some of them exceed the cap of 8 runs.
        word = data.draw(
            st.text(alphabet="abç", min_size=1, max_size=24)
            | st.sampled_from(words or ["ab"]).flatmap(
                lambda w: st.tuples(*(st.integers(1, 3) for _ in w)).map(
                    lambda times: "".join(ch * n for ch, n in zip(w, times))
                )
            )
        )
        known = dict.fromkeys(words, 1)
        assert collapse_repeats(word, dict_of(*words)) == slow_collapse(word, known)


class TestRemoveStopwords:
    def test_filters_and_renumbers(self):
        tokens = [Token("bu", 0), Token("film", 1), Token("ve", 2), Token("güzel", 3)]
        kept = remove_stopwords(tokens, {"bu", "ve"})
        assert kept == [Token("film", 0), Token("güzel", 1)]

    def test_empty_stopword_set(self):
        tokens = tokenize("çok iyi")
        assert remove_stopwords(tokens, frozenset()) == tokens

    def test_all_stopwords(self):
        assert remove_stopwords(tokenize("ve bu"), {"ve", "bu"}) == []
