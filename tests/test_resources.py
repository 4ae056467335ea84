import io

import pytest
from hypothesis import given, strategies as st

from turlex import (
    Dictionary,
    LexiconResources,
    ParseError,
    SuffixStemmer,
    dump_dictionary,
    load_abbreviations,
    load_dictionary,
    load_stopwords,
    load_suffixes,
)
from turlex.resources import _bundled, decode_line

from .oracles import slow_stem


with _bundled("suffixes.txt").open("rb") as _stream:
    BUNDLED_SUFFIXES = load_suffixes(_stream)


def buf(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


class TestLoadDictionary:
    def test_basic(self):
        d = load_dictionary(buf("çok\t900\nfilm\t800\n"))
        assert d.frequency("çok") == 900
        assert d.frequency("film") == 800
        assert len(d) == 2

    def test_frequency_defaults_to_one(self):
        d = load_dictionary(buf("çok\nfilm\t5\n"))
        assert d.frequency("çok") == 1
        assert d.frequency("film") == 5

    def test_duplicates_sum(self):
        d = load_dictionary(buf("çok\t10\nçok\t5\n"))
        assert d.frequency("çok") == 15
        assert len(d) == 1

    def test_words_are_lowercased_turkish_style(self):
        d = load_dictionary(buf("İYİ\t3\nIŞIK\t2\n"))
        assert "iyi" in d
        assert "ışık" in d

    def test_blank_lines_skipped(self):
        d = load_dictionary(buf("\nçok\t1\n\n\n"))
        assert len(d) == 1

    def test_too_many_columns(self):
        with pytest.raises(ParseError, match="line 2"):
            load_dictionary(buf("a\t1\nb\t2\t3\n"), name="words.tsv")

    def test_empty_word_column(self):
        with pytest.raises(ParseError, match="empty word"):
            load_dictionary(buf(" \t4\n"))

    def test_non_integer_frequency(self):
        with pytest.raises(ParseError, match="not an integer"):
            load_dictionary(buf("çok\tbeş\n"))

    def test_negative_frequency(self):
        with pytest.raises(ParseError, match="non-negative"):
            load_dictionary(buf("çok\t-1\n"))

    def test_error_names_the_source(self):
        with pytest.raises(ParseError) as err:
            load_dictionary(buf("a\t1\t2\n"), name="words.tsv")
        assert str(err.value).startswith("words.tsv:line 1:")

    def test_invalid_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            load_dictionary(io.BytesIO(b"\xff\xfe\x00"))

    def test_round_trip(self):
        d = load_dictionary(buf("çok\t900\nfilm\t800\nanne\t60\n"))
        sink = io.BytesIO()
        dump_dictionary(d, sink)
        assert load_dictionary(io.BytesIO(sink.getvalue())) == d

    def test_dump_is_sorted(self):
        d = load_dictionary(buf("film\t2\nanne\t1\n"))
        sink = io.BytesIO()
        dump_dictionary(d, sink)
        assert sink.getvalue().decode("utf-8") == "anne\t1\nfilm\t2\n"


class TestDictionary:
    def test_add_sums_frequencies(self):
        d = Dictionary()
        d.add("çok", 3)
        d.add("çok", 4)
        assert d.frequency("çok") == 7

    def test_membership_is_diacritic_exact(self):
        d = Dictionary({"çok": 1})
        assert "çok" in d
        assert "cok" not in d

    def test_unknown_frequency_is_zero(self):
        assert Dictionary().frequency("yok") == 0

    def test_trie_layout(self):
        d = Dictionary({"ab": 2, "ac": 3, "a": 1})
        t = d.trie()
        assert t["a"][""] == 1
        assert t["a"]["b"][""] == 2
        assert t["a"]["c"][""] == 3

    def test_trie_rebuilt_after_add(self):
        d = Dictionary({"ab": 1})
        first = d.trie()
        assert "c" not in first["a"]
        d.add("ac")
        assert d.trie()["a"]["c"][""] == 1

    def test_equality(self):
        assert Dictionary({"a": 1}) == Dictionary({"a": 1})
        assert Dictionary({"a": 1}) != Dictionary({"a": 2})
        assert Dictionary({"a": 1}).__eq__(42) is NotImplemented


class TestDecodeLine:
    @pytest.mark.parametrize(
        ("raw", "line"),
        [
            (b"\xc3\xa7ok\n", "çok"),
            (b"\xc3\xa7ok\r\n", "çok"),
            (b"last line", "last line"),
            (b"two\r\r\n", "two\r"),
            (b"\n", ""),
        ],
    )
    def test_drops_the_newline_and_one_carriage_return(self, raw, line):
        assert decode_line(raw) == line

    def test_undecodable_bytes_have_no_line_number(self):
        with pytest.raises(ParseError) as err:
            decode_line(b"g\xfczel\n")
        assert err.value.line is None
        assert str(err.value) == "not valid UTF-8: invalid start byte"


class TestLoadStopwords:
    def test_basic_with_comments(self):
        words = load_stopwords(buf("# yorum\nve\nbir\n\nbu\n"))
        assert words == frozenset({"ve", "bir", "bu"})

    def test_lowercased(self):
        assert load_stopwords(buf("VE\nİLE\n")) == frozenset({"ve", "ile"})


class TestLoadAbbreviations:
    def test_basic(self):
        table = load_abbreviations(buf("slm\tselam\nkib\tkendine iyi bak\n"))
        assert table["slm"] == "selam"
        assert table["kib"] == "kendine iyi bak"

    def test_missing_column(self):
        with pytest.raises(ParseError, match="line 1"):
            load_abbreviations(buf("slm\n"))

    def test_empty_expansion(self):
        with pytest.raises(ParseError):
            load_abbreviations(buf("slm\t \n"))


class TestLoadSuffixes:
    def test_order_preserved(self):
        assert load_suffixes(buf("# ekler\nlar\nler\nda\n")) == ["lar", "ler", "da"]


class TestSuffixStemmer:
    def test_strips_longest_first(self):
        stemmer = SuffixStemmer(["a", "ba"])
        assert stemmer.stem("xcuba") == "xcu"

    def test_stacked_suffixes_come_off_one_at_a_time(self):
        stemmer = SuffixStemmer(["lar", "ler", "da", "de"])
        assert stemmer.stem("zamanlarda") == "zaman"

    def test_min_stem_len_blocks_short_stems(self):
        stemmer = SuffixStemmer(["im"])
        assert stemmer.stem("etim") == "etim"  # stem would be 2 chars

    def test_empty_suffixes_are_dropped(self):
        assert SuffixStemmer(["", "ler"]).stem("evler") == "evler"  # "ev" is too short

    @pytest.mark.parametrize(
        "word,stem",
        [
            ("sinemada", "sinema"),
            ("kesinlikle", "kesin"),
            ("güzeldi", "güzel"),
            ("etkileyici", "etki"),
            ("film", "film"),
            ("oyunculuk", "oyuncu"),
            ("beğendim", "beğen"),
            ("sıkıcı", "sıkıcı"),
            ("kelime", "kelime"),
            ("sineması", "sinema"),
        ],
    )
    def test_bundled_inventory_pinned_stems(self, bundled, word, stem):
        assert bundled.stemmer.stem(word) == stem

    @given(st.text(alphabet="abcçdefgğhıijklmnoöprsştuüvyz", max_size=15))
    def test_bundled_stemming_is_idempotent(self, bundled, word):
        once = bundled.stemmer.stem(word)
        assert bundled.stemmer.stem(once) == once

    @given(st.text(alphabet="abcçdefgğhıijklmnoöprsştuüvyz", min_size=1, max_size=15))
    def test_stem_is_never_longer(self, bundled, word):
        assert len(bundled.stemmer.stem(word)) <= len(word)

    @given(st.lists(st.text(alphabet="abc", max_size=4), max_size=8), st.text(alphabet="abc", max_size=12))
    def test_matches_suffix_by_suffix_scan(self, suffixes, word):
        assert SuffixStemmer(suffixes).stem(word) == slow_stem(suffixes, word)

    @given(
        st.builds(
            lambda stem, endings: stem + "".join(endings),
            st.text(alphabet="abcçdefgğhıijklmnoöprsştuüvyz", max_size=6),
            st.lists(st.sampled_from(BUNDLED_SUFFIXES), max_size=3),
        )
    )
    def test_bundled_inventory_matches_suffix_by_suffix_scan(self, bundled, word):
        assert bundled.stemmer.stem(word) == slow_stem(BUNDLED_SUFFIXES, word)


class TestLexiconResources:
    def test_from_paths_with_files(self, tmp_path):
        (tmp_path / "d.tsv").write_text("çok\t5\n", encoding="utf-8")
        (tmp_path / "s.txt").write_text("ve\n", encoding="utf-8")
        (tmp_path / "a.tsv").write_text("slm\tselam\n", encoding="utf-8")
        (tmp_path / "x.txt").write_text("ler\n", encoding="utf-8")
        res = LexiconResources.from_paths(
            dictionary=str(tmp_path / "d.tsv"),
            stopwords=str(tmp_path / "s.txt"),
            abbreviations=str(tmp_path / "a.tsv"),
            suffixes=str(tmp_path / "x.txt"),
        )
        assert "çok" in res.dictionary
        assert "ve" in res.stopwords
        assert res.abbreviations["slm"] == "selam"
        assert res.stemmer.stem("filmler") == "film"

    def test_bundled_is_consistent(self, bundled):
        assert len(bundled.dictionary) > 1000
        assert "ve" in bundled.stopwords
        assert bundled.abbreviations["slm"] == "selam"
        # bundled stopwords and dictionary overlap would make corrections
        # of kept tokens ambiguous in spirit; keep them disjoint
        overlap = {w for w in bundled.stopwords if w in bundled.dictionary}
        assert overlap == set()

    def test_missing_file_raises(self):
        with pytest.raises(OSError):
            LexiconResources.from_paths(dictionary="/does/not/exist.tsv")
