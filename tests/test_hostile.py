"""Hostile input: each case is reported with file, line and reason, counted
as a skip under --skip-bad-lines, or bounded in time. Never silently altered.
"""

import io
import json
import time

import pytest

from turlex import (
    LexiconResources,
    Method,
    ParseError,
    correct_word,
    ingest_jsonl,
    load_abbreviations,
    load_dictionary,
    load_stopwords,
    load_suffixes,
)
from turlex.cli import main

from .test_cli import stdin_bytes

GOOD = '{"text": "çok güzel", "rating": 5}'
UNDECODABLE = b'{"text": "g\xfczel", "rating": 5}'
DEEP_NESTING = "[" * 100_000
HUGE_RATING = '{"text": "iyi", "rating": ' + "9" * 5_000 + "}"


def lines(*rows) -> io.BytesIO:
    return io.BytesIO(b"".join((r if isinstance(r, bytes) else r.encode("utf-8")) + b"\n" for r in rows))


@pytest.mark.parametrize(
    ("bad", "reason"),
    [
        (UNDECODABLE, "not valid UTF-8"),
        (DEEP_NESTING, "invalid JSON: maximum recursion depth"),
        (HUGE_RATING, "invalid JSON: Exceeds the limit"),
    ],
    ids=["undecodable", "deep-nesting", "huge-rating"],
)
class TestBadReviewLines:
    def test_raises_with_file_and_line(self, bad, reason):
        with pytest.raises(ParseError) as err:
            ingest_jsonl(lines(GOOD, bad), name="reviews.jsonl")
        assert str(err.value).startswith(f"reviews.jsonl:line 2: {reason}")

    def test_counted_under_skip_bad_lines(self, bad, reason):
        reviews, skipped = ingest_jsonl(lines(GOOD, bad, GOOD), skip_bad_lines=True)
        assert [r.text for r in reviews] == ["çok güzel", "çok güzel"]
        assert skipped == 1

    def test_cli_build_reports_it(self, tmp_path, capsys, bad, reason):
        corpus = tmp_path / "reviews.jsonl"
        corpus.write_bytes(lines(GOOD, bad).getvalue())
        args = ["build", "--input", str(corpus), "--out", str(tmp_path / "lex")]
        assert main(args) == 1
        assert f"error: {corpus}:line 2: {reason}" in capsys.readouterr().err
        assert main(args + ["--skip-bad-lines"]) == 0
        assert "reviews ingested: 1 (skipped 1)" in capsys.readouterr().out

    def test_cli_bench_reports_it(self, tmp_path, capsys, bad, reason):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_bytes(lines('{"word": "cok", "dictionary": ["çok"]}', bad).getvalue())
        assert main(["bench", "--pairs", str(pairs)]) == 1
        assert f"error: {pairs}:line 2: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=ascii)
def test_unicode_line_separators_inside_a_text_stay_in_it(separator):
    row = json.dumps({"text": f"çok{separator}güzel", "rating": 5}, ensure_ascii=False)
    reviews, skipped = ingest_jsonl(lines(row, GOOD))
    assert [r.text for r in reviews] == [f"çok{separator}güzel", "çok güzel"]
    assert skipped == 0


def test_lone_carriage_returns_do_not_end_lines():
    source = io.BytesIO((GOOD + "\r" + GOOD + "\r").encode("utf-8"))
    with pytest.raises(ParseError) as err:
        ingest_jsonl(source, name="old-mac.jsonl")
    assert str(err.value).startswith("old-mac.jsonl:line 1: invalid JSON: Extra data")


@pytest.mark.parametrize(
    "loader", [load_dictionary, load_stopwords, load_abbreviations, load_suffixes]
)
def test_undecodable_resource_names_file_and_line(loader):
    source = io.BytesIO(b"first\tline\n# g\xfczel\n")
    with pytest.raises(ParseError) as err:
        loader(source, name="resource.txt")
    assert str(err.value).startswith("resource.txt:line 2: not valid UTF-8")


@pytest.mark.parametrize("separator", ["\u2028", "\x85"], ids=ascii)
@pytest.mark.parametrize(
    "loader", [load_dictionary, load_stopwords, load_abbreviations, load_suffixes]
)
def test_resource_line_break_inside_a_line_names_file_and_line(loader, separator):
    source = io.BytesIO(f"iyi\t5\nçok{separator}güzel\t5\n".encode("utf-8"))
    with pytest.raises(ParseError) as err:
        loader(source, name="resource.txt")
    assert str(err.value).startswith("resource.txt:line 2: line break inside a line")


def test_crlf_dictionary_loads_like_lf():
    lf = "çok\t900\ngüzel\t700\n\nfilm\n"
    crlf = lf.replace("\n", "\r\n")
    assert load_dictionary(io.BytesIO(crlf.encode("utf-8"))) == load_dictionary(
        io.BytesIO(lf.encode("utf-8"))
    )


def test_undecodable_resource_path_is_named(tmp_path):
    stopwords = tmp_path / "stop.txt"
    stopwords.write_bytes(b"ve\n\xff\n")
    with pytest.raises(ParseError) as err:
        LexiconResources.from_paths(stopwords=str(stopwords))
    assert str(err.value).startswith(f"{stopwords}:line 2: not valid UTF-8")


def test_long_token_is_bounded_in_time(bundled):
    # 2,006 letters with no doubled letter and no toggle letter, so the
    # word reaches the fuzzy stage, where every entry used to be scored.
    token = "abdefhjklmnprtvyz" * 118
    start = time.perf_counter()
    result = correct_word(token, bundled)
    assert time.perf_counter() - start < 0.25
    assert result.method is Method.UNCHANGED


def test_long_dictionary_entry_is_reached_by_toggling(tmp_path, capsys, monkeypatch):
    # One trie level per letter: a search that recursed per level would
    # exceed the interpreter's recursion limit here.
    dictionary = tmp_path / "dict.tsv"
    dictionary.write_text("ab" * 1000 + "i\t5\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin_bytes(("ab" * 1000 + "ı\n").encode("utf-8")))
    assert main(["correct", "--dict", str(dictionary)]) == 0
    assert capsys.readouterr().out == "ab" * 1000 + "i\n"
