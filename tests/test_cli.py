import argparse
import io
import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

import turlex
from turlex.cli import _parse_grams, _parse_int_set, build_parser, main


class TestArgHelpers:
    def test_int_set_range(self):
        assert _parse_int_set("0-5", "x") == frozenset(range(6))

    def test_int_set_list(self):
        assert _parse_int_set("1,3,5", "x") == frozenset({1, 3, 5})

    def test_int_set_mixed(self):
        assert _parse_int_set("0-2,5", "x") == frozenset({0, 1, 2, 5})

    def test_int_set_tolerates_spaces_and_empty_chunks(self):
        assert _parse_int_set(" 1 , 2 ,", "x") == frozenset({1, 2})

    def test_int_set_rejects_backwards_range(self):
        with pytest.raises(argparse.ArgumentTypeError, match="bad range"):
            _parse_int_set("5-2", "--classes")

    def test_int_set_rejects_empty(self):
        with pytest.raises(argparse.ArgumentTypeError, match="must not be empty"):
            _parse_int_set(",", "--classes")

    def test_grams(self):
        assert _parse_grams("1,2,3") == (1, 2, 3)
        assert _parse_grams("2") == (2,)

    def test_grams_rejects_out_of_range(self):
        with pytest.raises(argparse.ArgumentTypeError, match="gram sizes"):
            _parse_grams("4")
        with pytest.raises(argparse.ArgumentTypeError, match="gram sizes"):
            _parse_grams("")

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_smoke(self):
        args = build_parser().parse_args(
            ["build", "--input", "a.jsonl", "--out", "d", "--grams", "1,2", "--classes", "1-5"]
        )
        assert args.grams == (1, 2)
        assert args.classes == frozenset({1, 2, 3, 4, 5})


@pytest.fixture()
def resource_files(tmp_path):
    paths = {
        "dict": tmp_path / "dict.tsv",
        "stopwords": tmp_path / "stop.txt",
        "abbrev": tmp_path / "abbrev.tsv",
        "suffixes": tmp_path / "suffix.txt",
    }
    paths["dict"].write_text(
        "çok\t900\nfilm\t800\ngüzel\t700\ngelirim\t300\nanne\t60\ngörüşürüz\t40\n",
        encoding="utf-8",
    )
    paths["stopwords"].write_text("ve\nbir\nbu\n", encoding="utf-8")
    paths["abbrev"].write_text("slm\tselam\ngrz\tgörüşürüz\n", encoding="utf-8")
    paths["suffixes"].write_text("ler\nlar\ndi\ndı\n", encoding="utf-8")
    return paths


def resource_flags(paths):
    return [
        "--dict", str(paths["dict"]),
        "--stopwords", str(paths["stopwords"]),
        "--abbrev", str(paths["abbrev"]),
        "--suffixes", str(paths["suffixes"]),
    ]


class TestBuildCommand:
    def test_happy_path(self, tmp_path, resource_files, capsys):
        corpus = tmp_path / "reviews.jsonl"
        rows = [
            {"text": "bu film çooook güzel", "rating": 5},
            {"text": "film cok berbat", "rating": 1},
        ]
        corpus.write_text(
            "\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n", encoding="utf-8"
        )
        out = tmp_path / "lex"
        code = main(
            ["build", "--input", str(corpus), "--out", str(out)] + resource_flags(resource_files)
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "reviews ingested: 2" in captured.out
        assert "files emitted: 15" in captured.out
        assert (out / "grams_n1_class5.tsv").is_file()
        assert (out / "shared_n1_classes1-5.tsv").is_file()

    def test_missing_input_file(self, tmp_path, resource_files, capsys):
        code = main(
            ["build", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "lex")]
            + resource_flags(resource_files)
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")

    def test_malformed_corpus_line(self, tmp_path, resource_files, capsys):
        corpus = tmp_path / "reviews.jsonl"
        corpus.write_text('{"text": "x"}\n', encoding="utf-8")
        code = main(
            ["build", "--input", str(corpus), "--out", str(tmp_path / "lex")]
            + resource_flags(resource_files)
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "line 1" in captured.err
        assert "'rating'" in captured.err

    def test_bad_worker_count_reports_cleanly(self, tmp_path, resource_files, capsys):
        corpus = tmp_path / "reviews.jsonl"
        corpus.write_text('{"text": "film", "rating": 5}\n', encoding="utf-8")
        code = main(
            ["build", "--input", str(corpus), "--out", str(tmp_path / "lex"), "--workers", "0"]
            + resource_flags(resource_files)
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error: workers must be at least 1" in captured.err


class TestCorrectCommand:
    def test_corrects_stdin_lines(self, resource_files, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("slm bu film çooook guzel\ngelirm\n"))
        code = main(["correct"] + resource_flags(resource_files))
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "selam bu film çok güzel\ngelirim\n"
        assert captured.err == ""

    def test_trace_goes_to_stderr(self, resource_files, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("cok\n"))
        code = main(["correct", "--trace"] + resource_flags(resource_files))
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "çok\n"
        assert "cok -> çok  diacritic  1.00" in captured.err

    def test_answers_each_line_before_stdin_closes(self, resource_files):
        src = str(Path(turlex.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)  # stdout must flush by itself
        proc = subprocess.Popen(
            [sys.executable, "-m", "turlex.cli", "correct"] + resource_flags(resource_files),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            proc.stdin.write("cok guzel\n".encode("utf-8"))
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 20)
            assert ready, "no answer while stdin is still open"
            assert proc.stdout.readline().decode("utf-8") == "çok güzel\n"
            proc.stdin.close()
            assert proc.wait(timeout=20) == 0
        finally:
            proc.stdin.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_fuzzy_threshold_flag(self, resource_files, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("gelirm\n"))
        code = main(
            ["correct", "--fuzzy-threshold", "0.95"] + resource_flags(resource_files)
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "gelirm\n"  # 0.92 no longer clears the bar


class TestBenchCommand:
    def write_pairs(self, path, rows):
        path.write_text(
            "\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n", encoding="utf-8"
        )
        return str(path)

    def test_happy_path(self, tmp_path, capsys):
        pairs = self.write_pairs(
            tmp_path / "pairs.jsonl", [{"word": "cok", "dictionary": ["çok", "cop", "cuk"]}]
        )
        code = main(["bench", "--pairs", pairs])
        captured = capsys.readouterr()
        assert code == 0
        assert "== cok" in captured.out
        assert "correction cascade" in captured.out
        assert "not derivable" in captured.out

    def test_threshold_flag(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.jsonl", [{"word": "cok", "dictionary": ["zzzz"]}])
        code = main(["bench", "--pairs", pairs, "--threshold", "0.99"])
        captured = capsys.readouterr()
        assert code == 0
        assert "(no candidate at threshold)" in captured.out

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "pairs.jsonl"
        path.write_text('\n{"word": "cok", "dictionary": ["çok"]}\n\n', encoding="utf-8")
        assert main(["bench", "--pairs", str(path)]) == 0

    def test_missing_field(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.jsonl", [{"word": "cok"}])
        code = main(["bench", "--pairs", pairs])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "line 1" in captured.err

    def test_empty_dictionary_field(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.jsonl", [{"word": "cok", "dictionary": []}])
        code = main(["bench", "--pairs", pairs])
        captured = capsys.readouterr()
        assert code == 1
        assert "non-empty dictionary list" in captured.err

    def test_missing_pairs_file(self, tmp_path, capsys):
        code = main(["bench", "--pairs", str(tmp_path / "nope.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
