import gc
import hashlib
import io
import json
import time
from importlib.resources import files
from pathlib import Path

import pytest

from turlex import (
    CorrectorConfig,
    JobConfig,
    LexiconResources,
    Method,
    NgramTable,
    ParseError,
    RawReview,
    bench_compare,
    correct_text,
    ingest_jsonl,
    round_score,
    run_pipeline,
)
from turlex import pipeline


class TestRoundScore:
    @pytest.mark.parametrize(
        ("raw", "rounded"),
        [
            (0.875, 0.88),
            (0.845, 0.85),
            (2.675, 2.68),
            (0.8749, 0.87),
            (1.0, 1.0),
            (0.0, 0.0),
            (2 / 3, 0.67),
            (1 / 3, 0.33),
        ],
    )
    def test_half_up_on_the_decimal_representation(self, raw, rounded):
        assert round_score(raw) == rounded


class TestJobConfig:
    def test_defaults(self, tmp_path):
        config = JobConfig(inputs=("a.jsonl",), out_dir=str(tmp_path))
        assert config.gram_sizes == (1, 2, 3)
        assert config.classes == frozenset(range(6))
        assert config.workers == 1
        assert config.min_count == 1

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"inputs": ()}, "at least one input"),
            ({"gram_sizes": ()}, "gram sizes"),
            ({"gram_sizes": (1, 4)}, "gram sizes"),
            ({"gram_sizes": (2, 2)}, "duplicate gram sizes"),
            ({"workers": 0}, "workers"),
            ({"min_count": 0}, "min_count"),
            ({"classes": frozenset()}, "class set"),
        ],
    )
    def test_validation(self, tmp_path, kwargs, match):
        base = {"inputs": ("a.jsonl",), "out_dir": str(tmp_path)}
        base.update(kwargs)
        with pytest.raises(ValueError, match=match):
            JobConfig(**base)


def jsonl(*objs) -> io.BytesIO:
    lines = [obj if isinstance(obj, str) else json.dumps(obj, ensure_ascii=False) for obj in objs]
    return io.BytesIO(("\n".join(lines) + "\n").encode("utf-8"))


class TestIngest:
    def test_happy_path(self):
        reviews, skipped = ingest_jsonl(jsonl({"text": "çok iyi", "rating": 5}, {"text": "kötü", "rating": 1}))
        assert skipped == 0
        assert [(r.text, r.rating) for r in reviews] == [("çok iyi", 5), ("kötü", 1)]

    def test_blank_lines_are_skipped_silently(self):
        reviews, skipped = ingest_jsonl(jsonl({"text": "a", "rating": 1}, "", "   ", {"text": "b", "rating": 2}))
        assert len(reviews) == 2
        assert skipped == 0

    def test_extra_fields_are_ignored(self):
        reviews, _ = ingest_jsonl(jsonl({"text": "a", "rating": 1, "user": "x"}))
        assert reviews[0].rating == 1

    @pytest.mark.parametrize(
        ("line", "match"),
        [
            ("{not json", "invalid JSON"),
            ('["text", "rating"]', "expected a JSON object"),
            ("null", "expected a JSON object"),
            ('{"rating": 3}', "'text' must be a non-empty string"),
            ('{"text": "", "rating": 3}', "'text' must be a non-empty string"),
            ('{"text": "   ", "rating": 3}', "'text' must be a non-empty string"),
            ('{"text": 7, "rating": 3}', "'text' must be a non-empty string"),
            ('{"text": "iyi"}', "'rating' must be an integer"),
            ('{"text": "iyi", "rating": true}', "'rating' must be an integer"),
            ('{"text": "iyi", "rating": 3.0}', "'rating' must be an integer"),
            ('{"text": "iyi", "rating": "3"}', "'rating' must be an integer"),
            ('{"text": "iyi", "rating": 9}', "rating 9 outside the configured classes"),
        ],
    )
    def test_bad_lines_raise(self, line, match):
        with pytest.raises(ParseError, match=match):
            ingest_jsonl(jsonl(line))

    def test_line_numbers_count_physical_lines(self):
        source = jsonl({"text": "a", "rating": 1}, "", "{broken")
        with pytest.raises(ParseError) as err:
            ingest_jsonl(source, name="reviews.jsonl")
        assert err.value.line == 3
        assert str(err.value).startswith("reviews.jsonl:line 3: ")

    def test_skip_bad_lines_counts_and_continues(self):
        source = jsonl(
            {"text": "a", "rating": 1},
            "{broken",
            {"text": "b", "rating": 9},
            {"text": "c", "rating": 2},
        )
        reviews, skipped = ingest_jsonl(source, skip_bad_lines=True)
        assert [r.text for r in reviews] == ["a", "c"]
        assert skipped == 2

    def test_custom_class_set(self):
        source = jsonl({"text": "a", "rating": 7})
        reviews, _ = ingest_jsonl(source, classes=frozenset({7}))
        assert reviews[0].rating == 7


class TestCorrectText:
    def test_empty_line(self, tiny_resources):
        assert correct_text("", tiny_resources) == ("", [])
        assert correct_text("!!! :)", tiny_resources) == ("", [])

    def test_mixed_line(self, tiny_resources):
        corrected, results = correct_text("Bu film çooookkkk guzel!!!", tiny_resources)
        assert corrected == "bu film çok güzel"
        assert [r.method for r in results] == [
            Method.EXACT,  # stopword passes through
            Method.EXACT,
            Method.REPEAT_COLLAPSE,
            Method.DIACRITIC,
        ]

    def test_stopwords_are_never_rewritten(self, tiny_resources):
        corrected, results = correct_text("bir ve bu", tiny_resources)
        assert corrected == "bir ve bu"
        assert all(r.confidence == 1.0 for r in results)

    def test_abbreviation_expansion_lands_in_the_line(self, tiny_resources):
        corrected, results = correct_text("slm anne", tiny_resources)
        assert corrected == "selam anne"
        assert results[0].method is Method.ABBREVIATION


def write_corpus(path: Path, rows) -> str:
    lines = [json.dumps(row, ensure_ascii=False) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


CORPUS = [
    {"text": "bu film çooook güzel", "rating": 5},
    {"text": "film cok kötü", "rating": 1},
    {"text": "slm anne", "rating": 5},
]


class TestRunPipeline:
    def test_end_to_end(self, tmp_path, tiny_resources):
        corpus = write_corpus(tmp_path / "reviews.jsonl", CORPUS)
        out = tmp_path / "out"
        config = JobConfig(inputs=(corpus,), out_dir=str(out))
        report = run_pipeline(config, tiny_resources)

        assert report.reviews_ingested == 3
        assert report.reviews_skipped == 0
        assert report.reviews_by_class == {1: 1, 5: 2}
        assert report.tokens_seen == 9
        assert report.tokens_kept == 8  # "bu" is a stopword
        assert report.corrections["exact"] == 5  # film x2, güzel, kötü, anne
        assert report.corrections["repeat_collapse"] == 1
        assert report.corrections["diacritic"] == 1
        assert report.corrections["abbreviation"] == 1
        assert set(report.phase_seconds) == {"ingest", "map", "merge", "emit"}

        # 2 classes x (grams + exclusive) + shared, for each of n=1,2,3
        assert len(report.files_emitted) == 15
        assert report.files_emitted == sorted(report.files_emitted)
        for name in report.files_emitted:
            assert (out / name).is_file()

        grams5 = (out / "grams_n1_class5.tsv").read_text(encoding="utf-8")
        assert grams5.splitlines() == ["anne\t1", "film\t1", "güzel\t1", "selam\t1", "çok\t1"]
        shared = (out / "shared_n1_classes1-5.tsv").read_text(encoding="utf-8")
        assert shared.splitlines() == ["film", "çok"]
        excl1 = (out / "exclusive_n1_class1.tsv").read_text(encoding="utf-8")
        assert excl1.splitlines() == ["kötü\t1"]

        summary = report.summary()
        assert "reviews ingested: 3" in summary
        assert "files emitted: 15" in summary

    def test_min_count_drops_singletons(self, tmp_path, tiny_resources):
        corpus = write_corpus(tmp_path / "reviews.jsonl", CORPUS)
        out = tmp_path / "out"
        config = JobConfig(inputs=(corpus,), out_dir=str(out), gram_sizes=(1,), min_count=2)
        run_pipeline(config, tiny_resources)
        grams5 = (out / "grams_n1_class5.tsv").read_text(encoding="utf-8")
        assert grams5 == ""  # every class-5 unigram occurred once
        # classes survive filtering, so the file set is unchanged
        assert (out / "shared_n1_classes1-5.tsv").read_text(encoding="utf-8") == ""

    def test_multiple_inputs_concatenate(self, tmp_path, tiny_resources):
        first = write_corpus(tmp_path / "a.jsonl", CORPUS[:2])
        second = write_corpus(tmp_path / "b.jsonl", CORPUS[2:])
        config = JobConfig(inputs=(first, second), out_dir=str(tmp_path / "out"))
        report = run_pipeline(config, tiny_resources)
        assert report.reviews_ingested == 3

    def test_bad_line_names_the_file(self, tmp_path, tiny_resources):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"text": "x", "rating": 77}\n', encoding="utf-8")
        config = JobConfig(inputs=(str(bad),), out_dir=str(tmp_path / "out"))
        with pytest.raises(ParseError) as err:
            run_pipeline(config, tiny_resources)
        assert err.value.source == str(bad)
        assert err.value.line == 1

    def test_skip_bad_lines_is_reported(self, tmp_path, tiny_resources):
        rows = CORPUS + [{"text": "x", "rating": 77}]
        corpus = write_corpus(tmp_path / "reviews.jsonl", rows)
        config = JobConfig(inputs=(corpus,), out_dir=str(tmp_path / "out"), skip_bad_lines=True)
        report = run_pipeline(config, tiny_resources)
        assert report.reviews_ingested == 3
        assert report.reviews_skipped == 1
        assert "(skipped 1)" in report.summary()

    def test_single_class_emits_no_shared_files(self, tmp_path, tiny_resources):
        corpus = write_corpus(tmp_path / "reviews.jsonl", [{"text": "film çok güzel", "rating": 5}])
        out = tmp_path / "out"
        config = JobConfig(inputs=(corpus,), out_dir=str(out))
        report = run_pipeline(config, tiny_resources)
        assert len(report.files_emitted) == 6  # grams + exclusive for one class, n=1..3
        assert not any(name.startswith("shared") for name in report.files_emitted)

    def test_restricted_gram_sizes(self, tmp_path, tiny_resources):
        corpus = write_corpus(tmp_path / "reviews.jsonl", CORPUS)
        out = tmp_path / "out"
        config = JobConfig(inputs=(corpus,), out_dir=str(out), gram_sizes=(2,))
        report = run_pipeline(config, tiny_resources)
        assert all("_n2_" in name for name in report.files_emitted)

    def test_worker_count_never_changes_the_output(self, tmp_path, tiny_resources):
        rows = [
            {"text": text, "rating": rating}
            for rating, text in [
                (5, "bu film çooook güzel"),
                (1, "film cok kötü"),
                (5, "slm anne"),
                (1, "kötü film ve kötü anne"),
                (5, "geliyorum bu güzel sinemaya"),
                (4, "film film film"),
                (2, "çok anne çok"),
                (5, "gelirm yarın grz"),
                (3, "şok şok güzel"),
                (1, "berbaat bir şey"),
            ]
        ]
        corpus = write_corpus(tmp_path / "reviews.jsonl", rows)
        digests = set()
        for workers in (1, 2, 8):
            out = tmp_path / f"out{workers}"
            config = JobConfig(inputs=(corpus,), out_dir=str(out), workers=workers)
            report = run_pipeline(config, tiny_resources)
            digest = hashlib.sha256()
            for name in sorted(report.files_emitted):
                digest.update(name.encode("utf-8"))
                digest.update((out / name).read_bytes())
            digests.add(digest.hexdigest())
        assert len(digests) == 1

    def test_ingest_phase_excludes_loading_the_resources(self, tmp_path, bundled, monkeypatch):
        def slow_bundled(cls):
            time.sleep(0.2)
            return bundled

        monkeypatch.setattr(LexiconResources, "bundled", classmethod(slow_bundled))
        corpus = write_corpus(tmp_path / "reviews.jsonl", CORPUS[:1])
        report = run_pipeline(JobConfig(inputs=(corpus,), out_dir=str(tmp_path / "out")))
        assert report.phase_seconds["ingest"] < 0.2

    def test_nothing_of_an_input_file_outlives_its_merge(self, tmp_path, bundled, monkeypatch):
        def live():
            gc.collect()
            objects = gc.get_objects()
            return (
                sum(isinstance(obj, RawReview) for obj in objects),
                sum(isinstance(obj, NgramTable) for obj in objects),
            )

        seen = []
        emit = pipeline._emit

        def counting_emit(*args):
            seen.append(live())
            return emit(*args)

        monkeypatch.setattr(pipeline, "_emit", counting_emit)
        corpus = str(files("turlex.data") / "sample_reviews.jsonl")
        reviews_before, tables_before = live()
        run_pipeline(JobConfig(inputs=(corpus,), out_dir=str(tmp_path / "out")), bundled)
        [(reviews, tables)] = seen
        # Only the run's three tables, one per gram size, reach emit.
        assert (reviews - reviews_before, tables - tables_before) == (0, 3)


class TestBenchCompare:
    def test_blocks_and_scores(self):
        text = bench_compare([("cok", ["çok", "cop", "cuk"])])
        assert "== cok" in text
        assert "levenshtein similarity (threshold 0.60)" in text
        assert "gestalt similarity (threshold 0.60)" in text
        # all three candidates are one edit away from a 3-letter word
        assert text.count("0.67") >= 3
        assert "correction cascade" in text
        assert "çok  1.00  diacritic" in text

    def test_note_mentions_the_underivable_score(self):
        text = bench_compare([("cok", ["çok"])])
        assert "0.33" in text
        assert "not derivable" in text

    def test_no_candidates_at_threshold(self):
        text = bench_compare([("cok", ["zzzzzz"])], threshold=0.99)
        assert "(no candidate at threshold)" in text

    def test_empty_candidate_list_is_an_error(self):
        with pytest.raises(ValueError, match="empty candidate dictionary"):
            bench_compare([("cok", [])])

    def test_cascade_ignores_the_comparison_threshold(self):
        # even with an impossible threshold the cascade still corrects
        text = bench_compare([("cok", ["çok"])], threshold=1.0)
        assert "çok  1.00  diacritic" in text
