"""Batch pipeline: ingest rated reviews, correct and stem tokens, emit
rating-partitioned n-gram lexicon files.

The build runs serially, one map task per input file: each file's reviews
are counted into n-gram tables of their own, which are then merged into the
run's tables. Corrections are pure functions of the read-only resources, so
each distinct surface form is corrected and stemmed once per run. Merged
tables do not depend on merge order, and the emitted files depend only on
the multiset of reviews. ``JobConfig.workers`` is accepted and validated but
has no effect.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from .corrector import (
    DEFAULT_CONFIG,
    CorrectionResult,
    CorrectorConfig,
    Method,
    correct_word,
)
from .errors import ParseError
from .ngrams import GRAM_SIZES, NgramTable, extract_ngrams, verify_partition
from .resources import Dictionary, LexiconResources, SuffixStemmer, decode_line
from .similarity import best_matches
from .tokenizer import RawReview, remove_stopwords, tokenize

__all__ = [
    "JobConfig",
    "PipelineReport",
    "ingest_jsonl",
    "run_pipeline",
    "correct_text",
    "bench_compare",
    "round_score",
]

DEFAULT_CLASSES = frozenset(range(6))


def round_score(value: float) -> float:
    """Round to two decimals, halves away from zero (0.875 -> 0.88)."""
    return float(Decimal(str(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class JobConfig:
    """Everything a batch run needs besides the input bytes."""

    inputs: tuple[str, ...]
    out_dir: str
    gram_sizes: tuple[int, ...] = GRAM_SIZES
    classes: frozenset[int] = DEFAULT_CLASSES
    workers: int = 1  # validated, but has no effect: the build runs serially
    min_count: int = 1
    corrector: CorrectorConfig = field(default_factory=CorrectorConfig)
    skip_bad_lines: bool = False

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("at least one input path is required")
        if not self.gram_sizes or any(n not in GRAM_SIZES for n in self.gram_sizes):
            raise ValueError(f"gram sizes must be a non-empty subset of {GRAM_SIZES}, got {self.gram_sizes!r}")
        if len(set(self.gram_sizes)) != len(self.gram_sizes):
            raise ValueError("duplicate gram sizes")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.min_count < 1:
            raise ValueError("min_count must be at least 1")
        if not self.classes:
            raise ValueError("the class set must not be empty")


@dataclass
class PipelineReport:
    """What a batch run did, for logging and assertions."""

    reviews_ingested: int = 0
    reviews_skipped: int = 0
    reviews_by_class: dict[int, int] = field(default_factory=dict)
    tokens_seen: int = 0
    tokens_kept: int = 0
    corrections: dict[str, int] = field(default_factory=dict)
    files_emitted: list[str] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            f"reviews ingested: {self.reviews_ingested}"
            + (f" (skipped {self.reviews_skipped})" if self.reviews_skipped else ""),
            "reviews by class: "
            + (
                ", ".join(f"{c}: {n}" for c, n in sorted(self.reviews_by_class.items()))
                or "none"
            ),
            f"tokens seen: {self.tokens_seen}, kept after stopwords: {self.tokens_kept}",
            "corrections: "
            + (", ".join(f"{m}: {n}" for m, n in sorted(self.corrections.items())) or "none"),
            f"files emitted: {len(self.files_emitted)}",
        ]
        lines += [f"  {name}" for name in self.files_emitted]
        lines.append(
            "phase seconds: "
            + ", ".join(f"{phase}: {secs:.3f}" for phase, secs in self.phase_seconds.items())
        )
        return "\n".join(lines)


def ingest_jsonl(
    source: BinaryIO,
    classes: frozenset[int] = DEFAULT_CLASSES,
    skip_bad_lines: bool = False,
    name: str | None = None,
) -> tuple[list[RawReview], int]:
    """Read one {"text": ..., "rating": ...} JSON object per line.

    Lines end at b"\\n" only. Blank lines are skipped silently. A line that
    is not valid UTF-8 or not a valid review raises ParseError with its line
    number unless skip_bad_lines is set, in which case it is counted
    instead. Returns (reviews, skipped_count).
    """
    reviews: list[RawReview] = []
    skipped = 0
    for lineno, raw in enumerate(source, start=1):
        try:
            review = _parse_review(raw, classes)
        except ParseError as exc:
            if skip_bad_lines:
                skipped += 1
                continue
            raise ParseError(exc.message, lineno, name) from None
        if review is not None:
            reviews.append(review)
    return reviews, skipped


def decode_json_object(raw: bytes) -> dict | None:
    """The JSON object on one input line, or None for a blank line.

    Bytes that are not UTF-8, any failure of json.loads (nesting too deep,
    an integer beyond the digit limit) and a value that is not an object
    raise ParseError without a line number; the caller knows it.
    """
    line = decode_line(raw)
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _parse_review(raw: bytes, classes: frozenset[int]) -> RawReview | None:
    """The review on one input line, or None for a blank line."""
    obj = decode_json_object(raw)
    if obj is None:
        return None
    text = obj.get("text")
    rating = obj.get("rating")
    if not isinstance(text, str) or not text.strip():
        raise ParseError("field 'text' must be a non-empty string")
    if isinstance(rating, bool) or not isinstance(rating, int):
        raise ParseError("field 'rating' must be an integer")
    if rating not in classes:
        raise ParseError(f"rating {rating} outside the configured classes {sorted(classes)}")
    return RawReview(text, rating)


def run_pipeline(config: JobConfig, resources: LexiconResources | None = None) -> PipelineReport:
    """Run the full batch job and write lexicon files into config.out_dir.

    Without resources the bundled set is used. Each input file is one map
    task whose tables are merged into the run's tables. The emitted bytes
    are a function of the multiset of reviews, the resources and the
    config; ``config.workers`` has no effect.
    """
    if resources is None:
        resources = LexiconResources.bundled()
    report = PipelineReport()
    phase = report.phase_seconds = dict.fromkeys(("ingest", "map", "merge"), 0.0)
    tables = {n: NgramTable(n) for n in config.gram_sizes}
    # Corrections are pure, so each distinct surface form is corrected and
    # stemmed once per run: surface -> (method, stems of its corrected pieces).
    resolved: dict[str, tuple[str, list[str]]] = {}
    t0 = time.perf_counter()
    for path in config.inputs:
        with open(path, "rb") as stream:
            reviews, skipped = ingest_jsonl(stream, config.classes, config.skip_bad_lines, path)
        report.reviews_ingested += len(reviews)
        report.reviews_skipped += skipped
        t1 = time.perf_counter()
        file_tables = _map(reviews, resources, config, resolved, report)
        t2 = time.perf_counter()
        for n in config.gram_sizes:
            tables[n] = tables[n].merge(file_tables[n])
        # Nothing of a file outlives its merge, so emit holds only the run's tables.
        del reviews, file_tables
        t3 = time.perf_counter()
        phase["ingest"] += t1 - t0
        phase["map"] += t2 - t1
        phase["merge"] += t3 - t2
        t0 = t3

    report.files_emitted = _emit(tables, Path(config.out_dir), config.min_count)
    phase["emit"] = time.perf_counter() - t0
    return report


def _map(
    reviews: list[RawReview],
    resources: LexiconResources,
    config: JobConfig,
    resolved: dict[str, tuple[str, list[str]]],
    report: PipelineReport,
) -> dict[int, NgramTable]:
    """Count one input file's n-grams into tables of its own."""
    tables = {n: NgramTable(n) for n in config.gram_sizes}
    by_class = report.reviews_by_class
    methods = report.corrections
    for review in reviews:
        by_class[review.rating] = by_class.get(review.rating, 0) + 1
        tokens = tokenize(review.text)
        report.tokens_seen += len(tokens)
        kept = remove_stopwords(tokens, resources.stopwords)
        report.tokens_kept += len(kept)
        stems: list[str] = []
        for token in kept:
            entry = resolved.get(token.surface)
            if entry is None:
                correction = correct_word(token.surface, resources, config.corrector)
                # Abbreviations may expand to several words; each one is stemmed.
                pieces = correction.corrected.split()
                entry = (correction.method.value, [resources.stemmer.stem(p) for p in pieces])
                resolved[token.surface] = entry
            method, token_stems = entry
            methods[method] = methods.get(method, 0) + 1
            stems += token_stems
        for n in config.gram_sizes:
            tables[n].accumulate(review.rating, extract_ngrams(stems, n))
    return tables


def _emit(tables: dict[int, NgramTable], out_dir: Path, min_count: int) -> list[str]:
    """Write gram, exclusive and shared TSV files; return emitted names."""
    out_dir.mkdir(parents=True, exist_ok=True)
    emitted: list[str] = []
    for n in sorted(tables):
        table = tables[n].filtered(min_count)
        verify_partition(table)
        present = table.classes()
        for rating in present:
            rows = sorted(table.counts(rating).items(), key=lambda r: (-r[1], " ".join(r[0])))
            emitted.append(
                _write_rows(out_dir, f"grams_n{n}_class{rating}.tsv", rows, with_count=True)
            )
            emitted.append(
                _write_rows(
                    out_dir,
                    f"exclusive_n{n}_class{rating}.tsv",
                    table.exclusive(rating),
                    with_count=True,
                )
            )
        if len(present) >= 2:
            lo, hi = present[0], present[-1]
            shared_rows = [(key, None) for key in table.shared((lo, hi))]
            emitted.append(
                _write_rows(
                    out_dir,
                    f"shared_n{n}_classes{lo}-{hi}.tsv",
                    shared_rows,
                    with_count=False,
                )
            )
    return sorted(emitted)


def _write_rows(out_dir: Path, name: str, rows, with_count: bool) -> str:
    lines = []
    for key, count in rows:
        term = " ".join(key)
        lines.append(f"{term}\t{count}\n" if with_count else f"{term}\n")
    (out_dir / name).write_bytes("".join(lines).encode("utf-8"))
    return name


def correct_text(
    line: str,
    resources: LexiconResources,
    config: CorrectorConfig = DEFAULT_CONFIG,
) -> tuple[str, list[CorrectionResult]]:
    """Correct one line token by token, preserving order.

    Returns the corrected line and the per-token results. An empty line
    yields an empty line and an empty trace. Stopwords are kept and pass
    through as known words; this is the spot-check path, not the lexicon
    build, which drops them instead.
    """
    results = []
    for token in tokenize(line):
        if token.surface in resources.stopwords:
            results.append(
                CorrectionResult(
                    original=token.surface,
                    corrected=token.surface,
                    method=Method.EXACT,
                    confidence=1.0,
                    trace=(Method.EXACT.value,),
                )
            )
        else:
            results.append(correct_word(token.surface, resources, config))
    corrected = " ".join(result.corrected for result in results)
    return corrected, results


def bench_compare(
    word_pairs: Iterable[tuple[str, Sequence[str]]],
    threshold: float = 0.6,
) -> str:
    """Compare plain similarity ranking against the correction cascade.

    For every (test word, candidate dictionary) pair three blocks are
    produced: edit-distance similarity at the threshold, gestalt
    similarity at the threshold, and the correction cascade's answer. The
    threshold does not affect the cascade, which runs on DEFAULT_CONFIG.
    """
    lines: list[str] = []
    for word, candidates in word_pairs:
        candidate_list = list(candidates)
        if not candidate_list:
            raise ValueError(f"empty candidate dictionary for {word!r}")
        dictionary = Dictionary()
        for candidate in candidate_list:
            dictionary.add(candidate)
        resources = LexiconResources(
            dictionary=dictionary,
            stopwords=frozenset(),
            abbreviations={},
            stemmer=SuffixStemmer(()),
        )
        lines.append(f"== {word}")
        for metric in ("levenshtein", "gestalt"):
            lines.append(f"  {metric} similarity (threshold {round_score(threshold):.2f})")
            matches = best_matches(word, dictionary, metric, threshold)  # type: ignore[arg-type]
            if matches:
                width = max(len(m.candidate) for m in matches)
                lines += [
                    f"    {m.candidate:<{width}}  {round_score(m.score):.2f}" for m in matches
                ]
            else:
                lines.append("    (no candidate at threshold)")
        result = correct_word(word, resources)
        lines.append("  correction cascade")
        lines.append(
            f"    {result.corrected}  {round_score(result.confidence):.2f}  {result.method.value}"
        )
    lines.append(
        "note: levenshtein similarity here is 1 - distance/max(|a|,|b|), so a "
        "single-edit pair of 3-letter words scores 0.67; scores of 0.33 "
        "sometimes quoted for such pairs are not derivable from this formula."
    )
    return "\n".join(lines) + "\n"
