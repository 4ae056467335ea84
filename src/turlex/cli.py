"""Command line interface with three subcommands: build, correct, bench."""

from __future__ import annotations

import argparse
import sys

from .corrector import DEFAULT_CONFIG, CorrectorConfig
from .errors import ParseError, TurlexError
from .ngrams import GRAM_SIZES
from .pipeline import (
    DEFAULT_CLASSES,
    JobConfig,
    bench_compare,
    correct_text,
    decode_json_object,
    round_score,
    run_pipeline,
)
from .resources import LexiconResources, decode_line


def _parse_int_set(text: str, what: str) -> frozenset[int]:
    """Parse "0-5" or "1,3,5" or "0-2,5" into a set of ints."""
    values: set[int] = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            lo_text, hi_text = chunk.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"bad range {chunk!r} in {what}")
            values.update(range(lo, hi + 1))
        else:
            values.add(int(chunk))
    if not values:
        raise argparse.ArgumentTypeError(f"{what} must not be empty")
    return frozenset(values)


def _parse_grams(text: str) -> tuple[int, ...]:
    sizes = tuple(int(chunk) for chunk in text.split(",") if chunk.strip())
    if not sizes or any(n not in GRAM_SIZES for n in sizes):
        raise argparse.ArgumentTypeError(f"gram sizes must be from {GRAM_SIZES}, got {text!r}")
    return sizes


def _add_resource_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dict", dest="dictionary", metavar="FILE", help="word frequency list (word<TAB>count per line); bundled list by default")
    parser.add_argument("--stopwords", metavar="FILE", help="stopword list, one per line; bundled list by default")
    parser.add_argument("--abbrev", metavar="FILE", help="abbreviation table (short<TAB>expansion); bundled table by default")
    parser.add_argument("--suffixes", metavar="FILE", help="suffix inventory for stemming, one per line; bundled list by default")
    parser.add_argument("--fuzzy-threshold", type=float, default=DEFAULT_CONFIG.fuzzy_threshold, metavar="T", help="minimum gestalt score for the fuzzy fallback (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turlex",
        description="Normalize noisy Turkish review text and build rating-partitioned n-gram lexicons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="process JSONL reviews into n-gram lexicon files")
    build.add_argument("--input", action="append", required=True, metavar="FILE", help="JSONL reviews file; repeat for several inputs")
    build.add_argument("--out", required=True, metavar="DIR", help="output directory for the TSV files")
    build.add_argument("--grams", type=_parse_grams, default=GRAM_SIZES, metavar="N,N", help=f"gram sizes to build (default {','.join(map(str, GRAM_SIZES))})")
    build.add_argument("--classes", type=lambda t: _parse_int_set(t, "--classes"), default=DEFAULT_CLASSES, metavar="RANGE", help="accepted rating classes, e.g. 0-5 or 1,3,5 (default 0-5)")
    build.add_argument("--workers", type=int, default=1, metavar="N", help="accepted for compatibility and has no effect; the build runs serially (default 1)")
    build.add_argument("--min-count", type=int, default=1, metavar="K", help="drop n-grams seen fewer than K times (default 1)")
    build.add_argument("--skip-bad-lines", action="store_true", help="count malformed input lines instead of failing")
    _add_resource_flags(build)
    build.set_defaults(func=_cmd_build)

    correct = sub.add_parser("correct", help="correct words line by line, stdin to stdout")
    correct.add_argument("--trace", action="store_true", help="print per-token method and confidence to stderr")
    _add_resource_flags(correct)
    correct.set_defaults(func=_cmd_correct)

    bench = sub.add_parser("bench", help="compare similarity rankings against the correction cascade")
    bench.add_argument("--pairs", required=True, metavar="FILE", help='JSONL file of {"word": ..., "dictionary": [...]} rows')
    bench.add_argument("--threshold", type=float, default=0.6, metavar="T", help="similarity threshold for the comparison blocks (default 0.6)")
    bench.set_defaults(func=_cmd_bench)

    return parser


def _load_resources(args: argparse.Namespace) -> LexiconResources:
    return LexiconResources.from_paths(
        dictionary=args.dictionary,
        stopwords=args.stopwords,
        abbreviations=args.abbrev,
        suffixes=args.suffixes,
    )


def _cmd_build(args: argparse.Namespace) -> int:
    config = JobConfig(
        inputs=tuple(args.input),
        out_dir=args.out,
        gram_sizes=args.grams,
        classes=args.classes,
        workers=args.workers,
        min_count=args.min_count,
        corrector=CorrectorConfig(fuzzy_threshold=args.fuzzy_threshold),
        skip_bad_lines=args.skip_bad_lines,
    )
    report = run_pipeline(config, _load_resources(args))
    print(report.summary())
    return 0


def _cmd_correct(args: argparse.Namespace) -> int:
    resources = _load_resources(args)
    config = CorrectorConfig(fuzzy_threshold=args.fuzzy_threshold)
    # Lines end at b"\n" only and are decoded one by one, so a bad line is
    # reported after every line before it has been answered.
    for lineno, raw in enumerate(sys.stdin.buffer, start=1):
        try:
            line = decode_line(raw)
        except ParseError as exc:
            raise ParseError(exc.message, lineno, "<stdin>") from None
        corrected, results = correct_text(line, resources, config)
        # Flush per line so a client that waits for each answer never stalls.
        print(corrected, flush=True)
        if args.trace:
            for result in results:
                print(
                    f"  {result.original} -> {result.corrected}"
                    f"  {result.method.value}  {round_score(result.confidence):.2f}",
                    file=sys.stderr,
                )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    pairs = []
    with open(args.pairs, "rb") as stream:
        for lineno, raw in enumerate(stream, start=1):
            try:
                row = decode_json_object(raw)
            except ParseError as exc:
                raise ParseError(exc.message, lineno, args.pairs) from None
            if row is None:
                continue
            try:
                word = row["word"]
                dictionary = row["dictionary"]
            except KeyError:
                raise ParseError("expected {\"word\": ..., \"dictionary\": [...]}", lineno, args.pairs) from None
            if not isinstance(word, str) or not isinstance(dictionary, list) or not dictionary:
                raise ParseError("expected a word and a non-empty dictionary list", lineno, args.pairs)
            pairs.append((word, [str(c) for c in dictionary]))
    sys.stdout.write(bench_compare(pairs, threshold=args.threshold))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TurlexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
