"""turlex benchmark: one seeded workload per run, metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build-noisy --seed 7 --seconds 30 --trace 0

The run generates the workload's input from the seed and the bundled
data, measures set-up in fresh interpreters before and after the timed
passes, runs those passes in a worker process (worker.py), checks every
pass's output against a reference computed here (check.py), and prints
a human summary on stderr and the result object as the last line of
stdout. ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics instead of the end-to-end ones. See README.md in this directory for the workloads
and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

# Set-up is timed this many times, half before the worker and half after,
# so that a burst of outside load at one moment does not set the median.
SETUP_RUNS = 16
MIN_PASSES = 3
# The worker measures for --seconds and then finishes its current pass and
# any of the MIN_PASSES still missing; a build-noisy pass takes about 8 s.
WORKER_MARGIN_S = 90
# A correction stage that breaks leaves far fewer than this share of its
# noise type recovered; every type measured above 0.99 when this was set.
RECOVERY_FLOOR = 0.9
RECOVERY_MIN_TOKENS = 20

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "reviews_per_s": "1/s",
    "tokens_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "recovery": "share",
}

SPANS = (
    "pipeline",
    "tokenizer.tokenize",
    "tokenizer.remove_stopwords",
    "tokenizer.collapse_repeats",
    "corrector.correct_word",
    "corrector.diacritic_correct",
    "similarity.best_matches",
    "resources.stem",
    "ngrams.extract_ngrams",
    "ngrams.accumulate",
    "ngrams.merge",
    "ngrams.exclusive",
    "ngrams.shared",
    "ngrams.verify_partition",
)
METHODS = ("exact", "abbreviation", "repeat_collapse", "diacritic", "fuzzy_fallback", "unchanged")
QUALITY_TYPES = ("fold", "stretch", "append", "abbrev", "clean")

PER_LAYER = {
    **{f"{span}.{field}": unit for span in SPANS for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "corrector.correct_word.distinct": "count",
    "resources.stem.distinct": "count",
    "similarity.best_matches.hits": "count",
    "corrector.diacritic_correct.hits": "count",
    "tokenizer.remove_stopwords.dropped": "count",
    **{f"corrector.method.{method}": "count" for method in METHODS},
    "ngrams.exclusive.by_emit.calls": "count",
    "ngrams.exclusive.by_emit.s": "s",
    "ngrams.exclusive.by_verify.calls": "count",
    "ngrams.exclusive.by_verify.s": "s",
    **{f"ngrams.keys.n{n}": "count" for n in check.GRAM_SIZES},
    "pipeline.exclusive_files": "count",
    "pipeline.ingest_s": "s",
    "pipeline.map_s": "s",
    "pipeline.merge_s": "s",
    "pipeline.emit_s": "s",
    "pipeline.input_bytes": "bytes",
    "pipeline.output_bytes": "bytes",
    "resources.load_s": "s",
    "resources.dictionary.entries": "count",
    **{f"recovery.{noise}": "share" for noise in QUALITY_TYPES},
    "fuzzy_wrong_share": "share",
    "fuzzy_answers": "count",
    "line_p50_ms": "ms",
    "line_p99_ms": "ms",
    "line_samples": "count",
    "trace.overhead": "share",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.passes": "count",
}

_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import turlex
turlex.LexiconResources.bundled().dictionary.trie()
print(time.perf_counter() - start)
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "turlex" / "__init__.py").is_file():
        print(f"error: turlex sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    spec = gen.WORKLOADS[args.workload]
    input_path, labels_path = gen.write(args.workload, args.seed, SRC / "turlex" / "data", work)
    labels = [json.loads(line) for line in labels_path.read_text(encoding="utf-8").splitlines()]
    label_tokens = sum(len(record) for record in labels)

    setup_runs = 0 if args.trace else SETUP_RUNS
    setup = [_setup_once() for _ in range(setup_runs // 2)]
    # Enough untraced passes for a median, or in traced mode one pair.
    min_passes = 2 if args.trace else MIN_PASSES
    worker = _worker(args, input_path, work / "out", min_passes)
    if "error" in worker:
        return _failed(min_passes, min_passes, [worker["error"]])
    setup += [_setup_once() for _ in range(setup_runs - setup_runs // 2)]

    problems: list[str] = []
    if Path(worker["turlex_file"]).resolve().parent != (SRC / "turlex").resolve():
        problems.append(f"turlex was imported from {worker['turlex_file']}, not from {SRC}")
    if not worker["restored"]:
        problems.append("a traced attribute was not restored")

    sys.path.insert(0, str(SRC))
    from turlex import LexiconResources

    reference = check.Reference(LexiconResources.bundled())
    if spec.kind == "build":
        reviews = [(r["text"], r["rating"]) for r in map(json.loads, input_path.read_text(encoding="utf-8").splitlines())]
        reference_digest = check.files_digest(reference.lexicon(reviews, labels))
    else:
        lines = input_path.read_text(encoding="utf-8").splitlines()
        reference_digest = check.lines_digest(reference.lines(lines, labels))
    print(f"reference output sha256 {reference_digest}", file=sys.stderr)

    if args.seed == gen.DEFAULT_SEED and reference_digest != check.expected_digest(args.workload):
        problems.append(f"default-seed output {reference_digest} differs from the recorded digest")
    quality = reference.quality(labels)
    for noise in QUALITY_TYPES:
        hit, total = quality.get(noise, (0, 0))
        if total >= RECOVERY_MIN_TOKENS and hit / total < RECOVERY_FLOOR:
            problems.append(f"recovery of {noise} tokens {hit}/{total} is below {RECOVERY_FLOOR}")

    passes = worker["passes"]
    failed = judge(passes, reference_digest, label_tokens, problems)

    good = [p for p in passes if "error" not in p]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if not untraced or (args.trace and not traced):
        return _failed(len(passes), failed, problems)

    wall = median_wall(untraced)
    latencies = line_latencies(untraced)
    if args.trace:
        metrics = _per_layer(spec, worker, untraced, traced, quality, latencies, work / "out" / "pass0", input_path)
        units = PER_LAYER
    else:
        noisy = [quality[n] for n in gen.NOISE_TYPES if n in quality]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "reviews_per_s": spec.records / wall,
            "tokens_per_s": label_tokens / wall,
            "peak_rss_mib": worker["peak_rss_mib"],
            "recovery": sum(hit for hit, _ in noisy) / sum(total for _, total in noisy),
        }
        units = END_TO_END

    _summary(args, spec, untraced, traced, metrics, latencies, setup)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _failed(attempted: int, failed: int, problems: list[str]) -> int:
    """Report a run that has no good pass to measure, with no metrics."""
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 1


def judge(passes: list[dict], reference_digest: str, label_tokens: int, problems: list[str]) -> int:
    """Number of failed passes; appends each pass's problem to problems.

    A pass fails on its own error or wrong output, and every pass fails
    when problems already holds a fault of the run as a whole.
    """
    run_failed = bool(problems)
    failed = 0
    for index, record in enumerate(passes):
        bad = record.get("error")
        if not bad and record["digest"] != reference_digest:
            bad = f"output {record['digest']} differs from the reference"
        if not bad and record["tokens"] != label_tokens:
            bad = f"{record['tokens']} tokens seen, {label_tokens} generated"
        if bad:
            problems.append(f"pass {index}: {bad.strip()}")
        failed += bool(bad) or run_failed
    return failed


def _setup_once() -> float:
    """Seconds a fresh interpreter spends importing turlex and loading its resources."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _worker(args, input_path: Path, out: Path, min_passes: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--src", str(SRC),
        "--workload", args.workload,
        "--input", str(input_path),
        "--out", str(out),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--min-passes", str(min_passes),
    ]  # fmt: skip
    timeout = 2 * args.seconds + WORKER_MARGIN_S
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker did not finish within {timeout:g} s"}
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return {"error": f"worker exited with code {done.returncode}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def median_wall(passes: list[dict]) -> float:
    """Seconds one pass takes, input to complete output: the median pass."""
    return statistics.median(p["wall_s"] for p in passes)


def line_latencies(passes: list[dict]) -> list[float]:
    """Each distinct line's median latency over the passes, ascending.

    Percentiles are taken over these, one sample per line, so that a
    line repeated in every pass is not counted as several samples.
    """
    if "latencies_s" not in passes[0]:
        return []
    return sorted(statistics.median(line) for line in zip(*(p["latencies_s"] for p in passes)))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def _per_layer(spec, worker, untraced, traced, quality, latencies, first_out: Path, input_path: Path) -> dict:
    metrics = dict.fromkeys(PER_LAYER, 0)
    per_pass = []
    for record in traced:
        values = Counter(record["counts"])
        for name, parent, calls, seconds, self_seconds in record["spans"]:
            values[f"{name}.calls"] += calls
            values[f"{name}.s"] += seconds
            values[f"{name}.self_s"] += self_seconds
            if name == "ngrams.exclusive":
                by = "by_verify" if parent == "ngrams.verify_partition" else "by_emit"
                values[f"{name}.{by}.calls"] += calls
                values[f"{name}.{by}.s"] += seconds
        per_pass.append(values)
    for key in set().union(*per_pass):
        if key in metrics:
            metrics[key] = statistics.median(values[key] for values in per_pass)

    metrics["trace.untraced_wall_s"] = median_wall(untraced)
    metrics["trace.traced_wall_s"] = median_wall(traced)
    metrics["trace.overhead"] = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"] - 1
    metrics["trace.passes"] = len(traced)
    metrics["resources.load_s"] = worker["load_s"]
    metrics["resources.dictionary.entries"] = worker["dictionary_entries"]
    for noise in QUALITY_TYPES:
        hit, total = quality.get(noise, (0, 0))
        metrics[f"recovery.{noise}"] = hit / total if total else 0
    wrong, answers = quality.get("fuzzy_wrong", (0, 0))
    metrics["fuzzy_wrong_share"] = wrong / answers if answers else 0
    metrics["fuzzy_answers"] = answers
    if spec.kind == "build" and first_out.is_dir():
        for phase in ("ingest", "map", "merge", "emit"):
            metrics[f"pipeline.{phase}_s"] = statistics.median(p["phase_seconds"][phase] for p in untraced)
        metrics["pipeline.input_bytes"] = input_path.stat().st_size
        files = sorted(first_out.iterdir())
        metrics["pipeline.output_bytes"] = sum(path.stat().st_size for path in files)
        metrics["pipeline.exclusive_files"] = sum(path.name.startswith("exclusive_") for path in files)
        for n in check.GRAM_SIZES:
            keys = set()
            for path in files:
                if path.name.startswith(f"grams_n{n}_"):
                    keys.update(line.split("\t")[0] for line in path.read_text(encoding="utf-8").splitlines())
            metrics[f"ngrams.keys.n{n}"] = len(keys)
    elif spec.kind == "lines":
        metrics["line_p50_ms"] = percentile(latencies, 50) * 1e3
        metrics["line_p99_ms"] = percentile(latencies, 99) * 1e3
        metrics["line_samples"] = len(latencies)
    return metrics


def _summary(args, spec, untraced, traced, metrics, latencies, setup) -> None:
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in untraced)
    lines = [
        f"workload {args.workload} seed {args.seed}: {spec.records} records, "
        f"{len(untraced)} untraced passes ({walls} s), {len(traced)} traced",
    ]
    if setup:
        lines.append("setup runs: " + ", ".join(f"{s:.4f}" for s in setup) + " s")
    if latencies:
        lines.append(
            f"median line latency over {len(latencies)} distinct lines: p50 {percentile(latencies, 50) * 1e3:.3f} ms, "
            f"p99 {percentile(latencies, 99) * 1e3:.3f} ms"
        )
    lines += [f"  {name} = {value:.6g}" for name, value in metrics.items()]
    print("\n".join(lines), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
