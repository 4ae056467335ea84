"""One workload's timed passes, run in a process of their own.

Started by run.py with the generated input already on disk, so the
process holds only what turlex itself holds and its peak RSS is the
program's. Prints one JSON object with the per-pass times and output
digests; run.py checks the digests and computes the metrics.

A pass is one operation: one ``run_pipeline`` build, or one closed-loop
sweep of ``correct_text`` over every line, each line sent only after the
previous one returned. In traced mode untraced and traced passes
alternate, and the traced ones also report their span aggregates.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--min-passes", type=int, required=True)
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(HERE)]

    import turlex
    from turlex import LexiconResources

    import check
    import gen
    import tracing

    load_start = time.perf_counter()
    resources = LexiconResources.bundled()
    resources.dictionary.trie()
    load_s = time.perf_counter() - load_start

    spec = gen.WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if spec.kind == "build":
        run_pass = _build_pass(turlex, check, Path(args.input), out)
    else:
        run_pass = _lines_pass(turlex, check, Path(args.input))

    originals = [vars(owner)[attr] for owner, attr, _ in tracing.TARGETS]
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < args.min_passes or time.perf_counter() < deadline:
        modes = (False, True) if args.trace else (False,)
        for traced in modes:
            record = {"traced": traced}
            try:
                if traced:
                    tracer = tracing.Tracer()
                    with tracing.traced(tracer):
                        record.update(run_pass(len(passes), tracing.traced_resources(resources, tracer), tracer))
                    record["spans"] = [
                        [name, parent, *totals] for (name, parent), totals in tracer.spans().items()
                    ]
                    record["counts"] = dict(tracer.counts())
                else:
                    record.update(run_pass(len(passes), resources, None))
            except Exception:
                record["error"] = traceback.format_exc()
            passes.append(record)

    restored = all(
        vars(owner)[attr] is original for (owner, attr, _), original in zip(tracing.TARGETS, originals)
    )
    print(
        json.dumps(
            {
                "turlex_file": turlex.__file__,
                "load_s": load_s,
                "dictionary_entries": len(resources.dictionary),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "restored": restored,
                "passes": passes,
            }
        )
    )


def _build_pass(turlex, check, input_path: Path, out: Path):
    def run_pass(index: int, resources, tracer):
        pass_dir = out / f"pass{index}"
        config = turlex.JobConfig(inputs=(str(input_path),), out_dir=str(pass_dir))
        build = turlex.run_pipeline if tracer is None else tracer.wrap("pipeline", turlex.run_pipeline)
        start = time.perf_counter()
        report = build(config, resources)
        wall = time.perf_counter() - start
        record = {
            "wall_s": wall,
            "digest": check.lexicon_digest(pass_dir),
            "tokens": report.tokens_seen,
            "phase_seconds": report.phase_seconds,
        }
        if index > 0:
            shutil.rmtree(pass_dir)
        return record

    return run_pass


def _lines_pass(turlex, check, input_path: Path):
    lines = input_path.read_text(encoding="utf-8").splitlines()

    def run_pass(index: int, resources, tracer):
        correct_text = turlex.correct_text if tracer is None else tracer.wrap("pipeline", turlex.correct_text)
        corrected = []
        latencies = []
        tokens = 0
        start = time.perf_counter()
        for line in lines:
            sent = time.perf_counter()
            text, results = correct_text(line, resources)
            latencies.append(time.perf_counter() - sent)
            corrected.append(text)
            tokens += len(results)
        wall = time.perf_counter() - start
        return {
            "wall_s": wall,
            "digest": check.lines_digest(corrected),
            "tokens": tokens,
            "latencies_s": latencies,
        }

    return run_pass


if __name__ == "__main__":
    main()
