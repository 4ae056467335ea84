"""Run every workload over several seeds and record the results as JSON.

    python3 perfbench/record.py --out perfbench/results/baseline.json

Each (workload, seed) is one run.py process with tracing off and the
run length from BENCHMARK.json, followed by
one traced run per workload on the default seed. For every end-to-end
metric the file holds each run's value, the median, the quartiles and
the quartile spread as a share of the median, which is the figure the
bounds in BENCHMARK.json are set against. Compare two files made with
the same settings on the same machine; never compare across machines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seconds": seconds,
        "workloads": {},
    }
    for workload in gen.WORKLOADS:
        runs = []
        for seed in SEEDS:
            result = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            values = ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct {result['correct']}, {values}", file=sys.stderr)
        traced = run_once(workload, gen.DEFAULT_SEED, seconds, 1)
        names = runs[0]["metrics"]
        record["workloads"][workload] = {
            "end_to_end": {
                name: {"unit": runs[0]["metrics"][name]["unit"], **spread([r["metrics"][name]["value"] for r in runs])}
                for name in names
            },
            "runs": runs,
            "traced": {"seed": gen.DEFAULT_SEED, **traced},
        }
        for name, summary in record["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {summary['median']:.5g}, spread {summary['iqr_share']:.4f}", file=sys.stderr)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
