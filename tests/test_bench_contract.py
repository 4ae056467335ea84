"""What the benchmark in perfbench/ needs from the package.

perfbench/tracing.py times layers by swapping module attributes, and its
worker looks every target up even on untraced runs; perfbench/worker.py
reads the build's phase timings. A refactor that moves one of these names
fails here, not only when the benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

from turlex import JobConfig, run_pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_defined_on_its_owner():
    for owner, attr, name in load_tracing().TARGETS:
        assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr}"


def test_build_reports_the_four_phases(tmp_path):
    corpus = tmp_path / "reviews.jsonl"
    corpus.write_text(json.dumps({"text": "çok güzel film", "rating": 5}) + "\n", encoding="utf-8")
    report = run_pipeline(JobConfig(inputs=(str(corpus),), out_dir=str(tmp_path / "out")))
    assert set(report.phase_seconds) == {"ingest", "map", "merge", "emit"}
