"""What the benchmark in perfbench/ needs from the package.

perfbench/tracing.py times layers by swapping module attributes, and its
worker looks every target up even on untraced runs. perfbench/worker.py
and perfbench/run.py warm the bundled dictionary's trie, build with
workers=2 in perfbench's own tests, read the build's phase timings and
token count, and read each correct_text answer and its methods;
perfbench/check.py reads token surfaces. A refactor that moves one of
these names fails here, not only when the benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

from turlex import JobConfig, LexiconResources, correct_text, run_pipeline, tokenize

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
    report = run_pipeline(JobConfig(inputs=(str(corpus),), out_dir=str(tmp_path / "out"), workers=2))
    assert set(report.phase_seconds) == {"ingest", "map", "merge", "emit"}
    assert report.tokens_seen == 3


def test_bundled_trie_can_be_warmed():
    assert isinstance(LexiconResources.bundled().dictionary.trie(), dict)


def test_correct_text_answers_the_line_and_each_method():
    text, results = correct_text("cok guzel film", LexiconResources.bundled())
    assert (text, [r.method.value for r in results]) == ("çok güzel film", ["diacritic", "diacritic", "exact"])


def test_tokens_carry_their_surface():
    assert [token.surface for token in tokenize("Çok GÜZEL film")] == ["çok", "güzel", "film"]
