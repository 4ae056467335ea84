"""The benchmark's own checks: seeded inputs, output checks, trace restore.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import random
from pathlib import Path

import pytest

import check
import gen
import run
import tracing
from turlex import JobConfig, LexiconResources, correct_text, run_pipeline

DATA = Path(run.SRC) / "turlex" / "data"


@pytest.fixture(scope="module")
def resources():
    return LexiconResources.bundled()


def small_build(name: str, seed: int, tmp_path: Path, records: int = 40):
    """A workload's first records as a build input, with their labels."""
    data = gen.generate(name, seed, gen.load_bundled(DATA))[:records]
    path = tmp_path / "input.jsonl"
    path.write_text(
        "".join(json.dumps({"text": r["text"], "rating": r["rating"]}, ensure_ascii=False) + "\n" for r in data),
        encoding="utf-8",
    )
    return path, [(r["text"], r["rating"]) for r in data], [r["tokens"] for r in data]


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    first = gen.write(name, 11, DATA, tmp_path / "a")
    again = gen.write(name, 11, DATA, tmp_path / "b")
    other = gen.write(name, 12, DATA, tmp_path / "c")
    for a, b, c in zip(first, again, other):
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_noise_shares_are_exact(name):
    spec = gen.WORKLOADS[name]
    records = gen.generate(name, 3, gen.load_bundled(DATA))
    tokens = [token for record in records for token in record["tokens"]]
    assert len(tokens) == spec.records * (spec.min_words + spec.max_words) // 2
    content = [t for t in tokens if t[2] != "stopword"]
    for noise, share in spec.noise.items():
        assert sum(t[2] == noise for t in content) == round(len(content) * share)
    for surface, clean, noise in content:
        assert (surface == clean) == (noise == "clean")


def test_build_matches_reference_and_tampering_fails(tmp_path, resources):
    path, reviews, labels = small_build("build-noisy", 5, tmp_path)
    reference = check.files_digest(check.Reference(resources).lexicon(reviews, labels))
    out = tmp_path / "out"
    run_pipeline(JobConfig(inputs=(str(path),), out_dir=str(out), workers=2), resources)
    good = {"digest": check.lexicon_digest(out), "tokens": sum(map(len, labels))}
    assert good["digest"] == reference

    victim = sorted(out.glob("exclusive_*"))[0]
    victim.write_bytes(victim.read_bytes() + b"x\t1\n")
    tampered = {"digest": check.lexicon_digest(out), "tokens": good["tokens"]}
    problems: list[str] = []
    assert run.judge([good, tampered], reference, good["tokens"], problems) == 1
    assert problems == [f"pass 1: output {tampered['digest']} differs from the reference"]


def test_tampered_lines_fail_and_errors_count(resources):
    records = gen.generate("correct-lines", 5, gen.load_bundled(DATA))[:50]
    lines = [r["text"] for r in records]
    labels = [r["tokens"] for r in records]
    expected = check.Reference(resources).lines(lines, labels)
    got = [correct_text(line, resources)[0] for line in lines]
    tokens = sum(map(len, labels))
    assert check.lines_digest(got) == check.lines_digest(expected)

    tampered = list(got)
    tampered[random.Random(0).randrange(len(got))] += " x"
    passes = [
        {"digest": check.lines_digest(got), "tokens": tokens},
        {"digest": check.lines_digest(tampered), "tokens": tokens},
        {"error": "Traceback: boom"},
    ]
    assert run.judge(passes, check.lines_digest(expected), tokens, []) == 2
    # A fault of the whole run, such as a wrong default-seed digest, fails every pass.
    assert run.judge(passes[:1], check.lines_digest(expected), tokens, ["default-seed digest"]) == 1


def test_traced_run_restores_every_attribute(tmp_path, resources):
    path, _, _ = small_build("build-noisy", 2, tmp_path)
    originals = [vars(owner)[attr] for owner, attr, _ in tracing.TARGETS]
    plain = tmp_path / "plain"
    run_pipeline(JobConfig(inputs=(str(path),), out_dir=str(plain), workers=2), resources)

    tracer = tracing.Tracer()
    traced = tmp_path / "traced"
    with tracing.traced(tracer):
        assert all(vars(owner)[attr] is not original for (owner, attr, _), original in zip(tracing.TARGETS, originals))
        run_pipeline(
            JobConfig(inputs=(str(path),), out_dir=str(traced), workers=2),
            tracing.traced_resources(resources, tracer),
        )
    assert all(vars(owner)[attr] is original for (owner, attr, _), original in zip(tracing.TARGETS, originals))
    assert check.lexicon_digest(traced) == check.lexicon_digest(plain)

    spans = tracer.spans()
    assert {name for name, _ in spans} == {name for _, _, name in tracing.TARGETS} | {tracing.STEM_SPAN}
    exclusive_files = len(list(traced.glob("exclusive_*")))
    assert sum(calls for (name, _), (calls, _, _) in spans.items() if name == "ngrams.exclusive") == 2 * exclusive_files
    for calls, seconds, self_seconds in spans.values():
        assert calls > 0 and 0 <= self_seconds <= seconds + 1e-9


def test_attributes_restored_when_the_traced_block_raises():
    originals = [vars(owner)[attr] for owner, attr, _ in tracing.TARGETS]
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("stop")
    assert all(vars(owner)[attr] is original for (owner, attr, _), original in zip(tracing.TARGETS, originals))


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_recorded_digests_cover_every_workload():
    recorded = json.loads(check.EXPECTED_PATH.read_text(encoding="utf-8"))
    assert set(recorded) == set(gen.WORKLOADS)


def test_line_percentiles_take_one_sample_per_distinct_line():
    passes = [{"wall_s": 6.0, "latencies_s": [1.0, 2.0, 3.0]}, {"wall_s": 9.0, "latencies_s": [3.0, 4.0, 2.0]},
              {"wall_s": 7.0, "latencies_s": [2.0, 3.0, 1.0]}]  # fmt: skip
    assert run.line_latencies(passes) == [2.0, 2.0, 3.0]
    assert run.median_wall(passes) == 7.0
    assert run.line_latencies([{"wall_s": 1.0}]) == []
    assert gen.WORKLOADS["correct-lines"].records >= 1000  # at least 10 lines beyond p99


def test_a_run_without_a_good_pass_still_prints_its_result(capsys):
    assert run._failed(3, 3, ["worker did not finish within 130 s"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out.splitlines()[-1]) == {"correct": False, "attempted": 3, "failed": 3, "metrics": {}}
    assert "FAIL worker did not finish" in err
