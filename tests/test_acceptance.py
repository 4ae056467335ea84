"""End-to-end acceptance gate.

Each test checks one externally stated behavior of the package and
records a visible one-line verdict; the conftest terminal hook prints
the collected lines after the run. Keep one criterion per test so a
failure names exactly the behavior that broke.
"""

import hashlib
import itertools
import random
import time
from importlib.resources import files
from pathlib import Path

from turlex import (
    CandidateExplosionError,
    JobConfig,
    Method,
    bench_compare,
    candidate_count,
    correct_word,
    count_ambiguous,
    diacritic_correct,
    gestalt_similarity,
    generate_candidates,
    run_pipeline,
)
from turlex.corrector import DEFAULT_TOGGLE_PAIRS
from turlex.ngrams import NgramTable, extract_ngrams, verify_partition

from . import conftest
from .oracles import slow_diacritic_pick, slow_gestalt
from .test_similarity import REFERENCE_GESTALT

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def bundled_corpus() -> str:
    return str(files("turlex.data") / "sample_reviews.jsonl")


def test_reference_similarity_scores():
    bad = []
    for a, b, expected in REFERENCE_GESTALT:
        got = round(gestalt_similarity(a, b), 2)
        if abs(got - expected) > 0.005:
            bad.append((a, b, expected, got))
    criterion(
        "reference similarity scores",
        not bad,
        f"{len(REFERENCE_GESTALT) - len(bad)}/{len(REFERENCE_GESTALT)} rows match" + (f", off: {bad}" if bad else ""),
    )


def test_toggle_candidate_space(bundled):
    ok = generate_candidates("cok") == {"cok", "çok", "cök", "çök"}

    wide = "cgisou" * 3
    ok = ok and count_ambiguous(wide) == 18 and candidate_count(wide) == 2**18 == 262144

    try:
        generate_candidates("i" * 17)
        ok = False
    except CandidateExplosionError:
        pass

    start = time.perf_counter()
    diacritic_correct(wide, bundled.dictionary, max_positions=18)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    criterion(
        "toggle candidate space",
        ok,
        f"2**18 == 262144, cap enforced, 18-position lookup in {elapsed:.3f}s",
    )


def test_diacritic_correction_and_bench_note(bundled):
    result = correct_word("cok", bundled)
    ok = (
        result.corrected == "çok"
        and result.method is Method.DIACRITIC
        and result.confidence == 1.0
    )
    text = bench_compare([("cok", ["çok", "cop", "cuk"])])
    ok = ok and "çok  1.00  diacritic" in text and "0.33" in text
    criterion(
        "diacritic correction and score note",
        ok,
        f"cok -> {result.corrected} ({result.method.value}, {result.confidence:.2f}); bench text flags the 0.33 discrepancy",
    )


def test_repeat_collapse(bundled):
    first = correct_word("çooookkkk", bundled)
    second = correct_word("şoook", bundled)
    ok = (
        (first.corrected, first.method) == ("çok", Method.REPEAT_COLLAPSE)
        and (second.corrected, second.method) == ("şok", Method.REPEAT_COLLAPSE)
    )
    criterion(
        "stretched letter collapse",
        ok,
        f"çooookkkk -> {first.corrected}, şoook -> {second.corrected}",
    )


def test_dictionary_recovery_rate(bundled):
    words = sorted(word for word, _ in bundled.dictionary.items())
    sample = random.Random(99).sample(words, 1000)
    fold = str.maketrans({b: a for a, b in DEFAULT_TOGGLE_PAIRS})

    start = time.perf_counter()
    recovered = sum(1 for word in sample if correct_word(word.translate(fold), bundled).corrected == word)
    elapsed = time.perf_counter() - start

    rate = recovered / len(sample)
    criterion(
        "dictionary recovery rate",
        rate >= 0.90 and elapsed < 30.0,
        f"{recovered}/1000 recovered ({rate:.2%}) in {elapsed:.2f}s",
    )


def test_lexicon_file_inventory(tmp_path):
    config = JobConfig(inputs=(bundled_corpus(),), out_dir=str(tmp_path), workers=1)
    report = run_pipeline(config)
    grams = sorted(name for name in report.files_emitted if name.startswith("grams_"))
    expected = sorted(
        f"grams_n{n}_class{c}.tsv" for n in (1, 2, 3) for c in (1, 2, 3, 4, 5)
    )
    ok = grams == expected and all((tmp_path / name).stat().st_size > 0 for name in grams)
    criterion(
        "lexicon file inventory",
        ok,
        f"{len(grams)} gram files for 5 rating classes x sizes 1,2,3",
    )


def test_partition_algebra():
    table = NgramTable(1)
    table.accumulate(5, extract_ngrams(["muhteşem", "film", "muhteşem", "muhteşem"], 1))
    table.accumulate(5, extract_ngrams(["güzel", "film"], 1))
    table.accumulate(0, extract_ngrams(["iğrenç", "film"], 1))
    table.accumulate(0, extract_ngrams(["berbat", "iğrenç"], 1))

    verify_partition(table)
    excl5 = table.exclusive(5)
    excl0 = table.exclusive(0)
    shared = table.shared([0, 5])
    ok = (
        excl5[0] == (("muhteşem",), 3)
        and (("iğrenç",), 2) in excl0
        and shared == [("film",)]
        and not ({k for k, _ in excl5} & set(shared))
    )
    criterion(
        "exclusive and shared partition",
        ok,
        f"class 5 exclusive {len(excl5)}, class 0 exclusive {len(excl0)}, shared {len(shared)}; partition verified",
    )


def test_diacritic_oracle_equivalence(bundled):
    rng = random.Random(2468)
    alphabet = "cçgğiıoösşuükmrte"
    known = dict(bundled.dictionary.items())
    pairs = frozenset(DEFAULT_TOGGLE_PAIRS)

    mismatches = 0
    for _ in range(10_000):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
        if diacritic_correct(word, bundled.dictionary) != slow_diacritic_pick(word, pairs, known):
            mismatches += 1
    criterion(
        "pruned lookup equals naive enumeration",
        mismatches == 0,
        f"10000 random words against the bundled list, {mismatches} mismatches",
    )


def test_gestalt_oracle_sweep():
    alphabet = "abç"
    strings = [
        "".join(combo)
        for size in range(6)
        for combo in itertools.product(alphabet, repeat=size)
    ]
    checked = mismatches = 0
    for a in strings:
        for b in strings:
            checked += 1
            if gestalt_similarity(a, b) != slow_gestalt(a, b):
                mismatches += 1
    criterion(
        "gestalt similarity equals recursive oracle",
        mismatches == 0,
        f"all {checked} ordered pairs up to length 5, {mismatches} mismatches",
    )


def test_worker_determinism(tmp_path):
    digests = set()
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        report = run_pipeline(
            JobConfig(inputs=(bundled_corpus(),), out_dir=str(out), workers=workers)
        )
        digest = hashlib.sha256()
        for name in sorted(report.files_emitted):
            digest.update(name.encode("utf-8"))
            digest.update((out / name).read_bytes())
        digests.add(digest.hexdigest())
    criterion(
        "worker count never changes output bytes",
        len(digests) == 1,
        f"sha256 {next(iter(digests))[:16]} for workers 1, 2, 8",
    )


def test_golden_byte_match(tmp_path):
    config = JobConfig(inputs=(bundled_corpus(),), out_dir=str(tmp_path), workers=1)
    report = run_pipeline(config)
    golden_names = sorted(p.name for p in GOLDEN_DIR.iterdir())
    same_names = sorted(report.files_emitted) == golden_names
    diffs = [
        name
        for name in golden_names
        if not same_names or (tmp_path / name).read_bytes() != (GOLDEN_DIR / name).read_bytes()
    ]
    criterion(
        "golden output byte match",
        same_names and not diffs,
        f"{len(golden_names)} files compared" + (f", differing: {diffs[:3]}" if diffs else ""),
    )
