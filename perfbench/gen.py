"""Seeded corpus generator for the benchmark workloads.

Reads the dictionary, stopword and abbreviation files bundled with turlex
(read-only) and writes one workload's input plus a label sidecar: for every
record, each token's surface form, the clean word it stands for and its
noise type. The same (workload, seed) always gives the same bytes.

Amounts are exact, not independent coin flips: review lengths are nudged
to a fixed total, and noise types are dealt over the shuffled token slots
in exact shares (40% folded, 10% stretched, ...). Appended-letter words,
the ones that reach the fuzzy fallback, are drawn stratified by length.
Workloads of one size therefore carry the same amount of each kind of
work on every seed, and a seed changes which words land where, not how
much there is to do. build-noisy has 1,190 appended slots, so they cover
all 1,189 dictionary words.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

DEFAULT_SEED = 7

_FOLD = str.maketrans("çğıöşü", "cgiosu")
_APPENDED = "xqwz"
_ENDINGS = ("", "", ".", "!", "!!!", "...")

# Noise types, in the order their shares are laid out over the shuffled slots.
NOISE_TYPES = ("fold", "stretch", "append", "abbrev")


@dataclass(frozen=True)
class Spec:
    """How one workload's input is drawn."""

    kind: str  # "build" writes rated JSONL, "lines" writes plain text lines
    records: int
    min_words: int
    max_words: int
    weighted: bool  # draw words by dictionary frequency instead of uniformly
    stopword_share: float
    noise: dict[str, float]  # share of non-stopword tokens per noise type


WORKLOADS: dict[str, Spec] = {
    "build-noisy": Spec(
        kind="build",
        records=952,
        min_words=5,
        max_words=20,
        weighted=False,
        stopword_share=0.0,
        noise={"fold": 0.40, "stretch": 0.10, "append": 0.10, "abbrev": 0.02},
    ),
    "build-bulk": Spec(
        kind="build",
        records=2000,
        min_words=5,
        max_words=20,
        weighted=True,
        stopword_share=0.25,
        noise={"fold": 0.40, "stretch": 0.10, "abbrev": 0.02},
    ),
    "correct-lines": Spec(
        kind="lines",
        records=1100,
        min_words=3,
        max_words=12,
        weighted=True,
        stopword_share=0.25,
        noise={"fold": 0.40, "stretch": 0.10, "append": 0.05, "abbrev": 0.02},
    ),
}


@dataclass(frozen=True)
class Bundled:
    words: list[str]
    frequencies: list[int]
    cumulative: list[int]  # running frequency totals, for weighted draws
    folding: list[str]  # words that folding changes
    folding_cumulative: list[int]
    stopwords: list[str]
    abbreviations: list[tuple[str, str]]


def load_bundled(data_dir: Path) -> Bundled:
    entries = []
    for line in (data_dir / "dictionary.tsv").read_text(encoding="utf-8").splitlines():
        if line.strip():
            word, _, freq = line.partition("\t")
            entries.append((word.strip(), int(freq or 1)))
    folding = [(w, f) for w, f in entries if w.translate(_FOLD) != w]
    stopwords = [
        line.strip()
        for line in (data_dir / "stopwords.txt").read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    abbreviations = []
    for line in (data_dir / "abbreviations.tsv").read_text(encoding="utf-8").splitlines():
        if line.strip():
            short, _, full = line.partition("\t")
            abbreviations.append((short.strip(), full.strip()))
    return Bundled(
        words=[w for w, _ in entries],
        frequencies=[f for _, f in entries],
        cumulative=list(accumulate(f for _, f in entries)),
        folding=[w for w, _ in folding],
        folding_cumulative=list(accumulate(f for _, f in folding)),
        stopwords=sorted(set(stopwords)),
        abbreviations=abbreviations,
    )


def _noisy(rng: random.Random, noise: str, spec: Spec, data: Bundled, appended) -> tuple[str, str]:
    """(surface, clean) for one non-stopword token of the given noise type."""
    if noise == "abbrev":
        return rng.choice(data.abbreviations)
    if noise == "append":
        clean = next(appended)
        return clean + rng.choice(_APPENDED), clean
    if noise == "fold":
        pool, weights = data.folding, data.folding_cumulative
    else:
        pool, weights = data.words, data.cumulative
    if spec.weighted:
        clean = rng.choices(pool, cum_weights=weights)[0]
    else:
        clean = rng.choice(pool)
    if noise == "fold":
        return clean.translate(_FOLD), clean
    if noise == "stretch":
        i = rng.randrange(len(clean))
        return clean[:i] + clean[i] * 3 + clean[i:], clean
    return clean, clean


def _lengths(rng: random.Random, spec: Spec) -> list[int]:
    """Review lengths drawn uniformly, then nudged to sum to records x mean."""
    lengths = [rng.randint(spec.min_words, spec.max_words) for _ in range(spec.records)]
    excess = sum(lengths) - spec.records * (spec.min_words + spec.max_words) // 2
    while excess:
        i = rng.randrange(len(lengths))
        if excess > 0 and lengths[i] > spec.min_words:
            lengths[i] -= 1
            excess -= 1
        elif excess < 0 and lengths[i] < spec.max_words:
            lengths[i] += 1
            excess += 1
    return lengths


def _by_length(rng: random.Random, data: Bundled, weighted: bool, count: int) -> list[str]:
    """count draws from the dictionary, stratified by word length.

    Each draw picks a word uniformly or by frequency, as the workload
    says, but the length mix of the draws is fixed by systematic sampling
    over the length-sorted dictionary. Appended words are the ones that
    reach the fuzzy fallback, whose cost grows with word length, so this
    keeps its total work steady across seeds.
    """
    if not count:
        return []
    order = sorted(range(len(data.words)), key=lambda i: (len(data.words[i]), rng.random()))
    cumulative = list(accumulate(data.frequencies[i] if weighted else 1 for i in order))
    step = cumulative[-1] / count
    offset = rng.random() * step
    picks = [data.words[order[bisect_right(cumulative, offset + k * step)]] for k in range(count)]
    rng.shuffle(picks)
    return picks


def _slot_labels(rng: random.Random, count: int, shares: dict[str, float], rest: str) -> list[str]:
    labels: list[str] = []
    for name, share in shares.items():
        labels += [name] * round(count * share)
    labels += [rest] * (count - len(labels))
    rng.shuffle(labels)
    return labels


def generate(name: str, seed: int, data: Bundled) -> list[dict]:
    """Records of one workload: {"rating", "text", "tokens"}.

    tokens is a list of [surface, clean, noise] triples in text order; a
    review's text is its surfaces joined by spaces plus an optional
    punctuation ending, which tokenizing removes again.
    """
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    lengths = _lengths(rng, spec)
    total = sum(lengths)
    stop_slots = _slot_labels(rng, total, {"stopword": spec.stopword_share}, "content")
    content = stop_slots.count("content")
    noise_labels = _slot_labels(rng, content, {n: spec.noise.get(n, 0.0) for n in NOISE_TYPES}, "clean")
    appended = iter(_by_length(rng, data, spec.weighted, noise_labels.count("append")))
    noise_slots = iter(noise_labels)
    slots = iter(stop_slots)
    records = []
    for length in lengths:
        tokens = []
        for _ in range(length):
            if next(slots) == "stopword":
                word = rng.choice(data.stopwords)
                tokens.append([word, word, "stopword"])
            else:
                noise = next(noise_slots)
                surface, clean = _noisy(rng, noise, spec, data, appended)
                tokens.append([surface, clean, noise])
        text = " ".join(t[0] for t in tokens) + rng.choice(_ENDINGS)
        rating = rng.randint(1, 5) if spec.kind == "build" else None
        records.append({"rating": rating, "text": text, "tokens": tokens})
    return records


def write(name: str, seed: int, data_dir: Path, out_dir: Path) -> tuple[Path, Path]:
    """Write the workload input and its label sidecar; return both paths."""
    records = generate(name, seed, load_bundled(data_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    if WORKLOADS[name].kind == "build":
        input_path = out_dir / "input.jsonl"
        lines = [json.dumps({"text": r["text"], "rating": r["rating"]}, ensure_ascii=False) for r in records]
    else:
        input_path = out_dir / "input.txt"
        lines = [r["text"] for r in records]
    input_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    labels_path = out_dir / "labels.jsonl"
    labels_path.write_text(
        "".join(json.dumps(r["tokens"], ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )
    return input_path, labels_path
