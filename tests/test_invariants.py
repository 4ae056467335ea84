"""Metamorphic relations of the build on the bundled 50-review sample corpus.

A build's bytes depend only on the multiset of reviews, the resources and
the config: not on review order, and not on how the reviews are split into
input files, each of which is one map task merged into the run's tables.
Nor do they depend on the order of the dictionary's lines, or on whether a
word's frequency is given on one line or summed over several.
"""

import dataclasses
import json
import tempfile
from collections import Counter
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from turlex import (
    JobConfig,
    LexiconResources,
    correct_word,
    remove_stopwords,
    run_pipeline,
    tokenize,
)

ROWS = [
    line
    for line in (files("turlex.data") / "sample_reviews.jsonl").read_text(encoding="utf-8").splitlines()
    if line.strip()
]
DICTIONARY = (files("turlex.data") / "dictionary.tsv").read_text(encoding="utf-8").splitlines()


def build(splits: list[list[str]], resources, work: Path) -> dict[str, bytes]:
    """Write each split to its own input file, build, return {name: bytes}."""
    inputs = []
    for index, rows in enumerate(splits):
        path = work / f"input{index}.jsonl"
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        inputs.append(str(path))
    out = work / "out"
    run_pipeline(JobConfig(inputs=tuple(inputs), out_dir=str(out)), resources)
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.fixture(scope="module")
def reference(bundled, tmp_path_factory):
    return build([ROWS], bundled, tmp_path_factory.mktemp("reference"))


@settings(max_examples=5, deadline=10_000)
@given(shuffled=st.permutations(ROWS))
def test_review_order_does_not_change_the_bytes(bundled, reference, shuffled):
    with tempfile.TemporaryDirectory() as work:
        assert build([shuffled], bundled, Path(work)) == reference


def test_splitting_into_three_inputs_does_not_change_the_bytes(bundled, reference, tmp_path):
    assert build([ROWS[i::3] for i in range(3)], bundled, tmp_path) == reference


def test_input_given_twice_doubles_every_count_in_the_same_order(bundled, reference, tmp_path):
    doubled = build([ROWS, ROWS], bundled, tmp_path)
    assert doubled.keys() == reference.keys()
    for name, data in reference.items():
        if name.startswith("shared_"):
            assert doubled[name] == data
            continue
        rows = [line.split("\t") for line in data.decode("utf-8").splitlines()]
        expected = "".join(f"{term}\t{2 * int(count)}\n" for term, count in rows)
        assert doubled[name].decode("utf-8") == expected, name


class CountingStemmer:
    def __init__(self, inner):
        self.inner = inner
        self.calls: Counter[str] = Counter()

    def stem(self, word: str) -> str:
        self.calls[word] += 1
        return self.inner.stem(word)


def test_each_distinct_form_is_stemmed_once_per_corrected_piece(bundled, reference, tmp_path):
    stemmer = CountingStemmer(bundled.stemmer)
    resources = dataclasses.replace(bundled, stemmer=stemmer)
    # Three inputs, so the once-per-run memo has to hold across map tasks.
    assert build([ROWS[i::3] for i in range(3)], resources, tmp_path) == reference

    surfaces = {
        token.surface
        for row in ROWS
        for token in remove_stopwords(tokenize(json.loads(row)["text"]), bundled.stopwords)
    }
    expected: Counter[str] = Counter()
    for surface in surfaces:
        expected.update(correct_word(surface, bundled).corrected.split())
    assert stemmer.calls == expected


def build_with_dictionary(lines: list[str], work: Path) -> dict[str, bytes]:
    """Build the corpus with the bundled resources but these dictionary lines."""
    path = work / "dictionary.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return build([ROWS], LexiconResources.from_paths(dictionary=str(path)), work)


@settings(max_examples=3, deadline=20_000)
@given(shuffled=st.permutations(DICTIONARY))
def test_dictionary_line_order_does_not_change_the_bytes(reference, shuffled):
    with tempfile.TemporaryDirectory() as work:
        assert build_with_dictionary(shuffled, Path(work)) == reference


@settings(max_examples=3, deadline=20_000)
@given(rng=st.randoms(use_true_random=False))
def test_splitting_each_dictionary_entry_in_two_does_not_change_the_bytes(reference, rng):
    lines = []
    for line in DICTIONARY:
        word, frequency = line.split("\t")
        first = rng.randint(0, int(frequency))
        lines += [f"{word}\t{first}", f"{word}\t{int(frequency) - first}"]
    with tempfile.TemporaryDirectory() as work:
        assert build_with_dictionary(lines, Path(work)) == reference
