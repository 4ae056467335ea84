"""Output digests and the reference outputs the benchmark checks against.

The reference recomputes each workload's output from the generated input
with code of its own for everything after per-word correction: n-gram
counting, the exclusive/shared partition, ordering and the TSV format for
builds, and line assembly for ``correct_text``. Words are corrected with
turlex's public ``correct_word`` once per distinct surface form. A build
that drops, double-counts, misorders or misformats anything therefore
fails the check on every seed; the recorded digest for the default seed
also pins the corrections themselves.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
GRAM_SIZES = (1, 2, 3)


def files_digest(files: dict[str, bytes]) -> str:
    """sha256 over file names and bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(f"{name}\0{len(files[name])}\0".encode("utf-8"))
        digest.update(files[name])
    return digest.hexdigest()


def lexicon_digest(out_dir: Path) -> str:
    """files_digest of an emitted lexicon directory."""
    return files_digest({path.name: path.read_bytes() for path in out_dir.iterdir()})


def lines_digest(lines: list[str]) -> str:
    """sha256 over the corrected lines, newline-terminated."""
    return hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()


def expected_digest(workload: str) -> str | None:
    """The recorded digest of a workload's output on the default seed."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(workload)


class Reference:
    """Corrections of the generated input, one correct_word call per form."""

    def __init__(self, resources):
        from turlex import correct_word, tokenize

        self._correct_word = correct_word
        self._tokenize = tokenize
        self.resources = resources
        self.corrections: dict = {}

    def correct(self, surface: str):
        result = self.corrections.get(surface)
        if result is None:
            result = self.corrections[surface] = self._correct_word(surface, self.resources)
        return result

    def surfaces(self, text: str, labels: list) -> list[str]:
        """Token surfaces of one record, checked against its labels."""
        surfaces = [token.surface for token in self._tokenize(text)]
        if surfaces != [label[0] for label in labels]:
            raise ValueError(f"tokens of {text!r} do not match the generated labels")
        return surfaces

    def lexicon(self, reviews: list[tuple[str, int]], labels: list[list]) -> dict[str, bytes]:
        """The files a build of these reviews must emit, as {name: bytes}."""
        stopwords = self.resources.stopwords
        stem = self.resources.stemmer.stem
        tables = {n: {} for n in GRAM_SIZES}
        for (text, rating), record_labels in zip(reviews, labels):
            stems = [
                stem(piece)
                for surface in self.surfaces(text, record_labels)
                if surface not in stopwords
                for piece in self.correct(surface).corrected.split()
            ]
            for n in GRAM_SIZES:
                counter = tables[n].setdefault(rating, Counter())
                for i in range(len(stems) - n + 1):
                    counter[tuple(stems[i : i + n])] += 1
        files: dict[str, bytes] = {}
        for n, table in tables.items():
            classes = sorted(table)
            for rating in classes:
                others = set().union(*(table[r] for r in classes if r != rating))
                rows = _ranked(table[rating].items())
                files[f"grams_n{n}_class{rating}.tsv"] = _tsv(rows)
                files[f"exclusive_n{n}_class{rating}.tsv"] = _tsv(
                    [row for row in rows if row[0] not in others]
                )
            if len(classes) >= 2:
                lo, hi = table[classes[0]], table[classes[-1]]
                shared = _ranked((key, lo[key] + hi[key]) for key in lo.keys() & hi.keys())
                files[f"shared_n{n}_classes{classes[0]}-{classes[-1]}.tsv"] = "".join(
                    " ".join(key) + "\n" for key, _ in shared
                ).encode("utf-8")
        return files

    def lines(self, lines: list[str], labels: list[list]) -> list[str]:
        """What correct_text must return for each line; stopwords pass through."""
        stopwords = self.resources.stopwords
        return [
            " ".join(
                surface if surface in stopwords else self.correct(surface).corrected
                for surface in self.surfaces(line, line_labels)
            )
            for line, line_labels in zip(lines, labels)
        ]

    def quality(self, labels: list[list]) -> dict[str, tuple[int, int]]:
        """{noise type: (recovered, labelled)} plus fuzzy answers as "fuzzy_wrong".

        Stopword tokens are not scored. A token is recovered when its
        correction equals the clean word it was generated from.
        """
        scores: dict[str, list[int]] = {}
        for record_labels in labels:
            for surface, clean, noise in record_labels:
                if noise == "stopword" or surface in self.resources.stopwords:
                    continue
                result = self.correct(surface)
                score = scores.setdefault(noise, [0, 0])
                score[0] += result.corrected == clean
                score[1] += 1
                if result.method.value == "fuzzy_fallback":
                    fuzzy = scores.setdefault("fuzzy_wrong", [0, 0])
                    fuzzy[0] += result.corrected != clean
                    fuzzy[1] += 1
        return {name: (hit, total) for name, (hit, total) in scores.items()}


def _ranked(rows) -> list[tuple[tuple[str, ...], int]]:
    return sorted(rows, key=lambda row: (-row[1], " ".join(row[0])))


def _tsv(rows) -> bytes:
    return "".join(f"{' '.join(key)}\t{count}\n" for key, count in rows).encode("utf-8")
