"""String similarity metrics and threshold-ranked dictionary matching."""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Iterable, Literal

__all__ = [
    "Metric",
    "RankedMatch",
    "levenshtein_distance",
    "levenshtein_similarity",
    "gestalt_similarity",
    "best_matches",
]

Metric = Literal["levenshtein", "gestalt"]


@dataclass(frozen=True)
class RankedMatch:
    """A dictionary candidate together with its similarity score."""

    candidate: str
    score: float


def levenshtein_distance(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions and
    substitutions that turn a into b.

    Operates on Unicode code points, so "cok" and "çok" differ by one edit.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,        # delete from a
                    current[j - 1] + 1,     # insert into a
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - distance / max(len(a), len(b)); two empty strings score 1.0."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest


def gestalt_similarity(a: str, b: str) -> float:
    """Gestalt pattern matching score 2*M / (len(a) + len(b)).

    M sums the lengths of matching blocks found by recursively splitting
    both strings around their longest common substring, preferring the
    match that starts earliest in a, then earliest in b. Two empty strings
    score 1.0. The score is not symmetric in general.
    """
    return SequenceMatcher(None, a, b, autojunk=False).ratio()


_METRICS = {
    "levenshtein": levenshtein_similarity,
    "gestalt": gestalt_similarity,
}


def best_matches(
    word: str,
    dictionary: Iterable[str],
    metric: Metric = "gestalt",
    threshold: float = 0.8,
) -> list[RankedMatch]:
    """Every dictionary entry scoring at least threshold, best first.

    Ties are broken by ascending edit distance and then lexicographically
    (code point order), so the ranking is reproducible across runs.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be within [0, 1], got {threshold!r}")
    try:
        score_fn = _METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}") from None

    # The gestalt ratio is 2.0 * M / (la + lb) with M <= min(la, lb), so a
    # candidate whose length alone caps it below threshold can be skipped
    # without changing any answer. Kept in float form to match the ratio.
    bounded = metric == "gestalt"
    la = len(word)
    scored = []
    for candidate in dictionary:
        if bounded:
            lb = len(candidate)
            if la + lb and 2.0 * min(la, lb) / (la + lb) < threshold:
                continue
        score = score_fn(word, candidate)
        if score >= threshold:
            scored.append((-score, levenshtein_distance(word, candidate), candidate))
    scored.sort()
    return [RankedMatch(candidate, -neg_score) for neg_score, _, candidate in scored]
