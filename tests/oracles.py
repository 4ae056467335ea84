"""Brute-force reference implementations used only by the test suite.

Everything here trades speed for obviousness: exponential recursion,
full enumeration, no caching beyond what keeps a test run tolerable.
The production code must agree with these on every checked input.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


@lru_cache(maxsize=None)
def slow_levenshtein(a: str, b: str) -> int:
    """Textbook recursive edit distance (insert/delete/substitute, cost 1)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[-1] == b[-1] else 1
    return min(
        slow_levenshtein(a[:-1], b) + 1,
        slow_levenshtein(a, b[:-1]) + 1,
        slow_levenshtein(a[:-1], b[:-1]) + cost,
    )


def _longest_match(a: str, b: str) -> tuple[int, int, int]:
    """Longest common substring as (start_a, start_b, length).

    Ties go to the earliest start in ``a``, then the earliest in ``b``,
    which is the contract the ranking relies on.
    """
    best = (0, 0, 0)
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best[2]:
                best = (i, j, k)
    return best


def slow_gestalt(a: str, b: str) -> float:
    """Recursive match decomposition: 2*M / (|a| + |b|)."""
    if not a and not b:
        return 1.0

    def matched(x: str, y: str) -> int:
        i, j, k = _longest_match(x, y)
        if k == 0:
            return 0
        return k + matched(x[:i], y[:j]) + matched(x[i + k :], y[j + k :])

    return 2.0 * matched(a, b) / (len(a) + len(b))


def slow_candidates(word: str, pairs: frozenset[tuple[str, str]]) -> set[str]:
    """All toggle variants by full per-position product enumeration."""
    partner = {}
    for x, y in pairs:
        partner[x] = y
        partner[y] = x
    options = [(ch, partner[ch]) if ch in partner else (ch,) for ch in word]
    return {"".join(combo) for combo in itertools.product(*options)}


def slow_diacritic_pick(
    word: str,
    pairs: frozenset[tuple[str, str]],
    known: dict[str, int],
) -> str | None:
    """Rank every candidate the naive way, no trie, no pruning.

    Order: highest dictionary frequency, then fewest toggled positions,
    then lexicographic. Returns None when nothing is in the dictionary.
    """
    hits = []
    for cand in slow_candidates(word, pairs):
        if cand in known:
            toggles = sum(1 for x, y in zip(word, cand) if x != y)
            hits.append((-known[cand], toggles, cand))
    if not hits:
        return None
    return min(hits)[2]


def slow_ngrams(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    """Sliding windows by index arithmetic."""
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def slow_best_matches(
    word: str,
    dictionary: list[str],
    metric: str = "gestalt",
    threshold: float = 0.8,
) -> list[tuple[str, float]]:
    """Score every entry, no pruning; rank by score, edit distance, code points."""
    if metric == "gestalt":
        scores = {c: slow_gestalt(word, c) for c in dictionary}
    else:
        scores = {
            c: 1.0 if not (word or c) else 1.0 - slow_levenshtein(word, c) / max(len(word), len(c))
            for c in dictionary
        }
    hits = [c for c in dictionary if scores[c] >= threshold]
    hits.sort(key=lambda c: (-scores[c], slow_levenshtein(word, c), c))
    return [(c, scores[c]) for c in hits]
