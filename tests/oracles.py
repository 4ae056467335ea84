"""Brute-force reference implementations used only by the test suite.

Everything here trades speed for obviousness: exponential recursion,
full enumeration, no caching beyond what keeps a test run tolerable.
The production code must agree with these on every checked input.
"""

from __future__ import annotations

import itertools
import unicodedata
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


def slow_collapse(word: str, known: dict[str, int]) -> str:
    """Try every way of keeping one or two copies of each repeated run.

    Among the forms in ``known`` the one with the fewest characters removed
    wins, then code point order; without a hit every run keeps one copy.
    Above 8 runs of length two or more nothing is tried, as in the
    production rule that keeps the 2**runs forms bounded.
    """
    runs: list[tuple[str, int]] = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        runs.append((word[i], j - i))
        i = j
    single = "".join(ch for ch, _ in runs)
    if all(length == 1 for _, length in runs):
        return word
    if sum(1 for _, length in runs if length >= 2) > 8:
        return single

    def forms(rest: list[tuple[str, int]]) -> list[tuple[str, int]]:
        """(form, characters removed) for every choice over ``rest``."""
        if not rest:
            return [("", 0)]
        (ch, length), tail = rest[0], rest[1:]
        keeps = (1, 2) if length >= 2 else (1,)
        return [
            (ch * keep + form, length - keep + removed)
            for keep in keeps
            for form, removed in forms(tail)
        ]

    hits = sorted((removed, form) for form, removed in forms(runs) if form in known)
    return hits[0][1] if hits else single


def slow_correct_word(
    word: str,
    known: dict[str, int],
    abbreviations: dict[str, str],
    pairs: frozenset[tuple[str, str]],
    threshold: float,
    max_positions: int,
) -> tuple[str, str, str, float, tuple[str, ...]]:
    """The correction cascade from the slow parts, as
    (original, corrected, method, confidence, trace).

    Exact, then abbreviation. Failing both, a stretched word is collapsed
    and the whole cascade resolves the collapsed form or gives up with the
    word unchanged. Otherwise diacritic toggling (skipped with a
    "toggle_overflow" mark above ``max_positions`` toggleable letters),
    then the gestalt fallback.
    """
    toggleable = {ch for pair in pairs for ch in pair}

    def early(w: str):
        if w in known:
            return w, "exact", 1.0
        if w in abbreviations:
            return abbreviations[w], "abbreviation", 1.0
        return None

    def late(w: str, trace: list[str]):
        if sum(1 for ch in w if ch in toggleable) > max_positions:
            trace.append("toggle_overflow")
        else:
            pick = slow_diacritic_pick(w, pairs, known)
            if pick is not None:
                return pick, "diacritic", 1.0
        matches = slow_best_matches(w, list(known), "gestalt", threshold)
        if matches:
            return matches[0][0], "fuzzy_fallback", matches[0][1]
        return None

    trace: list[str] = []
    hit = early(word)
    if hit is not None:
        return word, hit[0], hit[1], hit[2], (hit[1],)
    collapsed = slow_collapse(word, known)
    if collapsed != word:
        trace.append("repeat_collapse")
        hit = early(collapsed) or late(collapsed, trace)
        if hit is None:
            return word, word, "unchanged", 0.0, tuple(trace)
        return word, hit[0], "repeat_collapse", hit[2], tuple(trace + [hit[1]])
    hit = late(word, trace)
    if hit is None:
        return word, word, "unchanged", 0.0, tuple(trace)
    return word, hit[0], hit[1], hit[2], tuple(trace + [hit[1]])


def slow_strip_noise(text: str) -> str:
    """Classify every character from its Unicode category, no cache."""
    out = []
    for ch in text:
        cat = unicodedata.category(ch)
        out.append(" " if cat[0] in ("P", "S") or cat == "Nd" else ch)
    return "".join(out)


def slow_stem(suffixes: list[str], word: str, min_stem_len: int = 3) -> str:
    """Try every inventory suffix, longest first and in inventory order
    within a length; strip the first that leaves ``min_stem_len``
    characters, and repeat until none does."""
    ordered = sorted((s for s in suffixes if s), key=len, reverse=True)
    current = word
    while True:
        for suffix in ordered:
            if len(current) - len(suffix) >= min_stem_len and current.endswith(suffix):
                current = current[: -len(suffix)]
                break
        else:
            return current


def slow_exclusive(table, rating: int) -> list[tuple[tuple[str, ...], int]]:
    """Scan the class's counts against every other class, then sort the
    (key, count) rows by count descending and space-joined terms; rows
    that tie on both keep the class's counting order."""
    if rating not in table.class_tables:
        raise ValueError(f"class {rating} not present in this table")
    own = table.class_tables[rating]
    others = [c for r, c in table.class_tables.items() if r != rating]
    rows = [(key, count) for key, count in own.items() if not any(key in other for other in others)]
    rows.sort(key=lambda row: (-row[1], " ".join(row[0])))
    return rows


def slow_verify_partition(table) -> None:
    """Rebuild the union of the other classes' keys for every class and
    check the table's own exclusive lists against it; for two classes,
    also check that exclusive and shared lists cover each side exactly."""
    ratings = sorted(table.class_tables)
    for rating in ratings:
        other_keys: set = set()
        for other in ratings:
            if other != rating:
                other_keys |= set(table.class_tables[other])
        for key, _ in table.exclusive(rating):
            if key in other_keys:
                raise AssertionError(f"exclusive key {key!r} of class {rating} appears elsewhere")
    if len(ratings) == 2:
        a, b = ratings
        keys_a = set(table.class_tables[a])
        keys_b = set(table.class_tables[b])
        excl_a = {key for key, _ in table.exclusive(a)}
        excl_b = {key for key, _ in table.exclusive(b)}
        shared = set(table.shared((a, b)))
        if excl_a | shared != keys_a or excl_b | shared != keys_b:
            raise AssertionError("exclusive and shared lists do not cover the table")
        if excl_a & shared or excl_b & shared or excl_a & excl_b:
            raise AssertionError("exclusive and shared lists overlap")
