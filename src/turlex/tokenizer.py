"""Tokenization and surface cleanup for noisy Turkish review text."""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, product
from typing import Container, Iterable

__all__ = [
    "RawReview",
    "Token",
    "turkish_lowercase",
    "strip_noise",
    "tokenize",
    "collapse_repeats",
    "remove_stopwords",
]

# Above this many collapsible runs the candidate space (2 per run) is not
# enumerated; every run drops straight to a single character.
_MAX_COLLAPSIBLE_RUNS = 8


@dataclass(frozen=True)
class RawReview:
    """One review text with its integer star rating."""

    text: str
    rating: int


@dataclass(frozen=True)
class Token:
    """A cleaned lowercase word and its position within the review."""

    surface: str
    index: int


# str.lower() maps I -> i and leaves a combining dot after İ, both wrong for
# Turkish, so the two uppercase letters are rewritten first.
_TR_CASEFIX = str.maketrans({"İ": "i", "I": "ı"})


def turkish_lowercase(text: str) -> str:
    """Lowercase text using Turkish casing rules (İ -> i, I -> ı)."""
    return text.translate(_TR_CASEFIX).lower()


# Bounded, so a line spanning all of Unicode cannot grow it for good.
@lru_cache(maxsize=4096)
def _is_noise(ch: str) -> bool:
    cat = unicodedata.category(ch)
    return cat[0] in ("P", "S") or cat == "Nd"


def strip_noise(text: str) -> str:
    """Replace punctuation, symbols and decimal digits with single spaces.

    Letters and whitespace pass through unchanged.
    """
    return "".join(" " if _is_noise(ch) else ch for ch in text)


def tokenize(text: str) -> list[Token]:
    """Lowercase, strip noise and split on whitespace into indexed tokens."""
    cleaned = strip_noise(turkish_lowercase(text))
    return [Token(surface, i) for i, surface in enumerate(cleaned.split())]


def collapse_repeats(word: str, dictionary: Container[str]) -> str:
    """Shorten stretched character runs, e.g. "çooookkkk" to "çok".

    Every maximal run of a repeated character may shrink to one or two
    copies. Among the reduced forms found in the dictionary the one with
    the fewest characters removed wins, which protects legitimate double
    letters ("anne" stays "anne"). Without any dictionary hit every run
    collapses to a single character.
    """
    runs = [(ch, sum(1 for _ in grp)) for ch, grp in groupby(word)]
    collapsible = sum(1 for _, length in runs if length >= 2)
    if collapsible == 0:
        return word
    if collapsible > _MAX_COLLAPSIBLE_RUNS:
        return "".join(ch for ch, _ in runs)

    choices = [(1, 2) if length >= 2 else (1,) for _, length in runs]
    best: tuple[int, str] | None = None
    for lengths in product(*choices):
        candidate = "".join(ch * keep for (ch, _), keep in zip(runs, lengths))
        if candidate in dictionary:
            removed = sum(length - keep for (_, length), keep in zip(runs, lengths))
            key = (removed, candidate)
            if best is None or key < best:
                best = key
    if best is not None:
        return best[1]
    return "".join(ch for ch, _ in runs)


def remove_stopwords(tokens: Iterable[Token], stopwords: Container[str]) -> list[Token]:
    """Drop stopword tokens and renumber the survivors contiguously."""
    kept = [token.surface for token in tokens if token.surface not in stopwords]
    return [Token(surface, i) for i, surface in enumerate(kept)]
