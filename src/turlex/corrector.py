"""Dictionary-driven correction of misspelled Turkish words.

The central problem: social media text is typed with ascii keyboards, so
the six letter pairs (c, ç), (g, ğ), (i, ı), (o, ö), (s, ş), (u, ü) blur
together, letters get stretched for emphasis and greetings shrink to
abbreviations. ``correct_word`` runs one loop over a table of repair
stages, from cheap and certain to fuzzy:

1. exact: the word is already in the dictionary
2. abbreviation: abbreviation table hit
3. diacritic: toggling letter pairs reaches a dictionary word
4. fuzzy: gestalt similarity above a threshold

When stages 1 and 2 miss on a stretched word, the loop restarts on its
collapsed form. A word no stage resolves comes back unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from .errors import CandidateExplosionError
from .resources import Dictionary, LexiconResources
from .similarity import best_matches
from .tokenizer import collapse_repeats

__all__ = [
    "Method",
    "DEFAULT_TOGGLE_PAIRS",
    "CorrectorConfig",
    "CorrectionResult",
    "count_ambiguous",
    "candidate_count",
    "generate_candidates",
    "diacritic_correct",
    "correct_word",
]

#: The letter confusions of ascii-typed Turkish. Each pair toggles in both
#: directions so over-corrected forms ("şok" typed for "sok") repair too.
DEFAULT_TOGGLE_PAIRS: tuple[tuple[str, str], ...] = (
    ("c", "ç"),
    ("g", "ğ"),
    ("i", "ı"),
    ("o", "ö"),
    ("s", "ş"),
    ("u", "ü"),
)

#: Each toggleable letter mapped to the other member of its pair.
_PARTNER = dict(DEFAULT_TOGGLE_PAIRS) | {b: a for a, b in DEFAULT_TOGGLE_PAIRS}


class Method(str, Enum):
    """How a word was resolved."""

    EXACT = "exact"
    ABBREVIATION = "abbreviation"
    REPEAT_COLLAPSE = "repeat_collapse"
    DIACRITIC = "diacritic"
    FUZZY_FALLBACK = "fuzzy_fallback"
    UNCHANGED = "unchanged"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value




@dataclass(frozen=True)
class CorrectorConfig:
    """Thresholds and caps for the correction cascade."""

    fuzzy_threshold: float = 0.8
    max_toggle_positions: int = 16

    def __post_init__(self) -> None:
        if not 0.0 <= self.fuzzy_threshold <= 1.0:
            raise ValueError(f"fuzzy_threshold must be within [0, 1], got {self.fuzzy_threshold!r}")
        if self.max_toggle_positions < 0:
            raise ValueError("max_toggle_positions must be non-negative")


DEFAULT_CONFIG = CorrectorConfig()


@dataclass(frozen=True)
class CorrectionResult:
    """Outcome of correcting one word.

    ``trace`` records the stages that acted, in order, including a
    "toggle_overflow" marker when candidate generation was skipped for
    having too many toggle positions.
    """

    original: str
    corrected: str
    method: Method
    confidence: float
    trace: tuple[str, ...] = ()


def count_ambiguous(word: str) -> int:
    """Number of positions holding a toggleable letter."""
    return sum(1 for ch in word if ch in _PARTNER)


def candidate_count(word: str) -> int:
    """Size of the full toggle candidate set: 2 ** count_ambiguous(word).

    Computed in closed form, so it is exact even when the set itself is
    far too large to enumerate.
    """
    return 2 ** count_ambiguous(word)


def generate_candidates(word: str, max_positions: int = DEFAULT_CONFIG.max_toggle_positions) -> set[str]:
    """Every word reachable by flipping any subset of toggleable positions.

    The word itself (the empty subset) is always included. Raises
    CandidateExplosionError when the position count exceeds max_positions.
    """
    positions = [i for i, ch in enumerate(word) if ch in _PARTNER]
    if len(positions) > max_positions:
        raise CandidateExplosionError(word, len(positions), max_positions)
    candidates = [word]
    for i in positions:
        candidates += [c[:i] + _PARTNER[c[i]] + c[i + 1 :] for c in candidates]
    return set(candidates)


def diacritic_correct(
    word: str,
    dictionary: Dictionary,
    max_positions: int = DEFAULT_CONFIG.max_toggle_positions,
) -> str | None:
    """The best dictionary word reachable by toggling letters, or None.

    Ranking among hits: highest dictionary frequency, then fewest toggled
    positions, then lexicographically smallest. The search walks the
    dictionary trie instead of materializing all 2**n candidates, which
    keeps it fast for words with many toggle positions, but the result is
    identical to filtering the full candidate set.
    """
    n = count_ambiguous(word)
    if n > max_positions:
        raise CandidateExplosionError(word, n, max_positions)

    # One level per letter of word: the trie nodes that spell a toggle
    # variant of the letters so far, with its toggle count and the variant.
    # An unpaired letter has partner None, which no node holds.
    frontier = [(dictionary.trie(), 0, "")]
    for ch in word:
        partner = _PARTNER.get(ch)
        deeper = []
        for node, toggles, prefix in frontier:
            if ch in node:
                deeper.append((node[ch], toggles, prefix + ch))
            if partner in node:
                deeper.append((node[partner], toggles + 1, prefix + partner))
        frontier = deeper
    # The empty-string key holds the frequency at nodes that end a word.
    hits = [(-node[""], toggles, prefix) for node, toggles, prefix in frontier if "" in node]
    return min(hits)[2] if hits else None


_Hit = tuple[str, float] | None


def _exact(word: str, resources: LexiconResources, config: CorrectorConfig) -> _Hit:
    return (word, 1.0) if word in resources.dictionary else None


def _abbreviation(word: str, resources: LexiconResources, config: CorrectorConfig) -> _Hit:
    expansion = resources.abbreviations.get(word)
    return None if expansion is None else (expansion, 1.0)


def _diacritic(word: str, resources: LexiconResources, config: CorrectorConfig) -> _Hit:
    toggled = diacritic_correct(word, resources.dictionary, max_positions=config.max_toggle_positions)
    return None if toggled is None else (toggled, 1.0)


def _fuzzy(word: str, resources: LexiconResources, config: CorrectorConfig) -> _Hit:
    matches = best_matches(word, resources.dictionary, "gestalt", config.fuzzy_threshold)
    return (matches[0].candidate, matches[0].score) if matches else None


#: The cascade in order. A stage returns (corrected, confidence), or None
#: to pass the word on. The stages and the loop reach diacritic_correct,
#: best_matches and collapse_repeats through this module's globals at call
#: time, so a wrapper swapped in for one of them is the one called.
_STAGES = (
    (Method.EXACT, _exact),
    (Method.ABBREVIATION, _abbreviation),
    (Method.DIACRITIC, _diacritic),
    (Method.FUZZY_FALLBACK, _fuzzy),
)

#: A stretched word is collapsed after the certain lookups missed on the
#: word as typed, and before the stages that guess.
_COLLAPSE_AT = 2


def correct_word(
    word: str,
    resources: LexiconResources,
    config: CorrectorConfig = DEFAULT_CONFIG,
) -> CorrectionResult:
    """Run the correction cascade on a single cleaned lowercase word.

    A stretched word restarts the cascade in its collapsed form and, when
    any stage resolves that form, reports method ``repeat_collapse`` with
    the resolving stage appended to the trace. No stage after the collapse
    runs on the word as typed. A word nothing can resolve comes back
    unchanged with confidence 0.0.
    """
    trace: list[str] = []
    form, i = word, 0
    while i < len(_STAGES):
        if i == _COLLAPSE_AT and form == word:
            collapsed = collapse_repeats(word, resources.dictionary)
            if collapsed != word:
                trace.append(Method.REPEAT_COLLAPSE.value)
                form, i = collapsed, 0
                continue
        method, stage = _STAGES[i]
        i += 1
        try:
            hit = stage(form, resources, config)
        except CandidateExplosionError:
            trace.append("toggle_overflow")
            continue
        if hit is not None:
            trace.append(method.value)
            if form != word:
                method = Method.REPEAT_COLLAPSE
            return CorrectionResult(word, hit[0], method, hit[1], tuple(trace))
    return CorrectionResult(word, word, Method.UNCHANGED, 0.0, tuple(trace))
