"""Dictionary-driven correction of misspelled Turkish words.

The central problem: social media text is typed with ascii keyboards, so
the six letter pairs (c, ç), (g, ğ), (i, ı), (o, ö), (s, ş), (u, ü) blur
together, letters get stretched for emphasis and greetings shrink to
abbreviations. ``correct_word`` runs the repair stages from cheap and
certain to fuzzy:

1. the word is already in the dictionary
2. abbreviation table hit
3. stretched-letter collapse, then the same cascade on the collapsed form
4. diacritic toggling against the dictionary
5. gestalt similarity fallback above a threshold
6. give up, return the word unchanged
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import CandidateExplosionError
from .resources import Dictionary, LexiconResources
from .similarity import best_matches
from .tokenizer import collapse_repeats

__all__ = [
    "Method",
    "AmbiguityMap",
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


class AmbiguityMap:
    """Bidirectional letter pairs the candidate generator may flip.

    Pairs must be disjoint single characters; partner() is an involution.
    """

    def __init__(self, pairs: Iterable[tuple[str, str]] = DEFAULT_TOGGLE_PAIRS):
        self._partner: dict[str, str] = {}
        self._fold: dict[str, str] = {}
        for a, b in pairs:
            if len(a) != 1 or len(b) != 1 or a == b:
                raise ValueError(f"toggle pairs must be two distinct characters, got {(a, b)!r}")
            if a in self._partner or b in self._partner:
                raise ValueError(f"toggle pairs must be disjoint, {(a, b)!r} reuses a letter")
            self._partner[a] = b
            self._partner[b] = a
            self._fold[b] = a

    def partner(self, ch: str) -> str | None:
        """The other member of ch's pair, or None for unpaired characters."""
        return self._partner.get(ch)

    def is_ambiguous(self, ch: str) -> bool:
        return ch in self._partner

    def fold(self, word: str) -> str:
        """Rewrite every second pair member to its first (ç -> c, ü -> u...)."""
        return "".join(self._fold.get(ch, ch) for ch in word)


DEFAULT_AMBIGUITY_MAP = AmbiguityMap()


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


def count_ambiguous(word: str, ambiguity: AmbiguityMap = DEFAULT_AMBIGUITY_MAP) -> int:
    """Number of positions holding a toggleable letter."""
    return sum(1 for ch in word if ambiguity.is_ambiguous(ch))


def candidate_count(word: str, ambiguity: AmbiguityMap = DEFAULT_AMBIGUITY_MAP) -> int:
    """Size of the full toggle candidate set: 2 ** count_ambiguous(word).

    Computed in closed form, so it is exact even when the set itself is
    far too large to enumerate.
    """
    return 2 ** count_ambiguous(word, ambiguity)


def generate_candidates(
    word: str,
    ambiguity: AmbiguityMap = DEFAULT_AMBIGUITY_MAP,
    max_positions: int = DEFAULT_CONFIG.max_toggle_positions,
) -> set[str]:
    """Every word reachable by flipping any subset of toggleable positions.

    The word itself (the empty subset) is always included. Raises
    CandidateExplosionError when the position count exceeds max_positions.
    """
    positions = [i for i, ch in enumerate(word) if ambiguity.is_ambiguous(ch)]
    if len(positions) > max_positions:
        raise CandidateExplosionError(word, len(positions), max_positions)
    candidates = [word]
    for i in positions:
        candidates += [c[:i] + ambiguity.partner(c[i]) + c[i + 1 :] for c in candidates]
    return set(candidates)


def diacritic_correct(
    word: str,
    dictionary: Dictionary,
    ambiguity: AmbiguityMap = DEFAULT_AMBIGUITY_MAP,
    max_positions: int = DEFAULT_CONFIG.max_toggle_positions,
) -> str | None:
    """The best dictionary word reachable by toggling letters, or None.

    Ranking among hits: highest dictionary frequency, then fewest toggled
    positions, then lexicographically smallest. The search walks the
    dictionary trie instead of materializing all 2**n candidates, which
    keeps it fast for words with many toggle positions, but the result is
    identical to filtering the full candidate set.
    """
    n = count_ambiguous(word, ambiguity)
    if n > max_positions:
        raise CandidateExplosionError(word, n, max_positions)

    hits: list[tuple[int, int, str]] = []  # (-frequency, toggles, candidate)
    length = len(word)

    def walk(node: dict, pos: int, toggles: int, prefix: list[str]) -> None:
        if pos == length:
            freq = node.get("")
            if freq is not None:
                hits.append((-freq, toggles, "".join(prefix)))
            return
        ch = word[pos]
        child = node.get(ch)
        if child is not None:
            prefix.append(ch)
            walk(child, pos + 1, toggles, prefix)
            prefix.pop()
        partner = ambiguity.partner(ch)
        if partner is not None:
            child = node.get(partner)
            if child is not None:
                prefix.append(partner)
                walk(child, pos + 1, toggles + 1, prefix)
                prefix.pop()

    walk(dictionary.trie(), 0, 0, [])
    if not hits:
        return None
    return min(hits)[2]


def correct_word(
    word: str,
    resources: LexiconResources,
    config: CorrectorConfig = DEFAULT_CONFIG,
    ambiguity: AmbiguityMap = DEFAULT_AMBIGUITY_MAP,
) -> CorrectionResult:
    """Run the correction cascade on a single cleaned lowercase word.

    A stretched word re-enters the cascade in its collapsed form and, when
    any stage resolves that form, reports method ``repeat_collapse`` with
    the resolving stage appended to the trace. A word nothing can resolve
    comes back unchanged with confidence 0.0.
    """
    trace: list[str] = []

    early = _early_stages(word, resources, trace)
    if early is not None:
        corrected, method, confidence = early
        return CorrectionResult(word, corrected, method, confidence, tuple(trace))

    collapsed = collapse_repeats(word, resources.dictionary)
    if collapsed != word:
        trace.append(Method.REPEAT_COLLAPSE.value)
        resolved = _early_stages(collapsed, resources, trace) or _late_stages(
            collapsed, resources, config, ambiguity, trace
        )
        if resolved is not None:
            corrected, _, confidence = resolved
            return CorrectionResult(word, corrected, Method.REPEAT_COLLAPSE, confidence, tuple(trace))
        return CorrectionResult(word, word, Method.UNCHANGED, 0.0, tuple(trace))

    late = _late_stages(word, resources, config, ambiguity, trace)
    if late is not None:
        corrected, method, confidence = late
        return CorrectionResult(word, corrected, method, confidence, tuple(trace))

    return CorrectionResult(word, word, Method.UNCHANGED, 0.0, tuple(trace))


def _early_stages(
    word: str,
    resources: LexiconResources,
    trace: list[str],
) -> tuple[str, Method, float] | None:
    """Cascade stages 1 and 2: exact dictionary hit, abbreviation."""
    if word in resources.dictionary:
        trace.append(Method.EXACT.value)
        return word, Method.EXACT, 1.0

    expansion = resources.abbreviations.get(word)
    if expansion is not None:
        trace.append(Method.ABBREVIATION.value)
        return expansion, Method.ABBREVIATION, 1.0

    return None


def _late_stages(
    word: str,
    resources: LexiconResources,
    config: CorrectorConfig,
    ambiguity: AmbiguityMap,
    trace: list[str],
) -> tuple[str, Method, float] | None:
    """Cascade stages 4 and 5: diacritic toggling, fuzzy fallback."""
    try:
        toggled = diacritic_correct(word, resources.dictionary, ambiguity, config.max_toggle_positions)
    except CandidateExplosionError:
        trace.append("toggle_overflow")
        toggled = None
    if toggled is not None:
        trace.append(Method.DIACRITIC.value)
        return toggled, Method.DIACRITIC, 1.0

    matches = best_matches(word, resources.dictionary, "gestalt", config.fuzzy_threshold)
    if matches:
        trace.append(Method.FUZZY_FALLBACK.value)
        return matches[0].candidate, Method.FUZZY_FALLBACK, matches[0].score

    return None
