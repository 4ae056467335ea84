"""Shared read-only lookup resources: dictionary, stopwords, abbreviations,
suffix stemmer.

All loaders take binary streams so callers control where the bytes come
from; ``LexiconResources.from_paths`` wires up file paths and falls back to
the data files bundled with the package.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Protocol, Sequence

from .errors import ParseError
from .tokenizer import turkish_lowercase

__all__ = [
    "Dictionary",
    "Stemmer",
    "SuffixStemmer",
    "LexiconResources",
    "load_dictionary",
    "dump_dictionary",
    "load_stopwords",
    "load_abbreviations",
    "load_suffixes",
    "decode_line",
]

# Marker key for "a word ends here" in the nested-dict trie. The empty
# string can never be a character, so it cannot collide with an edge.
_WORD = ""


class Dictionary:
    """Known words with usage frequencies; membership is diacritic-exact."""

    __slots__ = ("_entries", "_trie")

    def __init__(self, entries: dict[str, int] | None = None):
        self._entries: dict[str, int] = dict(entries) if entries else {}
        self._trie: dict | None = None

    def add(self, word: str, frequency: int = 1) -> None:
        """Insert a word, summing frequencies on repeat insertions."""
        self._entries[word] = self._entries.get(word, 0) + frequency
        self._trie = None

    def __contains__(self, word: str) -> bool:
        """Exact membership: "cok" is not a member just because "çok" is."""
        return word in self._entries

    def frequency(self, word: str) -> int:
        return self._entries.get(word, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dictionary):
            return NotImplemented
        return self._entries == other._entries

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self._entries.items())

    def trie(self) -> dict:
        """Prefix tree over all entries, built once and cached.

        Nodes are plain dicts keyed by character; the empty-string key
        holds the word frequency at terminal nodes.
        """
        if self._trie is None:
            root: dict = {}
            for word, freq in self._entries.items():
                node = root
                for ch in word:
                    node = node.setdefault(ch, {})
                node[_WORD] = freq
            self._trie = root
        return self._trie


def decode_line(raw: bytes) -> str:
    """One b"\\n"-ended line of any input as text, without "\\n" and one "\\r".

    Bytes that are not UTF-8 raise ParseError without a line number; the
    caller knows it.
    """
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc.reason}") from None
    return line.removesuffix("\n").removesuffix("\r")


def _read_lines(source: BinaryIO, name: str | None) -> list[str]:
    """The lines of a UTF-8 resource, each ended by "\\n" or "\\r\\n".

    Undecodable bytes, and any other line break left inside a line (such
    as U+0085 or U+2028), raise ParseError with the line number.
    """
    lines = []
    for lineno, raw in enumerate(source, start=1):
        try:
            lines.append(decode_line(raw))
        except ParseError as exc:
            raise ParseError(exc.message, lineno, name) from None
    # One scan over all lines is cheaper than one per line; only a hit is located.
    joined = "".join(lines)
    if joined and joined.splitlines() != [joined]:
        for lineno, line in enumerate(lines, start=1):
            if line and line.splitlines() != [line]:
                raise ParseError(f"line break inside a line: {line!r}", lineno, name)
    return lines


def _read_entries(source: BinaryIO, name: str | None) -> list[str]:
    """The lowercased stripped lines, without blank lines and '#' comments."""
    stripped = (line.strip() for line in _read_lines(source, name))
    return [turkish_lowercase(line) for line in stripped if line and not line.startswith("#")]


def load_dictionary(source: BinaryIO, name: str | None = None) -> Dictionary:
    """Parse "word<TAB>frequency" lines into a Dictionary.

    The frequency column is optional and defaults to 1. Words are
    normalized with turkish_lowercase and duplicate words sum their
    frequencies. A malformed frequency raises ParseError with the line
    number.
    """
    dictionary = Dictionary()
    for lineno, line in enumerate(_read_lines(source, name), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) > 2:
            raise ParseError(f"expected word<TAB>frequency, got {line!r}", lineno, name)
        word = turkish_lowercase(parts[0].strip())
        if not word:
            raise ParseError("empty word column", lineno, name)
        if len(parts) == 2:
            try:
                frequency = int(parts[1].strip())
            except ValueError:
                raise ParseError(f"frequency is not an integer: {parts[1]!r}", lineno, name) from None
            if frequency < 0:
                raise ParseError(f"frequency must be non-negative: {frequency}", lineno, name)
        else:
            frequency = 1
        dictionary.add(word, frequency)
    return dictionary


def dump_dictionary(dictionary: Dictionary, sink: BinaryIO) -> None:
    """Serialize a dictionary as sorted "word<TAB>frequency" lines."""
    for word, freq in sorted(dictionary.items()):
        sink.write(f"{word}\t{freq}\n".encode("utf-8"))


def load_stopwords(source: BinaryIO, name: str | None = None) -> frozenset[str]:
    """One stopword per line; blank lines and '#' comments are ignored."""
    return frozenset(_read_entries(source, name))


def load_abbreviations(source: BinaryIO, name: str | None = None) -> dict[str, str]:
    """Parse "abbreviation<TAB>expansion" lines into a lookup table."""
    table: dict[str, str] = {}
    for lineno, line in enumerate(_read_lines(source, name), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ParseError(f"expected abbreviation<TAB>expansion, got {line!r}", lineno, name)
        table[turkish_lowercase(parts[0].strip())] = turkish_lowercase(parts[1].strip())
    return table


def load_suffixes(source: BinaryIO, name: str | None = None) -> list[str]:
    """One suffix per line in priority order; '#' comment lines are ignored."""
    return _read_entries(source, name)


class Stemmer(Protocol):
    """Anything that maps an inflected surface form to a stem."""

    def stem(self, word: str) -> str: ...


#: The fewest characters a stem keeps after a suffix is stripped.
MIN_STEM_LEN = 3


class SuffixStemmer:
    """Plain longest-suffix stripper over a fixed inventory.

    Repeatedly removes the longest inventory suffix whose removal keeps at
    least ``MIN_STEM_LEN`` characters, so stacked endings come off one at a
    time ("zamanlarda" -> "zamanlar" -> "zaman"). Ties between equally long
    suffixes follow inventory order. The output never matches another
    strippable suffix, which makes stemming idempotent by construction.
    """

    def __init__(self, suffixes: Sequence[str]):
        # Stable sort: longest first, inventory order within a length.
        self._suffixes = sorted((s for s in suffixes if s), key=len, reverse=True)

    def stem(self, word: str) -> str:
        current = word
        while True:
            for suffix in self._suffixes:
                if len(current) - len(suffix) >= MIN_STEM_LEN and current.endswith(suffix):
                    current = current[: -len(suffix)]
                    break
            else:
                return current


@dataclass(frozen=True)
class LexiconResources:
    """The read-only bundle every correction and pipeline run works from."""

    dictionary: Dictionary
    stopwords: frozenset[str]
    abbreviations: dict[str, str]
    stemmer: Stemmer

    @classmethod
    def from_paths(
        cls,
        dictionary: str | None = None,
        stopwords: str | None = None,
        abbreviations: str | None = None,
        suffixes: str | None = None,
    ) -> "LexiconResources":
        """Load resources from the given paths; None selects the bundled file."""

        def load(loader, path: str | None, bundled_name: str):
            stream = _bundled(bundled_name).open("rb") if path is None else open(path, "rb")
            with stream:
                return loader(stream, bundled_name if path is None else path)

        return cls(
            dictionary=load(load_dictionary, dictionary, "dictionary.tsv"),
            stopwords=load(load_stopwords, stopwords, "stopwords.txt"),
            abbreviations=load(load_abbreviations, abbreviations, "abbreviations.tsv"),
            stemmer=SuffixStemmer(load(load_suffixes, suffixes, "suffixes.txt")),
        )

    @classmethod
    def bundled(cls) -> "LexiconResources":
        """The resource set shipped with the package."""
        return cls.from_paths()


def _bundled(name: str):
    return importlib.resources.files("turlex").joinpath("data").joinpath(name)
