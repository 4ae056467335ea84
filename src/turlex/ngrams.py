"""Per-rating n-gram frequency tables with exclusive and shared projections."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

__all__ = [
    "GRAM_SIZES",
    "NgramKey",
    "extract_ngrams",
    "NgramTable",
    "verify_partition",
]

NgramKey = tuple[str, ...]

#: The n-gram widths the build supports.
GRAM_SIZES = (1, 2, 3)


def extract_ngrams(terms: Sequence[str], n: int) -> list[NgramKey]:
    """All width-n sliding windows over one review's term sequence.

    Windows never cross review boundaries because the terms of a single
    review are all this function ever sees. Sequences shorter than n
    produce nothing.
    """
    if n not in GRAM_SIZES:
        raise ValueError(f"gram size must be one of {GRAM_SIZES}, got {n!r}")
    return [tuple(terms[i : i + n]) for i in range(len(terms) - n + 1)]


class NgramTable:
    """Counts of n-grams partitioned by rating class.

    One table counts a single gram size under any integer rating; ingest
    decides which ratings are accepted. Tables merge pointwise, so each
    input file can be counted on its own and combined later; merging is
    commutative and associative with the empty table as identity.
    """

    def __init__(self, n: int):
        if n not in GRAM_SIZES:
            raise ValueError(f"gram size must be one of {GRAM_SIZES}, got {n!r}")
        self.n = n
        self.class_tables: dict[int, Counter[NgramKey]] = {}

    def accumulate(self, rating: int, keys: Iterable[NgramKey]) -> None:
        """Count keys under a rating class, creating the class on first use."""
        counter = self.class_tables.setdefault(rating, Counter())
        for key in keys:
            if len(key) != self.n:
                raise ValueError(f"{key!r} is not a {self.n}-gram")
            counter[key] += 1

    def merge(self, other: "NgramTable") -> "NgramTable":
        """Pointwise sum of two tables of the same gram size."""
        if self.n != other.n:
            raise ValueError(f"cannot merge a {self.n}-gram table with a {other.n}-gram table")
        merged = NgramTable(self.n)
        for rating in set(self.class_tables) | set(other.class_tables):
            counter: Counter[NgramKey] = Counter()
            counter.update(self.class_tables.get(rating, ()))
            counter.update(other.class_tables.get(rating, ()))
            merged.class_tables[rating] = counter
        return merged

    def filtered(self, min_count: int) -> "NgramTable":
        """Copy with every key below min_count dropped; classes survive empty."""
        if min_count <= 1:
            return self
        out = NgramTable(self.n)
        for rating, counter in self.class_tables.items():
            out.class_tables[rating] = Counter(
                {key: count for key, count in counter.items() if count >= min_count}
            )
        return out

    def classes(self) -> list[int]:
        """Rating classes present, ascending."""
        return sorted(self.class_tables)

    def counts(self, rating: int) -> Counter[NgramKey]:
        return self.class_tables[rating]

    def exclusive(self, rating: int) -> list[tuple[NgramKey, int]]:
        """Keys appearing in this class and no other, most frequent first.

        Ties break lexicographically on the space-joined terms.
        """
        if rating not in self.class_tables:
            raise ValueError(f"class {rating} not present in this table")
        own = self.class_tables[rating]
        others = [c for r, c in self.class_tables.items() if r != rating]
        rows = [
            (key, count)
            for key, count in own.items()
            if not any(key in other for other in others)
        ]
        rows.sort(key=lambda row: (-row[1], " ".join(row[0])))
        return rows

    def shared(self, ratings: Iterable[int]) -> list[NgramKey]:
        """Keys present in every one of the given classes.

        Ordered by the summed count over those classes, descending, then
        lexicographically. At least two present classes are required.
        """
        wanted = sorted(set(ratings))
        if len(wanted) < 2:
            raise ValueError("shared needs at least two classes")
        missing = [r for r in wanted if r not in self.class_tables]
        if missing:
            raise ValueError(f"classes {missing} not present in this table")
        counters = [self.class_tables[r] for r in wanted]
        common = set(counters[0])
        for counter in counters[1:]:
            common &= set(counter)
        keys = sorted(common, key=lambda key: (-sum(c[key] for c in counters), " ".join(key)))
        return keys

    def total_count(self) -> int:
        return sum(sum(counter.values()) for counter in self.class_tables.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NgramTable):
            return NotImplemented
        mine = {r: +c for r, c in self.class_tables.items()}
        theirs = {r: +c for r, c in other.class_tables.items()}
        return self.n == other.n and mine == theirs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {r: len(c) for r, c in sorted(self.class_tables.items())}
        return f"NgramTable(n={self.n}, classes={sizes})"


def verify_partition(table: NgramTable) -> None:
    """Check the exclusive/shared set algebra on a table; raise on violation.

    Every exclusive key must be absent from all other classes, and for a
    two-class table the two exclusive lists plus the shared list must
    cover every key exactly once per side.
    """
    ratings = table.classes()
    for rating in ratings:
        other_keys: set[NgramKey] = set()
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
