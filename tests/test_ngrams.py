import pytest
from hypothesis import given, strategies as st

from turlex import NgramTable, extract_ngrams, verify_partition

from .oracles import slow_exclusive, slow_ngrams, slow_verify_partition

words = st.lists(st.sampled_from(["çok", "iyi", "film", "kötü", "ama"]), max_size=8)


class TestExtractNgrams:
    def test_unigrams(self):
        assert extract_ngrams(["çok", "iyi", "film"], 1) == [("çok",), ("iyi",), ("film",)]

    def test_bigrams(self):
        assert extract_ngrams(["çok", "iyi", "film"], 2) == [("çok", "iyi"), ("iyi", "film")]

    def test_trigrams(self):
        assert extract_ngrams(["çok", "iyi", "film"], 3) == [("çok", "iyi", "film")]

    def test_short_sequences_yield_nothing(self):
        assert extract_ngrams(["çok"], 2) == []
        assert extract_ngrams([], 1) == []

    @pytest.mark.parametrize("n", [0, 4, -1])
    def test_size_validation(self, n):
        with pytest.raises(ValueError, match="gram size"):
            extract_ngrams(["a"], n)

    @given(words, st.sampled_from([1, 2, 3]))
    def test_matches_index_arithmetic(self, terms, n):
        assert extract_ngrams(terms, n) == slow_ngrams(terms, n)

    @given(words, st.sampled_from([1, 2, 3]))
    def test_window_count(self, terms, n):
        assert len(extract_ngrams(terms, n)) == max(0, len(terms) - n + 1)


def table_from(n: int, rows: list[tuple[int, list[str]]]) -> NgramTable:
    """rows are (rating, term sequence); each sequence is one review."""
    table = NgramTable(n)
    for rating, terms in rows:
        table.accumulate(rating, extract_ngrams(terms, n))
    return table


# hypothesis strategy: small random tables over a fixed gram size
def tables(n: int):
    review = st.tuples(st.integers(min_value=1, max_value=3), words)
    return st.builds(table_from, st.just(n), st.lists(review, max_size=6))


class TestNgramTable:
    def test_accumulate_counts(self):
        table = NgramTable(1)
        table.accumulate(5, [("çok",), ("iyi",), ("çok",)])
        table.accumulate(5, [("çok",)])
        assert table.counts(5)[("çok",)] == 3
        assert table.counts(5)[("iyi",)] == 1
        assert table.total_count() == 4

    def test_classes_sorted(self):
        table = NgramTable(1)
        table.accumulate(4, [("a",)])
        table.accumulate(1, [("b",)])
        assert table.classes() == [1, 4]

    def test_rejects_wrong_width_keys(self):
        table = NgramTable(2)
        with pytest.raises(ValueError, match="not a 2-gram"):
            table.accumulate(1, [("çok",)])

    def test_rejected_call_counts_nothing(self):
        table = NgramTable(1)
        with pytest.raises(ValueError, match=r"\('b', 'c'\) is not a 1-gram"):
            table.accumulate(3, [("a",), ("b", "c")])
        assert table.class_tables == {}
        table.accumulate(5, [("a",)])
        with pytest.raises(ValueError):
            table.accumulate(5, (key for key in [("b",), ("c", "d")]))
        assert table.class_tables == {5: {("a",): 1}}

    def test_unrestricted_table_accepts_any_class(self):
        table = NgramTable(1)
        table.accumulate(99, [("a",)])
        assert table.classes() == [99]

    def test_size_validation(self):
        with pytest.raises(ValueError, match="gram size"):
            NgramTable(4)


class TestMerge:
    def test_pointwise_sum(self):
        a = table_from(1, [(1, ["çok", "iyi"])])
        b = table_from(1, [(1, ["çok"]), (2, ["kötü"])])
        merged = a.merge(b)
        assert merged.counts(1)[("çok",)] == 2
        assert merged.counts(1)[("iyi",)] == 1
        assert merged.counts(2)[("kötü",)] == 1

    def test_inputs_untouched(self):
        a = table_from(1, [(1, ["çok"])])
        b = table_from(1, [(1, ["çok"])])
        a.merge(b)
        assert a.counts(1)[("çok",)] == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="cannot merge"):
            NgramTable(1).merge(NgramTable(2))

    @given(tables(2), tables(2))
    def test_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(tables(1), tables(1), tables(1))
    def test_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(tables(3))
    def test_empty_identity(self, a):
        assert a.merge(NgramTable(3)) == a
        assert NgramTable(3).merge(a) == a


class TestFiltered:
    def test_low_threshold_is_a_no_op(self):
        table = table_from(1, [(1, ["çok"])])
        assert table.filtered(1) is table
        assert table.filtered(0) is table

    def test_drops_rare_keys(self):
        table = table_from(1, [(1, ["çok", "çok", "iyi"])])
        out = table.filtered(2)
        assert out.counts(1) == {("çok",): 2}
        assert table.counts(1)[("iyi",)] == 1  # original untouched

    def test_classes_survive_emptying(self):
        table = table_from(1, [(1, ["çok"]), (2, ["iyi"])])
        out = table.filtered(5)
        assert out.classes() == [1, 2]
        assert out.total_count() == 0


class TestExclusiveAndShared:
    @pytest.fixture()
    def sample(self):
        # class 5 praises, class 0 complains, "film" shows up in both
        return table_from(
            1,
            [
                (5, ["muhteşem", "film", "muhteşem", "muhteşem"]),
                (5, ["güzel", "film"]),
                (0, ["iğrenç", "film"]),
                (0, ["berbat", "iğrenç"]),
            ],
        )

    def test_exclusive_content_and_order(self, sample):
        assert sample.exclusive(5) == [
            (("muhteşem",), 3),
            (("güzel",), 1),
        ]
        assert sample.exclusive(0) == [
            (("iğrenç",), 2),
            (("berbat",), 1),
        ]

    def test_exclusive_tie_breaks_lexicographically(self):
        table = table_from(1, [(1, ["bb", "aa", "cc"])])
        assert table.exclusive(1) == [(("aa",), 1), (("bb",), 1), (("cc",), 1)]

    def test_exclusive_missing_class(self, sample):
        with pytest.raises(ValueError, match="class 3 not present"):
            sample.exclusive(3)

    def test_shared(self, sample):
        assert sample.shared([0, 5]) == [("film",)]

    def test_shared_orders_by_summed_count(self):
        table = table_from(
            1,
            [
                (1, ["x", "y", "y", "z"]),
                (2, ["x", "y", "z"]),
            ],
        )
        assert table.shared([1, 2]) == [("y",), ("x",), ("z",)]

    def test_shared_needs_two_classes(self, sample):
        with pytest.raises(ValueError, match="at least two"):
            sample.shared([5])

    def test_shared_missing_class(self, sample):
        with pytest.raises(ValueError, match=r"classes \[7\] not present"):
            sample.shared([5, 7])

    def test_partition_identity(self, sample):
        verify_partition(sample)
        keys_5 = set(sample.counts(5))
        excl = {key for key, _ in sample.exclusive(5)}
        shared = set(sample.shared([0, 5]))
        assert excl | shared == keys_5
        assert not excl & shared

    @given(tables(1))
    def test_verify_partition_accepts_real_tables(self, table):
        verify_partition(table)

    def test_verify_partition_rejects_doctored_tables(self):
        table = table_from(1, [(1, ["x"]), (2, ["y"])])
        # bypass accumulate to fake an impossible cover
        table.exclusive = lambda rating: [(("x",), 1), (("y",), 1)]  # type: ignore[method-assign]
        with pytest.raises(AssertionError):
            verify_partition(table)

    def test_verify_partition_rejects_a_key_another_class_owns_alone(self):
        table = table_from(1, [(1, ["x"]), (2, ["y"]), (3, ["z"])])
        real = table.exclusive
        # ("y",) is counted once over all classes, but in class 2, not 1.
        table.exclusive = lambda rating: real(rating) + [(("y",), 1)] * (rating == 1)  # type: ignore[method-assign]
        with pytest.raises(AssertionError, match="class 1"):
            verify_partition(table)


# Terms with spaces, so that ("a b", "c") and ("a", "b c") join to the same
# line and only counting order breaks their tie.
joinable = st.lists(st.sampled_from(["a", "b", "c", "a b", "b c"]), max_size=8)
rated = st.tuples(st.integers(min_value=1, max_value=5), joinable)


class TestAgainstOracles:
    @pytest.mark.parametrize("keys", [[("a b", "c"), ("a", "b c")], [("a", "b c"), ("a b", "c")]])
    def test_keys_whose_terms_join_alike_keep_counting_order(self, keys):
        table = NgramTable(2)
        table.accumulate(1, keys)
        table.accumulate(2, [("x", "y")])
        assert table.ranked(1) == keys
        assert table.exclusive(1) == slow_exclusive(table, 1) == [(key, 1) for key in keys]

    @given(st.sampled_from([1, 2, 3]), st.lists(rated, min_size=1, max_size=12))
    def test_exclusive_and_ranking(self, n, rows):
        table = table_from(n, rows)
        for rating in table.classes():
            assert table.exclusive(rating) == slow_exclusive(table, rating)
            counts = table.counts(rating)
            everything = sorted(counts.items(), key=lambda row: (-row[1], " ".join(row[0])))
            assert table.ranked(rating) == [key for key, _ in everything]

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("count"), st.tuples(st.integers(1, 2), joinable.filter(lambda terms: len(terms) >= 2))),
                st.tuples(st.just("reject"), rated),
                st.tuples(st.just("exclusive"), st.integers(1, 2)),
            ),
            max_size=20,
        )
    )
    def test_exclusive_follows_every_accumulate(self, ops):
        table = NgramTable(2)
        for op, arg in ops:
            if op == "count":
                rating, terms = arg
                table.accumulate(rating, extract_ngrams(terms, 2))
            elif op == "reject":
                rating, terms = arg
                with pytest.raises(ValueError):
                    table.accumulate(rating, extract_ngrams(terms, 2) + [("a",)])
            elif arg in table.class_tables:
                assert table.exclusive(arg) == slow_exclusive(table, arg)

    @given(st.lists(rated, min_size=1, max_size=10), st.data())
    def test_verify_partition_agrees_on_doctored_lists(self, rows, data):
        # Doctored lists hold only keys some class counts: the oracle lets a
        # key no class counts pass for three or more classes.
        table = table_from(1, rows)
        present = sorted({key for counter in table.class_tables.values() for key in counter})
        real = table.exclusive
        doctored = {}
        for rating in table.classes():
            if present and data.draw(st.booleans()):
                doctored[rating] = [(key, 1) for key in data.draw(st.lists(st.sampled_from(present), max_size=4))]
        table.exclusive = lambda rating: doctored[rating] if rating in doctored else real(rating)  # type: ignore[method-assign]

        def verdict(check):
            try:
                check(table)
            except AssertionError:
                return False
            return True

        assert verdict(verify_partition) == verdict(slow_verify_partition)


class TestEquality:
    def test_order_of_accumulation_is_irrelevant(self):
        a = table_from(1, [(1, ["x", "y"])])
        b = table_from(1, [(1, ["y"]), (1, ["x"])])
        assert a == b

    def test_different_counts_differ(self):
        a = table_from(1, [(1, ["x"])])
        b = table_from(1, [(1, ["x", "x"])])
        assert a != b

    def test_non_table_is_not_equal(self):
        assert table_from(1, []) != "table"
