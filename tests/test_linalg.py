"""Tests for the exact linear algebra in ``killingtensor._linalg``.

``determinant`` and ``inverse_image`` run a fraction-free elimination
over integers; they are checked against a plain Fraction Gauss–Jordan
elimination kept here as the reference.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from killingtensor import InvalidArgument
from killingtensor._linalg import IncrementalRank, determinant, inverse_image


def reference_inverse(matrix):
    """Fraction Gauss–Jordan elimination: (inverse or None if singular, determinant)."""
    n = len(matrix)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None, Fraction(0)
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            det = -det
        pivot = aug[col][col]
        det *= pivot
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            factor = aug[r][col]
            if r != col and factor != 0:
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug], det


def reference_rank(rows):
    """Rank by Fraction row reduction."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] / work[rank][col]
            work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def assert_matches_reference(matrix):
    inverse, det = reference_inverse(matrix)
    assert determinant(matrix) == det
    if inverse is None:
        with pytest.raises(InvalidArgument, match="singular"):
            inverse_image(matrix)
        return
    rows, scale = inverse_image(matrix)
    assert isinstance(scale, int) and scale > 0
    assert [[Fraction(v, scale) for v in row] for row in rows] == inverse


# Entries straddling the int64 limits and beyond: ±(2^b + d).
edge_integers = st.builds(
    lambda bits, offset, sign: sign * (2**bits + offset),
    st.sampled_from([62, 63, 64, 70]),
    st.integers(-2, 2),
    st.sampled_from([1, -1]),
)
wide_integers = st.one_of(
    st.just(0), st.integers(-3, 3), edge_integers, st.integers(-(2**70), 2**70)
)
# Small entries make zero pivots (row exchanges) and singular matrices common.
small_integers = st.integers(-1, 1)
# Denominators are distinct primes (and a Mersenne prime past 2^60).
coprime_fractions = st.builds(
    Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 5, 7, 11, 13, 2**61 - 1])
)


def square_matrices(entries, min_size=1):
    return st.integers(min_size, 6).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


class TestAgainstFractionElimination:
    @settings(max_examples=150, deadline=None)
    @given(square_matrices(wide_integers))
    def test_wide_integer_matrices(self, matrix):
        assert_matches_reference(matrix)

    @settings(max_examples=150, deadline=None)
    @given(square_matrices(small_integers))
    def test_zero_pivots_and_singular_matrices(self, matrix):
        matrix[0][0] = 0
        assert_matches_reference(matrix)

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(coprime_fractions))
    def test_fraction_rows_with_coprime_denominators(self, matrix):
        assert_matches_reference(matrix)

    @settings(max_examples=100, deadline=None)
    @given(
        square_matrices(wide_integers, min_size=2),
        st.integers(0, 5),
        st.integers(0, 5),
        st.sampled_from([1, -1, 2**64]),
    )
    def test_repeated_rows_are_singular(self, matrix, source, target, multiple):
        n = len(matrix)
        source, target = source % n, target % n
        assume(source != target)
        matrix[target] = [multiple * v for v in matrix[source]]
        assert determinant(matrix) == 0
        with pytest.raises(InvalidArgument, match="singular"):
            inverse_image(matrix)

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(wide_integers))
    def test_negative_determinant_keeps_the_scale_positive(self, matrix):
        det = determinant(matrix)
        assume(det != 0)
        if det > 0:
            matrix[0] = [-v for v in matrix[0]]
        assert determinant(matrix) == -abs(det)
        _, scale = inverse_image(matrix)
        # For an integer matrix the rows are the adjugate with the
        # determinant's sign moved in, and the scale is |det|.
        assert scale == abs(det)
        assert_matches_reference(matrix)

    def test_known_values(self):
        assert determinant([[0, 1], [1, 0]]) == -1
        assert inverse_image([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
        # A Lorentzian Gram matrix: det < 0, scale > 0.
        assert inverse_image([[2, 0], [0, -3]]) == ([[3, 0], [0, -2]], 6)
        half = Fraction(1, 2)
        assert determinant(np.array([[half, 0], [0, 3]], dtype=object)) == Fraction(3, 2)
        assert inverse_image([[half]]) == ([[2]], 1)


class TestRejection:
    @pytest.mark.parametrize(
        "matrix",
        [
            [],
            [[]],
            [[1, 2], [3]],
            [[1, 2]],
            [[1, 2], [3, 4], [5, 6]],
            np.array([1, 2], dtype=object),
            np.zeros((2, 2, 2), dtype=object),
            [[0.5, 1], [1, 0]],
            [["1", 0], [0, 1]],
        ],
        ids=["empty", "empty-row", "ragged", "wide", "tall", "1-d", "3-d", "float", "string"],
    )
    @pytest.mark.parametrize("routine", [determinant, inverse_image], ids=lambda f: f.__name__)
    def test_invalid_input(self, routine, matrix):
        with pytest.raises(InvalidArgument):
            routine(matrix)


class TestIncrementalRank:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda width: st.tuples(
                st.lists(
                    st.lists(
                        st.one_of(st.just(Fraction(0)), coprime_fractions),
                        min_size=width,
                        max_size=width,
                    ),
                    min_size=1,
                    max_size=5,
                ),
                st.lists(
                    st.lists(coprime_fractions, min_size=5, max_size=5), max_size=3
                ),
            )
        )
    )
    def test_combinations_of_absorbed_rows_are_dependent(self, rows_and_combinations):
        rows, combinations = rows_and_combinations
        width = len(rows[0])
        tracker = IncrementalRank(width)
        grew = [tracker.add_row(row) for row in rows]
        rank = reference_rank(rows)
        assert tracker.rank == sum(grew) == rank
        for coefficients in combinations:
            combination = [
                sum((c * row[j] for c, row in zip(coefficients, rows)), Fraction(0))
                for j in range(width)
            ]
            assert tracker.add_row(combination) is False
        assert tracker.rank == rank

    def test_known_dependencies(self):
        third = Fraction(1, 3)
        tracker = IncrementalRank(3)
        assert tracker.add_row([third, 0, 1]) is True
        assert tracker.add_row([0, Fraction(2, 5), 0]) is True
        assert tracker.add_row([1, Fraction(-2, 5), 3]) is False  # 3·r1 − r2
        assert tracker.add_row([0, 0, 0]) is False
        assert tracker.add_row([0, 0, Fraction(1, 7)]) is True
        assert tracker.rank == 3

    def test_validation(self):
        with pytest.raises(InvalidArgument, match="width"):
            IncrementalRank(0)
        with pytest.raises(InvalidArgument, match="length"):
            IncrementalRank(3).add_row([1, 2])
