"""Exact linear algebra over rational matrices.

:func:`determinant` and :func:`inverse_image` clear the matrix's
denominators once and run one fraction-free Gauss–Jordan elimination
over Python integers, in which every division is exact (E. H. Bareiss,
Math. Comp. 22, 1968).  :class:`IncrementalRank`
eliminates fraction-free too, one row at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import InvalidArgument

__all__ = ["determinant", "inverse_image", "IncrementalRank"]


def _integer_rows(matrix: object) -> tuple[list[list[int]], int]:
    """Square integer rows and one denominator ``d``: ``matrix = rows / d``.
    Entries are ints or Fractions."""
    try:
        entries = [list(row) for row in matrix]  # type: ignore[union-attr]
        d = math.lcm(*(v.denominator for row in entries for v in row))
        rows = [[int(v.numerator) * (d // int(v.denominator)) for v in row] for row in entries]
    except (AttributeError, TypeError) as exc:
        raise InvalidArgument("expected a matrix of exact rationals (Fraction or int)") from exc
    if not rows or any(len(row) != len(rows) for row in rows):
        raise InvalidArgument("expected a non-empty square matrix")
    return rows, d


def _eliminate(rows: list[list[int]]) -> int:
    """Fraction-free Gauss–Jordan elimination, in place, on the leading
    square block of integer rows; returns the block's determinant ``d``.
    If ``d != 0``, the block ends as ``d`` times the identity and the
    columns after it as ``d · block⁻¹`` times what they held.  A row
    exchange negates the row it moves up, so ``d`` keeps its sign."""
    n = len(rows)
    previous = 1
    for k in range(n):
        pivot_index = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot_index is None:
            return 0
        if pivot_index != k:
            rows[k], rows[pivot_index] = [-v for v in rows[pivot_index]], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                factor = rows[i][k]
                rows[i] = [(pivot * a - factor * b) // previous for a, b in zip(rows[i], pivot_row)]
        previous = pivot
    return previous


def determinant(matrix: object) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions."""
    rows, d = _integer_rows(matrix)
    return Fraction(_eliminate(rows), d ** len(rows))


def inverse_image(matrix: object) -> tuple[list[list[int]], int]:
    """Exact inverse of a non-singular square matrix of ints or Fractions,
    as integer rows over one positive integer ``d``: ``matrix⁻¹ = rows / d``.
    For an integer matrix the rows are the adjugate times the sign of the
    determinant, and ``d`` is its magnitude."""
    rows, denominator = _integer_rows(matrix)
    n = len(rows)
    augmented = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    det = _eliminate(augmented)
    if det == 0:
        raise InvalidArgument("matrix is singular")
    # matrix⁻¹ = denominator · rows⁻¹ = denominator · adjugate / det.
    factor = denominator if det > 0 else -denominator
    return [[factor * v for v in row[n:]] for row in augmented], abs(det)


class IncrementalRank:
    """Row-echelon rank accumulator over exact rationals.

    Rows are fed one at a time; each is reduced against the pivots found so
    far and kept only if it contributes a new pivot.  This lets callers
    stop early once the rank reaches a known bound instead of echelonising
    a huge matrix wholesale.  The arithmetic is fraction-free: a row is
    cleared of its denominators, each pivot is eliminated by
    cross-multiplying, and the row's content (gcd) is divided out, so a
    kept row is a primitive integer vector.
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise InvalidArgument("row width must be positive")
        self.width = int(width)
        self._pivots: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, row: Sequence[Fraction]) -> bool:
        """Reduce ``row`` and absorb it; returns True if the rank grew."""
        row = list(row)
        if len(row) != self.width:
            raise InvalidArgument(f"row has length {len(row)}, expected {self.width}")
        d = math.lcm(*(int(v.denominator) for v in row))
        work = [int(v.numerator) * (d // int(v.denominator)) for v in row]
        for col, pivot_row in self._pivots.items():
            factor = work[col]
            if factor:
                pivot = pivot_row[col]
                common = math.gcd(pivot, factor)
                pivot, factor = pivot // common, factor // common
                work = [pivot * a - factor * b for a, b in zip(work, pivot_row)]
        content = math.gcd(*work)
        if not content:
            return False
        lead = next(j for j, v in enumerate(work) if v)
        self._pivots[lead] = [v // content for v in work]
        return True
