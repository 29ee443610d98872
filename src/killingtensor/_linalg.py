"""Exact linear algebra over rational matrices.

Small, hand-rolled routines (Gaussian elimination with exact
:class:`~fractions.Fraction` pivots) used for Gram-matrix inversion,
determinants, and rank computations.  Inputs are lists of lists or numpy
object arrays; everything stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvalidArgument

__all__ = ["matrix_inverse", "determinant", "IncrementalRank"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_rows(matrix: object) -> list[list[Fraction]]:
    if isinstance(matrix, np.ndarray):
        if matrix.ndim != 2:
            raise InvalidArgument(f"expected a 2-d matrix, got ndim={matrix.ndim}")
        return [[Fraction(v) for v in row] for row in matrix.tolist()]
    rows = [[Fraction(v) for v in row] for row in matrix]  # type: ignore[union-attr]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InvalidArgument("ragged matrix")
    return rows


def matrix_inverse(matrix: object) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix via Gauss-Jordan elimination."""
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise InvalidArgument("matrix_inverse requires a non-empty square matrix")
    aug = [row[:] + [_ONE if i == j else _ZERO for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise InvalidArgument("matrix is singular")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        if pivot != 1:
            inv = 1 / pivot
            aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor != 0:
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def determinant(matrix: object) -> Fraction:
    """Exact determinant via fraction-free-looking Gaussian elimination."""
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise InvalidArgument("determinant requires a non-empty square matrix")
    work = [row[:] for row in rows]
    det = _ONE
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return _ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = work[r][col] / pivot
            if factor != 0:
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


class IncrementalRank:
    """Row-echelon rank accumulator over exact rationals.

    Rows are fed one at a time; each is reduced against the pivots found so
    far and kept only if it contributes a new pivot.  This lets callers
    stop early once the rank reaches a known bound instead of echelonising
    a huge matrix wholesale.
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise InvalidArgument("row width must be positive")
        self.width = int(width)
        self._pivots: dict[int, list[Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, row: Sequence[Fraction]) -> bool:
        """Reduce ``row`` and absorb it; returns True if the rank grew."""
        work = list(row)
        if len(work) != self.width:
            raise InvalidArgument(f"row has length {len(work)}, expected {self.width}")
        for col, pivot_row in self._pivots.items():
            factor = work[col]
            if factor != 0:
                for j in range(col, self.width):
                    work[j] -= factor * pivot_row[j]
        lead = next((j for j, v in enumerate(work) if v != 0), None)
        if lead is None:
            return False
        inv = 1 / work[lead]
        if inv != 1:
            for j in range(lead, self.width):
                work[j] *= inv
        self._pivots[lead] = work
        return True

