"""Small shared helpers for seeded random generation of exact rationals."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import InvalidArgument

__all__ = ["coerce_rng", "draw", "random_fraction", "random_vector"]


def coerce_rng(rng: random.Random | int | None) -> random.Random:
    """Accept a ``random.Random``, an integer seed, or None (fresh RNG)."""
    if isinstance(rng, random.Random):
        return rng
    if rng is None:
        return random.Random()
    return random.Random(rng)


def draw(rng: random.Random, count: int, bound: int) -> tuple[list[int], int]:
    """``count`` rationals, each a numerator in ±bound over a denominator
    in 1..bound (two ``randint`` calls, in that order), as integer
    numerators ``T`` over one common denominator ``D``.  Every random
    rational of the package is drawn here."""
    if bound < 1:
        raise InvalidArgument(f"bound must be at least 1, got {bound}")
    pairs = [(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(count)]
    common = math.lcm(*(b for _, b in pairs))
    return [a * (common // b) for a, b in pairs], common


def random_fraction(rng: random.Random, bound: int = 9) -> Fraction:
    """Uniform-ish small rational with numerator in ±bound, denominator ≤ bound."""
    (numerator,), denominator = draw(rng, 1, bound)
    return Fraction(numerator, denominator)


def random_vector(rng: random.Random, dim: int, bound: int = 9) -> list[Fraction]:
    return [random_fraction(rng, bound) for _ in range(dim)]
