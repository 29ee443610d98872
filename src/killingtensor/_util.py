"""Small shared helpers for seeded random generation of exact rationals."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InvalidArgument

__all__ = ["coerce_rng", "random_fraction", "random_vector"]


def coerce_rng(rng: random.Random | int | None) -> random.Random:
    """Accept a ``random.Random``, an integer seed, or None (fresh RNG)."""
    if isinstance(rng, random.Random):
        return rng
    if rng is None:
        return random.Random()
    return random.Random(rng)


def random_fraction(rng: random.Random, bound: int = 9) -> Fraction:
    """Uniform-ish small rational with numerator in ±bound, denominator ≤ bound."""
    if bound < 1:
        raise InvalidArgument(f"bound must be at least 1, got {bound}")
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_vector(rng: random.Random, dim: int, bound: int = 9) -> list[Fraction]:
    return [random_fraction(rng, bound) for _ in range(dim)]
