"""Signed sums of slot rearrangements at the int64 guard.

``r_to_s``, ``s_to_r``, ``kulkarni_nomizu``, ``GroupAlgebraElement.apply``,
``symmetrise_slots`` / ``antisymmetrise_slots`` and the identity suite's
Bianchi check add up rearranged copies of one integer image with integer
multiples ``k_i`` (``tensor._rearrangement_sum``).  The sum is int64
while ``sum |k_i| · max|image| < 2^62`` and Python ints past it.  Each is
run on int64 images just below and just past that boundary, at the
largest int64 image, and on Python-int images, and compared with its formula computed entry by entry
on Fractions.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import sphere
from killingtensor import (
    CurvatureTensor,
    GroupAlgebraElement,
    MetricSignature,
    Permutation,
    SymCurvatureTensor,
    SymmetricForm,
    Tensor,
    antisymmetrise_slots,
    kulkarni_nomizu,
    r_to_s,
    s_to_r,
    symmetrise_slots,
    verify_identity_suite,
)
from killingtensor import integrability
from killingtensor.tensor import _rearrangement_sum

SAFE = 1 << 62
SIDES = ["below", "past", "largest int64", "python"]


def top_for(weight: int, side: str) -> int:
    """A largest magnitude whose sum of ``weight`` copies is just below
    2^62 or just past it, the largest an int64 image holds (a sum of six
    copies passes 2^63), or a magnitude only Python ints hold."""
    return {
        "below": (SAFE - 1) // weight,
        "past": SAFE // weight + 2,
        "largest int64": SAFE - 1,
        "python": 1 << 70,
    }[side]


def peak(tensor: Tensor) -> int:
    return max(abs(v) for v in tensor._ints.ravel().tolist())


def at_the_boundary(tensor: Tensor, weight: int, side: str) -> None:
    """The input reaches the side of the guard the case is named for."""
    assert (tensor._ints.dtype == object) == (side == "python")
    assert (weight * peak(tensor) < SAFE) == (side == "below")


def image_with_peak(dim: int, order: int, top: int, seed: int) -> Tensor:
    """A tensor at scale 1/7 whose content-reduced image has largest
    magnitude ``top`` (it holds 1, so its content is 1)."""
    rng = random.Random(seed)
    values = [rng.randint(-top, top) for _ in range(dim**order)]
    values[0], values[-1] = -top, 1
    ints = np.array(values, dtype=object).reshape((dim,) * order)
    tensor = Tensor._from_ints(ints, Fraction(1, 7), dim)
    assert peak(tensor) == top
    return tensor


def diagonal_form(*entries: int) -> SymmetricForm:
    dim = len(entries)
    return SymmetricForm(Tensor.from_nested([[entries[i] if i == j else 0 for j in range(dim)] for i in range(dim)]))


def curvature_with_peak(top: int) -> CurvatureTensor:
    """``diag(top - 1, 1, 0) ⊘ g``: its entries are ``±(h_aa + h_bb)``, so
    its image has largest magnitude ``top`` and holds 1."""
    g = MetricSignature(3, 0).metric()
    R = kulkarni_nomizu(diagonal_form(top - 1, 1, 0), g)
    assert peak(R.tensor) == top
    return R


def entries(shape: tuple[int, ...], value) -> np.ndarray:
    """The object array ``value(I)`` over every index tuple ``I``."""
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = value(idx)
    return out


def same(result: Tensor, expected: np.ndarray) -> bool:
    return result.array.tolist() == expected.tolist()


@pytest.mark.parametrize("side", SIDES)
class TestAtTheGuard:
    def test_kulkarni_nomizu(self, side):
        # Four rearrangements with multiples ±1 of h ⊗ k, k of largest entry 1.
        top, rng = top_for(4, side), random.Random(1)
        a, b, c, d = (rng.randint(-top, top) for _ in range(4))
        h = SymmetricForm(Tensor._from_ints(np.array([[-top, a, b], [a, c, d], [b, d, 1]], dtype=object), Fraction(1, 7), 3))
        k = diagonal_form(1, -1, 1).tensor
        product = Tensor._from_ints(np.multiply.outer(h.tensor._ints, k._ints), h.tensor._scale, 3)
        at_the_boundary(product, 4, side)
        H, K = h.tensor.array, k.array
        expected = entries(
            (3,) * 4,
            lambda i: H[i[0], i[2]] * K[i[1], i[3]] - H[i[0], i[3]] * K[i[1], i[2]]
            - H[i[1], i[2]] * K[i[0], i[3]] + H[i[1], i[3]] * K[i[0], i[2]],
        )
        assert same(kulkarni_nomizu(h, k).tensor, expected)

    def test_r_to_s(self, side):
        R = curvature_with_peak(top_for(2, side))
        at_the_boundary(R.tensor, 2, side)
        A = R.tensor.array
        expected = entries((3,) * 4, lambda i: A[i[0], i[2], i[1], i[3]] + A[i[0], i[3], i[1], i[2]])
        assert same(r_to_s(R).tensor, expected)

    def test_s_to_r(self, side):
        # r_to_s doubles the largest entry: S holds ±2(h_aa + h_bb) and ±1.
        S = r_to_s(curvature_with_peak(top_for(2, side) // 2))
        at_the_boundary(S.tensor, 2, side)
        A = S.tensor.array
        expected = entries((3,) * 4, lambda i: (A[i[0], i[2], i[1], i[3]] - A[i[0], i[3], i[1], i[2]]) / 3)
        assert same(s_to_r(S).tensor, expected)

    def test_group_algebra_element(self, side):
        # Coefficients 2, -1 and 3/2 are the multiples 4, -2 and 3 of 1/2.
        terms = {Permutation((1, 2, 3)): 2, Permutation((2, 1, 3)): -1, Permutation((3, 1, 2)): Fraction(3, 2)}
        element = GroupAlgebraElement(3, terms)
        T = image_with_peak(3, 3, top_for(9, side), 2)
        at_the_boundary(T, 9, side)
        A = T.array
        expected = entries(
            (3,) * 3,
            lambda i: sum(c * A[tuple(i[k - 1] for k in p.images)] for p, c in element.terms.items()),
        )
        assert same(element.apply(T), expected)

    @pytest.mark.parametrize("slots", [(1, 2, 3), (3, 1)])
    def test_symmetrise_and_antisymmetrise(self, side, slots):
        weight = math.factorial(len(slots))
        T = image_with_peak(3, 3, top_for(weight, side), 3)
        at_the_boundary(T, weight, side)
        A = T.array

        def rearranged_sum(signed: bool):
            def value(i):
                total = Fraction(0)
                for order in itertools.permutations(range(len(slots))):
                    j = list(i)
                    for s, o in zip(slots, order):
                        j[s - 1] = i[slots[o] - 1]
                    odd = sum(a > b for a, b in itertools.combinations(order, 2)) % 2
                    total += (-1 if signed and odd else 1) * A[tuple(j)]
                return total

            return entries((3,) * 3, value)

        assert same(symmetrise_slots(T, slots), rearranged_sum(False))
        assert same(antisymmetrise_slots(T, slots), rearranged_sum(True))

    def test_bianchi_sum(self, side):
        # Multiples 1, 1, 2, 2 of four rearrangements of one order-4 image.
        T = image_with_peak(2, 4, top_for(6, side), 4)
        at_the_boundary(T, 6, side)
        A = T.array
        expected = entries(
            (2,) * 4,
            lambda i: A[i] + A[i[0], i[1], i[3], i[2]]
            + 2 * (A[i[0], i[2], i[3], i[1]] + A[i[0], i[3], i[2], i[1]]),
        )
        assert same(_rearrangement_sum(T, integrability._BIANCHI), expected)

    def test_identity_suite_on_a_valid_tensor(self, side):
        S = r_to_s(curvature_with_peak(top_for(6, side) // 2))
        at_the_boundary(S.tensor, 6, side)
        assert isinstance(S, SymCurvatureTensor)
        assert verify_identity_suite(S, sphere(3)) == integrability._IDENTITY_CHECKS
