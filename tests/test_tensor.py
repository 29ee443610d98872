"""Exact multilinear algebra: scalars, slot permutations, contractions."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingtensor import (
    InvalidArgument,
    MetricSignature,
    Tensor,
    antisymmetrise_slots,
    as_scalar,
    contract,
    contract_vector,
    permute_slots,
    symmetrise_slots,
    tensor_product,
)

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def random_tensor(rng: random.Random, dim: int, order: int) -> Tensor:
    arr = np.empty((dim,) * order, dtype=object)
    for idx in np.ndindex(arr.shape):
        arr[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Tensor(arr, dim=dim)


class TestScalar:
    def test_accepts_exact_forms(self):
        assert as_scalar(Fraction(3, 4)) == Fraction(3, 4)
        assert as_scalar(7) == Fraction(7)
        assert as_scalar("-2/5") == Fraction(-2, 5)
        assert as_scalar("11") == Fraction(11)

    def test_rejects_floats(self):
        with pytest.raises(InvalidArgument):
            as_scalar(0.1)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidArgument):
            as_scalar("one half")


class TestTensorBasics:
    def test_from_nested_round_trip(self):
        t = Tensor.from_nested([[1, "1/2"], ["-3", 0]])
        assert t.dim == 2 and t.order == 2
        assert t[(0, 1)] == Fraction(1, 2)
        assert t[(1, 0)] == Fraction(-3)
        assert t.nonzero_count() == 3

    def test_zeros_and_is_zero(self):
        z = Tensor.zeros(3, 2)
        assert z.is_zero()
        assert (z + z).is_zero()

    def test_ragged_nested_rejected(self):
        with pytest.raises(InvalidArgument):
            Tensor.from_nested([[1, 2], [3]])

    def test_arithmetic(self):
        rng = random.Random(5)
        a = random_tensor(rng, 2, 2)
        b = random_tensor(rng, 2, 2)
        assert a + b == b + a
        assert a - a == Tensor.zeros(2, 2)
        assert (a * Fraction(3, 2)) / Fraction(3, 2) == a
        assert -(-a) == a

    def test_mixed_shape_rejected(self):
        with pytest.raises(InvalidArgument):
            Tensor.zeros(2, 2) + Tensor.zeros(3, 2)

    def test_basis_vector(self):
        e1 = Tensor.basis_vector(3, 1)
        assert [e1[(i,)] for i in range(3)] == [0, 1, 0]


class TestPermuteSlots:
    def test_moves_content_on_decomposable(self):
        u = Tensor.from_nested([1, 2])
        v = Tensor.from_nested([3, 5])
        w = Tensor.from_nested([7, 11])
        t = tensor_product(tensor_product(u, v), w)
        # p = (1 2 3): content of slot k moves to slot p(k).
        moved = permute_slots(t, (2, 3, 1))
        assert moved == tensor_product(tensor_product(w, u), v)

    def test_component_formula(self):
        rng = random.Random(1)
        t = random_tensor(rng, 2, 3)
        images = (3, 1, 2)
        moved = permute_slots(t, images)
        for idx in itertools.product(range(2), repeat=3):
            expected = t[tuple(idx[images[m] - 1] for m in range(3))]
            assert moved[idx] == expected

    @given(st.permutations(range(1, 4)), st.permutations(range(1, 4)), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_left_action_composition(self, p, q, seed):
        t = random_tensor(random.Random(seed), 2, 3)
        one_step = permute_slots(t, tuple(p[q[k] - 1] for k in range(3)))
        two_step = permute_slots(permute_slots(t, q), p)
        assert one_step == two_step

    def test_invalid_images_rejected(self):
        with pytest.raises(InvalidArgument):
            permute_slots(Tensor.zeros(2, 2), (1, 1))


class TestContraction:
    def test_contract_matches_manual_sum(self):
        rng = random.Random(3)
        t = random_tensor(rng, 3, 3)
        pairing = random_tensor(rng, 3, 2)
        out = contract(t, 1, 3, pairing)
        for j in range(3):
            expected = sum(
                pairing[(x, y)] * t[(x, j, y)] for x in range(3) for y in range(3)
            )
            assert out[(j,)] == expected

    def test_contract_vector(self):
        t = Tensor.from_nested([[1, 2], [3, 4]])
        out = contract_vector(t, 2, [1, -1])
        assert [out[(i,)] for i in range(2)] == [-1, -1]

    def test_same_slot_rejected(self):
        with pytest.raises(InvalidArgument):
            contract(Tensor.zeros(2, 2), 1, 1, Tensor.zeros(2, 2))


class TestSymmetrisers:
    def test_symmetrise_output_is_symmetric(self):
        t = random_tensor(random.Random(7), 3, 3)
        s = symmetrise_slots(t, (1, 3))
        assert s == permute_slots(s, (3, 2, 1))

    def test_antisymmetrise_output_is_antisymmetric(self):
        t = random_tensor(random.Random(8), 3, 3)
        a = antisymmetrise_slots(t, (1, 2))
        assert a == -permute_slots(a, (2, 1, 3))

    def test_antisymmetriser_ignores_the_listed_slot_order(self):
        t = random_tensor(random.Random(11), 3, 3)
        a = antisymmetrise_slots(t, (1, 2, 3))
        assert antisymmetrise_slots(t, (1, 3, 2)) == a
        assert antisymmetrise_slots(t, (3, 1)) == antisymmetrise_slots(t, (1, 3))

    def test_unnormalised_projector_scaling(self):
        # Applying the k-slot (anti)symmetriser twice multiplies by k!.
        t = random_tensor(random.Random(9), 2, 3)
        s = symmetrise_slots(t, (1, 2, 3))
        assert symmetrise_slots(s, (1, 2, 3)) == s * 6
        a = antisymmetrise_slots(t, (1, 2, 3))
        assert antisymmetrise_slots(a, (1, 2, 3)) == a * 6

    def test_antisymmetriser_kills_excess_slots(self):
        # Antisymmetrising more slots than the dimension gives zero.
        t = random_tensor(random.Random(10), 2, 3)
        assert antisymmetrise_slots(t, (1, 2, 3)).is_zero()

    def test_repeated_slots_rejected(self):
        with pytest.raises(InvalidArgument):
            symmetrise_slots(Tensor.zeros(2, 3), (1, 1))


class TestMetricSignature:
    def test_euclidean_diagonal(self):
        sig = MetricSignature.euclidean(3)
        assert sig.diagonal() == (1, 1, 1)
        assert sig.metric() == sig.inverse_metric()

    def test_lorentzian_diagonal(self):
        sig = MetricSignature(3, 1)
        assert sig.diagonal() == (1, 1, 1, -1)
        assert sig.dim == 4
        assert sig.metric()[(3, 3)] == -1

    def test_invalid_signature(self):
        with pytest.raises(InvalidArgument):
            MetricSignature(0, 0)
        with pytest.raises(InvalidArgument):
            MetricSignature(-1, 2)

    @given(rationals, rationals)
    @settings(max_examples=20, deadline=None)
    def test_metric_pairs_exactly(self, a, b):
        sig = MetricSignature(2, 1)
        v = Tensor.from_nested([a, b, a + b])
        paired = contract_vector(contract_vector(sig.metric(), 1, v), 1, v)
        assert paired.item() == a * a + b * b - (a + b) * (a + b)
