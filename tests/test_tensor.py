"""Exact multilinear algebra: scalars, slot permutations, contractions."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingtensor import (
    CurvatureTensor,
    InvalidArgument,
    MetricSignature,
    SymCurvatureTensor,
    Tensor,
    antisymmetrise_slots,
    as_scalar,
    contract,
    contract_vector,
    io,
    permute_slots,
    r_to_s,
    s_to_r,
    symmetrise_slots,
    tensor_product,
)
from killingtensor import tensor as tensor_module
from killingtensor._fastops import normalize_array

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


# ---------------------------------------------------------------------------
# Integer-image storage: every operation against test-local arithmetic on
# Fraction object arrays, on entries whose images reach past 2^62 and
# whose products pass 2^63.
# ---------------------------------------------------------------------------

SAFE = 1 << 62
wide_rationals = st.one_of(
    rationals,
    st.sampled_from([SAFE - 1, SAFE, SAFE + 1, -SAFE, 3 << 61, -(1 << 63), 1 << 64]).map(Fraction),
    st.builds(Fraction, st.integers(-(1 << 70), 1 << 70), st.integers(1, 1 << 40)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 3, 1 << 31, (1 << 61) + 1])),
)


@st.composite
def fraction_arrays(draw, dim, order):
    size = dim**order
    values = draw(st.lists(wide_rationals, min_size=size, max_size=size))
    if draw(st.booleans()):
        values = [Fraction(0)] * size if draw(st.booleans()) else [v * 6 for v in values]
    return np.array(values, dtype=object).reshape((dim,) * order)


def assert_canonical(tensor: Tensor) -> None:
    """The stored image is content-reduced, of the right dtype, read-only."""
    values = tensor._ints.ravel().tolist()
    biggest = max(map(abs, values))
    assert math.gcd(*values) == (1 if biggest else 0)
    assert tensor._scale > 0 and (biggest or tensor._scale == 1)
    assert (tensor._ints.dtype == object) == (biggest >= SAFE)
    assert not tensor._ints.flags.writeable and not tensor.array.flags.writeable


def same(tensor: Tensor, expected: np.ndarray) -> bool:
    assert_canonical(tensor)
    return tensor.array.tolist() == np.asarray(expected).tolist()


class TestIntegerImage:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), order=st.integers(0, 3))
    def test_construction_and_reads(self, data, dim, order):
        arr = data.draw(fraction_arrays(dim, order))
        t = Tensor(arr, dim=dim)
        assert same(t, arr)
        assert all(type(v) is Fraction for v in t.array.ravel().tolist())
        for idx in np.ndindex(arr.shape):
            assert t[idx] == arr[idx] and type(t[idx]) is Fraction
        if order == 0:
            assert t.item() == arr[()]
        assert t.is_zero() == all(v == 0 for v in arr.flat)
        assert t.nonzero_count() == sum(1 for v in arr.flat if v != 0)
        assert t.array is t.array  # built once

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), order=st.integers(0, 3))
    def test_linear_structure(self, data, dim, order):
        a = data.draw(fraction_arrays(dim, order))
        b = data.draw(fraction_arrays(dim, order))
        c = data.draw(wide_rationals)
        ta, tb = Tensor(a, dim=dim), Tensor(b, dim=dim)
        assert same(ta + tb, a + b)
        assert same(ta - tb, a - b)
        assert same(-ta, -a)
        assert same(ta * c, a * c) and same(c * ta, a * c)
        if c:
            assert same(ta / c, a / c)
        assert (ta == tb) == (a.tolist() == b.tolist())
        assert ta == Tensor(a.copy(), dim=dim) and ta - ta == Tensor.zeros(dim, order)
        tiny = Fraction(1, 1 << 70)
        assert same(Tensor.zeros(dim, order) + ta * tiny, a * tiny)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_products_and_contractions(self, data, dim):
        a = data.draw(fraction_arrays(dim, 2))
        b = data.draw(fraction_arrays(dim, 1))
        s = data.draw(fraction_arrays(dim, 0))
        ta, tb, ts = Tensor(a, dim=dim), Tensor(b, dim=dim), Tensor(s, dim=dim)
        assert same(tensor_product(ta, tb), np.multiply.outer(a, b))
        assert same(tensor_product(ts, ta), a * s[()]) and same(tensor_product(ta, ts), a * s[()])
        t = tensor_product(ta, tb)
        outer = np.multiply.outer(a, b)
        assert same(permute_slots(t, (3, 1, 2)), outer.transpose(1, 2, 0))
        assert same(contract(t, 1, 3, ta), np.tensordot(outer, a, axes=([0, 2], [0, 1])))
        assert same(contract(ta, 2, 1, ta), np.asarray(np.tensordot(a, a, axes=([1, 0], [0, 1]))))
        assert same(contract_vector(t, 2, tb), np.tensordot(outer, b, axes=([1], [0])))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), signed=st.booleans())
    def test_symmetrisers_are_literal_sums(self, data, dim, signed):
        a = data.draw(fraction_arrays(dim, 3))
        slots = data.draw(st.permutations((1, 2, 3)))[: data.draw(st.integers(2, 3))]
        expected = np.zeros(a.shape, dtype=object)
        for arrangement in itertools.permutations(slots):
            axes = list(range(3))
            for target, source in zip(slots, arrangement):
                axes[target - 1] = source - 1
            odd = sum(x > y for x, y in itertools.combinations(arrangement, 2)) % 2
            odd ^= sum(x > y for x, y in itertools.combinations(slots, 2)) % 2
            expected = expected + (-1 if signed and odd else 1) * a.transpose(axes)
        op = antisymmetrise_slots if signed else symmetrise_slots
        assert same(op(Tensor(a, dim=dim), slots), expected)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), order=st.integers(0, 3))
    def test_canonical_images_are_stored_as_is(self, data, dim, order):
        # Negation, nonzero scalar multiples and slot permutations keep the
        # image canonical, so they store it without renormalising; the
        # stored pair is what normalize_array would give.
        t = Tensor(data.draw(fraction_arrays(dim, order)), dim=dim)
        c = data.draw(wide_rationals.filter(bool))
        perm = data.draw(st.permutations(range(1, order + 1)))
        calls = []
        counted = lambda *a: calls.append(a) or normalize_array(*a)  # noqa: E731
        with mock.patch.object(tensor_module, "normalize_array", counted):
            results = [-t, t * c, c * t, t * -abs(c), permute_slots(t, perm), Tensor.zeros(dim, order)]
        assert calls == []
        for result in results:
            ints, scale = normalize_array(result._ints, result._scale)
            assert result._scale == scale and result._ints.dtype == ints.dtype
            assert result._ints.tolist() == ints.tolist()
            assert_canonical(result)
        assert same(results[0], -t.array) and same(results[1], t.array * c)

    def test_entries_must_be_exact(self):
        with pytest.raises(InvalidArgument, match="exact rationals"):
            Tensor(np.array([0.5, 1], dtype=object))
        with pytest.raises(InvalidArgument, match="exact rationals"):
            Tensor(np.array(["1/2", 1], dtype=object))


# ---------------------------------------------------------------------------
# The zero tensor: one broadcast int64 zero, whatever its shape.
# ---------------------------------------------------------------------------


def dense_zero(dim: int, order: int) -> Tensor:
    """The zero tensor with a dense all-zero int64 image: the reference
    for the broadcast one."""
    return Tensor._canonical(np.zeros((dim,) * order, dtype=np.int64), Fraction(1), dim)


def outcome(tensor: Tensor) -> tuple:
    return tensor._scale, tensor._ints.dtype, tensor._ints.tolist(), tensor.array.tolist()


class TestBroadcastZero:
    def test_zeros_store_one_entry(self):
        for dim, order in ((1, 0), (3, 0), (1, 2), (3, 4)):
            zero = Tensor.zeros(dim, order)
            assert zero._ints.shape == (dim,) * order and zero._ints.dtype == np.int64
            assert all(stride == 0 for stride in zero._ints.strides)
            assert not zero._ints.flags.writeable
        # Content reduction of any all-zero array gives the broadcast zero.
        for arr in (np.zeros((3, 3), dtype=np.int64), np.zeros((2, 2, 2), dtype=object)):
            ints, scale = normalize_array(arr, Fraction(5, 3))
            assert scale == 1 and ints.dtype == np.int64 and set(ints.strides) == {0}

    def test_item_of_an_order_0_zero(self):
        value = Tensor.zeros(4, 0).item()
        assert value == 0 and type(value) is Fraction

    @pytest.mark.parametrize("dim, order", [(1, 0), (3, 0), (1, 3), (3, 1), (3, 2), (2, 4)])
    def test_operations_match_a_dense_zero(self, dim, order):
        rng = random.Random(10 * dim + order)
        other = random_tensor(rng, dim, order)
        pairing = random_tensor(rng, dim, 2)
        seen = []
        for zero in (Tensor.zeros(dim, order), dense_zero(dim, order)):
            results = [
                zero + other, other + zero, zero - other, other - zero, zero + zero,
                zero * Fraction(-3, 2), Fraction(5) * zero, zero * 0, zero / 7, -zero,
                tensor_product(zero, other), tensor_product(other, zero),
                symmetrise_slots(zero, range(1, order + 1)), antisymmetrise_slots(zero, range(1, order + 1)),
                permute_slots(zero, list(range(order, 0, -1))),
            ]
            if order >= 2:
                results += [contract(zero, 1, 2, pairing), contract(zero, order, 1, pairing)]
            if order >= 1:
                results.append(contract_vector(zero, 1, random_tensor(rng, dim, 1)))
            flags = (zero == dense_zero(dim, order), dense_zero(dim, order) == zero, zero == other,
                     zero.is_zero(), zero.nonzero_count(), repr(zero), zero[(0,) * order])
            seen.append(([outcome(r) for r in results], outcome(zero), flags))
            assert all(result.is_zero() == (result == Tensor.zeros(dim, result.order)) for result in results)
        assert seen[0] == seen[1]

    def test_class_conversions_and_files_match_a_dense_zero(self, tmp_path):
        seen = []
        for k, zero in enumerate((Tensor.zeros(3, 4), dense_zero(3, 4))):
            converted = [r_to_s(CurvatureTensor(zero)).tensor, s_to_r(SymCurvatureTensor(zero)).tensor]
            path = tmp_path / f"zero-{k}.json"
            io.save_tensor(path, CurvatureTensor(zero))
            loaded, _ = io.load_tensor(path)
            assert loaded.tensor == zero and loaded.tensor.is_zero()
            seen.append(([outcome(t) for t in converted], outcome(loaded.tensor), path.read_bytes()))
        assert seen[0] == seen[1]

    def test_reductions_read_one_stored_entry(self, monkeypatch):
        # 10^10 entries: counting them one by one would take seconds.
        zero = Tensor.zeros(10, 10)
        assert zero._ints.size == 10**10
        sizes = []
        count = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda arr, *a, **k: sizes.append(np.size(arr)) or count(arr, *a, **k))
        assert zero.is_zero() and zero.nonzero_count() == 0
        assert sizes == [1, 1]
        assert (zero * 3).is_zero() and (-zero).is_zero()

    def test_comparing_adding_and_writing_a_huge_zero_expands_nothing(self):
        # 6^8 = 1 679 616 entries: a boolean mask of them takes 1.6 MiB and
        # an int64 sum 12.8 MiB.
        zero, other = Tensor.zeros(6, 8), Tensor.zeros(6, 8)
        tracemalloc.start()
        try:
            equal, total, difference = zero == other, zero + other, zero - other
            doc = io.tensor_to_document(zero)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
        assert equal and total.is_zero() and difference.is_zero()
        assert doc == {"dim": 6, "order": 8, "entries": []}
