"""Exact contraction and canonical components against direct computations.

The engine, ``contract_terms``, evaluates an einsum term pairwise, in
int64 while its guards pass and modulo primes after that; read back
exactly by ``integers``, one term is compared with ``np.einsum`` on
Python-int object arrays, with magnitudes on both sides of the 2^62
guard, and its polarised terms with a dense einsum whose x-slots are
summed per monomial.  ``polarise`` and the reference ``alternating_sums``
(kept in conftest) give the canonical components of an array over one
symmetric and one antisymmetric slot group; a residual rebuilds the
dense (anti)symmetrised array from them.  Both are compared here with
composing ``symmetrise_slots`` and ``antisymmetrise_slots`` on Fraction
tensors, including int64 entries close to 2^62, where the sums must
fall back to Python integers.  The product kernel ``_alternated`` with
an empty group, on Python ints, is compared with polynomial
multiplication one monomial pair at a time, and with a group, with that
multiplication followed by ``alternating_sums``.
"""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alternating_sums, flat, sphere, wide_kn
from killingtensor import (
    ConditionForm1,
    ConditionForm2,
    CurvatureTensor,
    Tensor,
    _fastops,
    antisymmetrise_slots,
    check,
    condition3_residual,
    family_rep,
    integrability,
    r_to_s,
    random_curvature,
    random_symmetric_form,
    symmetrise_slots,
    verify_identity_suite,
)
from killingtensor._fastops import (
    contract_terms,
    guarded_tensordot,
    integers,
    linear_combination,
    normalize_array,
    polarise,
)
from killingtensor.tensor import _rearrangement_sum, _rearrangements

NEAR_SAFE = 1 << 62


def layout(order: int, sym=(), anti=()) -> integrability._Polar:
    """The compiled row of a residual of ``order`` slots with these two
    groups (either may be empty) and no terms."""
    return integrability._Polar(
        (), tuple(sorted(sym)), tuple(sorted(anti)), free=0, pivot=0, order=order, longest_anti=len(anti)
    )


def fraction_route(entries: list[int], dim: int, polar) -> np.ndarray:
    """Compose the unnormalised (anti)symmetrisers on a Fraction tensor."""
    arr = np.array([Fraction(v) for v in entries], dtype=object).reshape((dim,) * polar.order)
    tensor = Tensor(arr, dim=dim)
    if polar.sym:
        tensor = symmetrise_slots(tensor, [a + 1 for a in polar.sym])
    if polar.anti:
        tensor = antisymmetrise_slots(tensor, [a + 1 for a in polar.anti])
    return tensor.array


def canonical_tuples(dim: int, polar):
    """Canonical tuples in the order of the canonical components, with weights.

    The factors are the symmetric group, the antisymmetric group and
    then the free axes; each runs through its canonical values in
    lexicographic order, the first factor slowest.  The weight is the
    product of multiplicity! over the symmetric group.
    """
    factors = [
        (polar.sym, list(itertools.combinations_with_replacement(range(dim), len(polar.sym)))),
        (polar.anti, list(itertools.combinations(range(dim), len(polar.anti)))),
    ]
    for axis in range(polar.order):
        if axis not in polar.sym + polar.anti:
            factors.append(((axis,), [(v,) for v in range(dim)]))
    for choice in itertools.product(*(values for _, values in factors)):
        index = [0] * polar.order
        for (group, _), values in zip(factors, choice):
            for axis, value in zip(group, values):
                index[axis] = value
        weight = math.prod(math.factorial(len(list(run))) for _, run in itertools.groupby(choice[0]))
        yield tuple(index), weight


@st.composite
def layouts(draw):
    """Dimension and the compiled row of a residual: at most one
    symmetric and one antisymmetric group, disjoint; other axes stay free."""
    dim = draw(st.integers(2, 3))
    order = draw(st.integers(2, 5))
    axes = draw(st.permutations(range(order)))
    cut = sorted(draw(st.lists(st.integers(0, order), min_size=2, max_size=2)))
    return dim, layout(order, axes[: cut[0]], axes[cut[0]: cut[1]])


def residual_tensor(values: np.ndarray, dim: int, polar) -> np.ndarray:
    """The dense array a residual rebuilds from these canonical components."""
    return integrability._Residual(values, Fraction(1), dim, polar).tensor().array


def canonical_components(arr: np.ndarray, polar) -> np.ndarray:
    """x in the symmetric group's slots, then the antisymmetric group read
    at increasing tuples, then the free axes: one vector."""
    sym_axes, anti_axes = list(polar.sym), list(polar.anti)
    rest = [axis for axis in range(arr.ndim) if axis not in sym_axes]
    free = [axis for axis in rest if axis not in anti_axes]
    # polarise adds up to len(sym_axes)! entries per coefficient in arr's
    # dtype, unguarded (the engine checks that bound before it polarises).
    if arr.size and math.factorial(len(sym_axes)) * int(np.abs(arr).max()) >= NEAR_SAFE:
        arr = arr.astype(object)
    poly = polarise(arr, sym_axes).transpose([0] + [1 + rest.index(a) for a in anti_axes + free])
    return alternating_sums(poly, len(anti_axes)).reshape(-1)


small = st.integers(-9, 9)
near_safe = st.integers(NEAR_SAFE - (1 << 20), NEAR_SAFE - 1) | st.integers(
    -NEAR_SAFE + 1, -NEAR_SAFE + (1 << 20)
)


def other_layouts(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views with the values of ``arr``: one with its axes permuted in
    memory (gathered in place), one with a negative stride (copied)."""
    axes = tuple(reversed(range(arr.ndim)))
    transposed = np.ascontiguousarray(arr.transpose(axes)).transpose(axes)
    flipped = np.ascontiguousarray(arr[::-1])[::-1]
    return transposed, flipped


def check_against_fraction_route(entries: list[int], arr: np.ndarray, dim: int, polar) -> np.ndarray:
    expected = fraction_route(entries, dim, polar)
    values = canonical_components(arr, polar)
    canon = list(canonical_tuples(dim, polar))
    assert len(values) == len(canon)
    for value, (index, weight) in zip(values.tolist(), canon):
        assert weight * value == expected[index]
    for view in other_layouts(arr):
        assert canonical_components(view, polar).tolist() == values.tolist()
    dense = residual_tensor(values, dim, polar)
    assert dense.shape == (dim,) * polar.order
    assert dense.ravel().tolist() == expected.ravel().tolist()
    assert np.count_nonzero(values) == sum(1 for index, _ in canon if expected[index] != 0)
    return values


class TestCanonicalComponents:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), layout=layouts())
    def test_int64_input_matches_fraction_route(self, data, layout):
        dim, polar = layout
        order = polar.order
        entries = data.draw(st.lists(small | near_safe, min_size=dim**order, max_size=dim**order))
        arr = np.array(entries, dtype=np.int64).reshape((dim,) * order)
        check_against_fraction_route(entries, arr, dim, polar)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), layout=layouts())
    def test_object_input_matches_fraction_route(self, data, layout):
        dim, polar = layout
        order = polar.order
        huge = st.integers(-(1 << 90), 1 << 90)
        entries = data.draw(st.lists(small | huge, min_size=dim**order, max_size=dim**order))
        arr = np.array(entries, dtype=object).reshape((dim,) * order)
        values = check_against_fraction_route(entries, arr, dim, polar)
        assert values.dtype == object

    def test_sums_past_the_guard_take_python_ints(self):
        # Every entry is within 2^20 of 2^62, so the sum of the two entries
        # of each mixed monomial passes it.
        rng = np.random.default_rng(5)
        entries = [int(v) for v in NEAR_SAFE - 1 - rng.integers(0, 1 << 20, size=81)]
        values = check_against_fraction_route(
            entries, np.array(entries, dtype=np.int64).reshape((3,) * 4), 3, layout(4, (0, 1))
        )
        assert values.dtype == object
        assert max(abs(int(v)) for v in values) >= NEAR_SAFE

    def test_sums_below_the_boundary_stay_int64(self):
        entries = [(-1) ** k * ((1 << 50) + k) for k in range(81)]
        values = check_against_fraction_route(
            entries, np.array(entries, dtype=np.int64).reshape((3,) * 4), 3, layout(4, (0, 1, 2))
        )
        assert values.dtype == np.int64

    @pytest.mark.parametrize("sym", [(0, 1, 2, 3), (0, 2), (1, 2, 3)])
    def test_pure_symmetric_groups(self, sym):
        rng = np.random.default_rng(7)
        entries = [int(v) for v in rng.integers(-9, 10, size=81)]
        arr = np.array(entries, dtype=np.int64).reshape((3,) * 4)
        values = check_against_fraction_route(entries, arr, 3, layout(4, sym))
        assert values.dtype == np.int64

    def test_antisymmetric_group_longer_than_the_dimension_is_empty(self):
        # The four-slot antisymmetriser of main1 / young-a at N = 3.
        arr = np.arange(3**6, dtype=np.int64).reshape((3,) * 6)
        for polar in [layout(6, (), (0, 2, 3, 5)), layout(6, (1, 4), (0, 2, 3, 5))]:
            values = canonical_components(arr, polar)
            assert values.size == 0
            dense = residual_tensor(values, 3, polar)
            assert dense.shape == (3,) * 6 and not dense.any()
        assert canonical_components(arr.astype(object), layout(6, (), (0, 2, 3, 5))).size == 0


@st.composite
def connected_terms(draw):
    """A connected einsum term of 2-5 factors, each index shared by two
    factors or an output index, with letters and factors shuffled."""
    count = draw(st.integers(2, 5))
    edges = [(draw(st.integers(0, k - 1)), k) for k in range(1, count)]
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=2))
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    factors = [[] for _ in range(count)]
    for i, j in edges:
        shared = next(letters)
        factors[i].append(shared)
        factors[j].append(shared)
    output = []
    for factor in factors:
        for _ in range(draw(st.integers(0, 4 - min(len(factor), 4)))):
            if len(output) < 5:
                output.append(next(letters))
                factor.append(output[-1])
    factors = [draw(st.permutations(f)) for f in factors]
    output = draw(st.permutations(output))
    return ",".join("".join(f) for f in factors) + "->" + "".join(output)


def contract(subscripts: str, *operands, memo=None):
    """One term through the engine, as exact integers and a scale; the
    monomial axis is dropped when no slot is polarised."""
    values, scale = contract_terms([(1, subscripts, operands)], memo)
    return (integers(values) if "*" in subscripts else integers(values)[0, ...]), scale


class TestContract:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), term=connected_terms(), dim=st.integers(2, 3))
    def test_matches_einsum_on_python_ints(self, data, term, dim):
        factors = term.split("->")[0].split(",")
        operands = []
        for factor in factors:
            # Magnitudes from tiny to 2^40 per factor: a chain can stay
            # int64 or promote to Python ints at any step.
            bits = data.draw(st.sampled_from([3, 20, 31, 40]))
            size = dim ** len(factor)
            entries = data.draw(
                st.lists(st.integers(-(1 << bits), 1 << bits), min_size=size, max_size=size)
            )
            dtype = data.draw(st.sampled_from([np.int64, np.int64, object]))
            arr = np.array(entries, dtype=dtype).reshape((dim,) * len(factor))
            scale = Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
            operands.append((arr, scale))
        arr, scale = contract(term, *operands)
        expected = np.asarray(np.einsum(term, *[a.astype(object) for a, _ in operands]))
        total = math.prod(s for _, s in operands)
        assert arr.shape == expected.shape
        assert [scale * int(v) for v in np.ravel(arr)] == [
            total * v for v in np.ravel(expected).tolist()
        ]

    def test_promotes_in_the_middle_of_a_chain(self):
        # The first product stays below 2^62; the second cannot.
        rng = np.random.default_rng(11)
        mats = [rng.integers(1 << 29, 1 << 30, size=(3, 3)) for _ in range(3)]
        arr, scale = contract("ab,bc,cd->ad", *[(m, Fraction(1)) for m in mats])
        assert arr.dtype == object and scale == 1
        expected = np.einsum("ab,bc,cd->ad", *[m.astype(object) for m in mats])
        assert arr.tolist() == expected.tolist()

    def test_stays_int64_below_the_guard(self):
        rng = np.random.default_rng(12)
        s = rng.integers(-9, 10, size=(3,) * 4)
        g = rng.integers(-9, 10, size=(3, 3))
        term = "kl,kabc,ldef->abcdef"
        arr, scale = contract(term, (g, Fraction(1, 2)), (s, Fraction(3)), (s, Fraction(3)))
        assert arr.dtype == np.int64 and arr.flags.c_contiguous
        expected = np.einsum(term, g.astype(object), s.astype(object), s.astype(object))
        assert [scale * v for v in arr.ravel().tolist()] == [
            Fraction(9, 2) * v for v in expected.ravel().tolist()
        ]

    @pytest.mark.parametrize("term", ["ab,bc->ad", "aa,ab->b", "ab,bc,cb->a", "ab,bc->aa", "ab->ba"])
    def test_rejects_terms_outside_the_index_rule(self, term):
        # A dangling output or summed index, a trace, an index in three
        # places, a repeated output index, or a single factor.
        operands = [(np.ones((2, 2), dtype=np.int64), Fraction(1))] * (term.count(",") + 1)
        with pytest.raises(ValueError, match="index"):
            contract(term, *operands)


# ---------------------------------------------------------------------------
# The int64 / Python-int guards, against test-local Python-int arithmetic,
# with entries on both sides of 2^62 and products past 2^63.
# ---------------------------------------------------------------------------

INT64_MAX = (1 << 63) - 1
edge = st.sampled_from(
    [NEAR_SAFE - 1, NEAR_SAFE, NEAR_SAFE + 1, -NEAR_SAFE + 1, -NEAR_SAFE, -NEAR_SAFE - 1,
     (1 << 31) + 1, -(1 << 32), 3 << 60, -INT64_MAX]
)
int64_entries = small | near_safe | edge | st.integers(-INT64_MAX, INT64_MAX)
object_entries = int64_entries | st.integers(-(1 << 70), 1 << 70)


@st.composite
def integer_arrays(draw, shape, *, dtype=None):
    """An integer array of ``shape``, int64 or object, with guard-crossing entries."""
    if dtype is None:
        dtype = draw(st.sampled_from([np.int64, object]))
    entries = int64_entries if dtype is np.int64 else object_entries
    size = math.prod(shape)
    values = draw(st.lists(entries, min_size=size, max_size=size))
    return np.array(values, dtype=dtype).reshape(shape)


def python_ints(arr: np.ndarray) -> np.ndarray:
    return np.array(arr.ravel().tolist(), dtype=object).reshape(arr.shape)


class TestMaxAbs:
    @pytest.mark.parametrize(
        "values, dtype, expected",
        [
            ([5, -(NEAR_SAFE + 1), 7], np.int64, NEAR_SAFE + 1),
            ([NEAR_SAFE - 1, -(NEAR_SAFE - 1)], np.int64, NEAR_SAFE - 1),
            ([-NEAR_SAFE, 3], np.int64, NEAR_SAFE),
            ([-(1 << 63), 1], np.int64, 1 << 63),
            ([2, -(1 << 64)], object, 1 << 64),
            ([(1 << 64) - 1, -(1 << 64) + 2], object, (1 << 64) - 1),
            ([-(NEAR_SAFE + 1), NEAR_SAFE], object, NEAR_SAFE + 1),
            ([0, 0], object, 0),
            ([], np.int64, 0),
        ],
    )
    def test_extremes(self, values, dtype, expected):
        from killingtensor._fastops import _max_abs

        result = _max_abs(np.array(values, dtype=dtype))
        assert result == expected and type(result) is int


class TestGuardedTensordot:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), ranks=st.sampled_from([(2, 3), (0, 3), (2, 0), (0, 0)]))
    def test_matches_python_ints(self, data, dim, ranks):
        # Order-0 operands are what an order-0 tensor_product hands over.
        a = data.draw(integer_arrays((dim,) * ranks[0]))
        b = data.draw(integer_arrays((dim,) * ranks[1]))
        contracted = data.draw(st.integers(0, min(ranks)))
        axes_a = data.draw(st.permutations(range(ranks[0])))[:contracted]
        axes_b = data.draw(st.permutations(range(ranks[1])))[:contracted]
        result = guarded_tensordot(a, b, axes_a, axes_b)
        expected = np.tensordot(python_ints(a), python_ints(b), axes=(list(axes_a), list(axes_b)))
        assert isinstance(result, np.ndarray) and result.shape == np.shape(expected)
        assert result.tolist() == np.asarray(expected).tolist()
        bound = dim**contracted * int(np.max(np.abs(python_ints(a)))) * int(np.max(np.abs(python_ints(b))))
        if a.dtype != object and b.dtype != object:
            assert (result.dtype == object) == (bound >= NEAR_SAFE)

    @pytest.mark.parametrize("side", ["below", "at", "past 2^63"])
    def test_the_contracted_volume_counts_in_the_guard(self, side):
        # Each entry sums nine products c · 1, so it equals the guard's
        # bound 9c: int64 just below 2^62, Python ints from 2^62 on.
        below = (NEAR_SAFE - 1) // 9
        c = {"below": below, "at": below + 1, "past 2^63": (1 << 63) // 9 + 1}[side]
        a, b = np.full((3, 3), c, dtype=np.int64), np.ones((3, 3, 3), dtype=np.int64)
        result = guarded_tensordot(a, b, (0, 1), (2, 0))
        assert (result.dtype == object) == (side != "below")
        assert result.tolist() == [9 * c] * 3


class TestNormalizeArray:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 3),
        common=st.sampled_from([1, 2, 6, 1 << 40, 3 << 61]),
        zero=st.booleans(),
    )
    def test_canonical_form_of_the_same_value(self, data, dim, common, zero):
        arr = data.draw(integer_arrays((dim,) * 2))
        if zero:
            arr = np.zeros_like(arr)
        scale = Fraction(data.draw(st.integers(1, 99)), data.draw(st.integers(1, 99)))
        out, out_scale = normalize_array(arr, scale)
        assert [out_scale * v for v in out.ravel().tolist()] == [
            scale * v for v in arr.ravel().tolist()
        ]
        values = out.ravel().tolist()
        biggest = max(abs(v) for v in values)
        assert math.gcd(*values) == (1 if biggest else 0)
        assert out_scale > 0 and (biggest or out_scale == 1)
        assert (out.dtype == object) == (biggest >= NEAR_SAFE)
        # The same value, in the other dtype and at another scale, has the
        # same canonical form.
        twin, twin_scale = normalize_array(python_ints(arr) * common, scale / common)
        assert twin.dtype == out.dtype and twin_scale == out_scale
        assert twin.tolist() == out.tolist()


class TestLinearCombination:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), count=st.integers(1, 4), dim=st.integers(1, 3))
    def test_matches_fractions(self, data, count, dim):
        coefficient = st.fractions(min_value=-50, max_value=50, max_denominator=50) | st.sampled_from(
            [Fraction(0), Fraction(1 << 62), Fraction(-3, 1 << 40)]
        )
        terms = [
            (data.draw(coefficient), data.draw(integer_arrays((dim,) * 2)))
            for _ in range(count)
        ]
        arr, scale = linear_combination(terms)
        expected = sum(c * python_ints(a) for c, a in terms)
        assert arr.shape == (dim, dim)
        assert [scale * v for v in arr.ravel().tolist()] == expected.ravel().tolist()
        bound = sum(abs(c / scale) * int(np.max(np.abs(python_ints(a)))) for c, a in terms)
        if all(a.dtype != object for _, a in terms):
            assert (arr.dtype == object) == (bound >= NEAR_SAFE)

    def test_zero_dimensional_terms(self):
        arr, scale = linear_combination(
            [(Fraction(1, 2), np.array(3, dtype=np.int64)), (1, np.array(1 << 80, dtype=object))]
        )
        assert arr.shape == () and scale * arr[()] == Fraction(3, 2) + (1 << 80)

    def test_zero_array_with_a_multiple_past_int64(self):
        # The common scale is 2^-70, so the zero array's multiple is 2^70.
        zero = np.zeros(2, dtype=np.int64)
        arr, scale = linear_combination([(1, zero), (Fraction(1, 1 << 70), np.array([1, 0]))])
        assert arr.dtype == np.int64 and arr.tolist() == [1, 0] and scale == Fraction(1, 1 << 70)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        count=st.integers(1, 5),
        peak=st.sampled_from([1, (1 << 20) - 1, NEAR_SAFE - 1, NEAR_SAFE, 1 << 70]),
        zero=st.booleans(),
    )
    def test_transposes_match_the_general_combination(self, data, count, peak, zero):
        # A rearrangement sum splits its coefficients once and multiplies
        # the tensor's scale in after: the multiples, the dtype of the sum
        # and the result are those of linear_combination on the views with
        # every coefficient times the scale.  One max|image| bounds every
        # view.
        dim = data.draw(st.integers(1, 3))
        arr = np.array(
            [0 if zero else data.draw(st.integers(-peak, peak)) for _ in range(dim**3)],
            dtype=object if peak >= NEAR_SAFE else np.int64,
        ).reshape((dim,) * 3)
        tensor = Tensor._from_ints(arr, data.draw(st.fractions(1, 50, max_denominator=7)), dim)
        terms = [
            (data.draw(st.fractions(-50, 50, max_denominator=7)), data.draw(st.permutations(range(3))))
            for _ in range(count)
        ]
        table = _rearrangements(terms)
        ints, scale = tensor._ints, tensor._scale
        expected = linear_combination([(c * scale, ints.transpose(axes)) for c, axes in terms])
        summed = _fastops.transposed_sum(ints, table.axes, table.multiples)
        assert summed.dtype == expected[0].dtype and summed.tolist() == expected[0].tolist()
        result = _rearrangement_sum(tensor, table)
        assert result == Tensor._from_ints(*expected, dim)
        assert result._ints.dtype == normalize_array(*expected)[0].dtype

    def test_all_zero_coefficients(self):
        arr, scale = linear_combination([(0, np.ones((2, 2), dtype=np.int64))])
        assert scale == 1 and not arr.any()


def monomials(dim: int, degree: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations_with_replacement(range(dim), degree))


def python_polynomial_product(a, b, axes_a, axes_b, dim, degree_a, degree_b):
    """Coefficient arrays multiplied as polynomials, one monomial pair at a
    time, in Python ints; also the most pairs that meet in one monomial."""
    position = {m: k for k, m in enumerate(monomials(dim, degree_a + degree_b))}
    blocks: dict[int, np.ndarray] = {}
    meetings: dict[int, int] = {}
    for i, alpha in enumerate(monomials(dim, degree_a)):
        for j, beta in enumerate(monomials(dim, degree_b)):
            part = np.tensordot(
                python_ints(a[i]), python_ints(b[j]), axes=([k - 1 for k in axes_a], [k - 1 for k in axes_b])
            )
            gamma = position[tuple(sorted(alpha + beta))]
            blocks[gamma] = blocks.get(gamma, 0) + part
            meetings[gamma] = meetings.get(gamma, 0) + 1
    return np.array([blocks[k] for k in range(len(position))], dtype=object), max(meetings.values())


def polarised_reference(term: str, arrays: list[np.ndarray]) -> np.ndarray:
    """A polarised term by definition: the dense einsum with a fresh output
    index in each x-slot, then each x-index tuple added to its monomial."""
    inputs, output = term.split("->")
    fresh = iter("ABCDEFGHIJ")
    xs = []
    spelled = "".join(xs.append(next(fresh)) or xs[-1] if c == "*" else c for c in inputs)
    dense = np.einsum(spelled + "->" + "".join(xs) + output, *[python_ints(a) for a in arrays])
    dense = np.array(dense, dtype=object)  # a full contraction gives a scalar
    dim = arrays[0].shape[0]
    table = monomials(dim, len(xs))
    out = np.zeros((len(table),) + (dim,) * len(output), dtype=object)
    for index in itertools.product(range(dim), repeat=len(xs)):
        out[table.index(tuple(sorted(index)))] += dense[index]
    return out


class TestPolynomialProduct:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 3),
        degrees=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        ranks=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    )
    def test_matches_python_int_multiplication(self, data, dim, degrees, ranks):
        # Coefficients on both sides of 2^62, so products pass 2^63; the
        # kernel runs on Python ints, as the test-local reference routes do.
        a = data.draw(integer_arrays((len(monomials(dim, degrees[0])),) + (dim,) * ranks[0]))
        b = data.draw(integer_arrays((len(monomials(dim, degrees[1])),) + (dim,) * ranks[1]))
        contracted = data.draw(st.integers(0, min(ranks)))
        axes_a = tuple(data.draw(st.permutations(range(1, ranks[0] + 1)))[:contracted])
        axes_b = tuple(data.draw(st.permutations(range(1, ranks[1] + 1)))[:contracted])
        step = _fastops._compile(0, 1, a.ndim, b.ndim, (axes_a, axes_b, dim, *degrees, (), ()))
        result = _fastops._alternated(python_ints(a), python_ints(b), step)
        expected, pairs = python_polynomial_product(a, b, axes_a, axes_b, dim, *degrees)
        assert result.shape == expected.shape == step.shape
        assert result.tolist() == expected.tolist()
        # The step's guard counts this many pairs per product monomial.
        assert step.load == pairs * dim**contracted

    @pytest.mark.parametrize("value", [NEAR_SAFE - 1, NEAR_SAFE, (1 << 31) + 1, 3 << 60])
    def test_products_past_int64(self, value):
        # x^2 from two degree-1 factors: two pairs meet in each mixed monomial.
        a = np.full((3, 3), value, dtype=np.int64)
        result, scale = contract("*b,*b->", (a, Fraction(1)), (a, Fraction(1)))
        expected, _ = python_polynomial_product(a, a, (1,), (1,), 3, 1, 1)
        assert [scale * v for v in result.tolist()] == expected.tolist()
        assert max(abs(v) for v in expected.tolist()) >= 1 << 63

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), term=connected_terms(), dim=st.integers(2, 3))
    def test_polarised_terms_match_the_dense_route(self, data, term, dim):
        inputs, output = term.split("->")
        marked = set(data.draw(st.lists(st.sampled_from(output), max_size=3))) if output else set()
        term = "".join("*" if c in marked else c for c in inputs) + "->" + "".join(
            c for c in output if c not in marked
        )
        operands = []
        for factor in inputs.split(","):
            bits = data.draw(st.sampled_from([3, 20, 31, 62]))
            entries = data.draw(
                st.lists(st.integers(-(1 << bits), 1 << bits), min_size=dim ** len(factor), max_size=dim ** len(factor))
            )
            dtype = data.draw(st.sampled_from([np.int64, object])) if bits < 62 else object
            arr = np.array(entries, dtype=dtype).reshape((dim,) * len(factor))
            operands.append((arr, Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))))
        arr, scale = contract(term, *operands)
        expected = polarised_reference(term, [a for a, _ in operands])
        if not marked:
            expected = expected[0, ...]
        total = math.prod(s for _, s in operands)
        assert arr.shape == expected.shape
        assert [scale * v for v in arr.ravel().tolist()] == [total * v for v in expected.ravel().tolist()]

    def test_a_chain_that_promotes_midway(self):
        # The int64 pair product stays below the guard; the product with the
        # third factor, two pairs per mixed monomial, cannot.
        rng = np.random.default_rng(13)
        b, c = (rng.integers(1 << 29, 1 << 30, size=(3, 3)) for _ in range(2))
        a = rng.integers(1 << 4, 1 << 5, size=(3, 3, 3))
        term = "ab*,bc,c*->a"
        memo: dict = {}
        arr, scale = contract(term, (a, Fraction(1)), (b, Fraction(1)), (c, Fraction(1)), memo=memo)
        # The first step is an int64 array; the second, past the guard, has
        # no array (it is computed modulo primes) and a bound above 2^62.
        steps = [node for node in memo.values() if len(node.source) > 2]
        assert steps[0].arr.dtype == np.int64 and steps[0].bound == np.max(np.abs(steps[0].arr))
        assert steps[1].arr is None and steps[1].bound >= NEAR_SAFE
        assert arr.dtype == object
        expected = polarised_reference(term, [a, b, c])
        assert [scale * v for v in arr.ravel().tolist()] == expected.ravel().tolist()

    def test_a_memo_shares_equal_sub_contractions(self):
        rng = np.random.default_rng(14)
        s = (rng.integers(-9, 10, size=(3,) * 4), Fraction(1))
        g = (rng.integers(-9, 10, size=(3, 3)), Fraction(1, 2))
        memo: dict = {}
        first = contract("pq,p*ab,q*cd->abcd", g, s, s, memo=memo)
        size = len(memo)
        # The same product with other letters adds nothing.
        second = contract("xy,x*ef,y*gh->efgh", g, s, s, memo=memo)
        assert len(memo) == size
        assert second[1] == first[1] and second[0].tolist() == first[0].tolist()

    def test_the_memo_work_on_the_library_rows(self, monkeypatch):
        # How many polarised factors and products the library rows build,
        # each call sharing one memo: a lost share shows here.
        calls = {"_factor": 0, "_step": 0}

        def counted(name):
            original = getattr(_fastops, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(_fastops, name, counted(name))

        def work(run) -> tuple[int, int]:
            calls.update(_factor=0, _step=0)
            run()
            return calls["_factor"], calls["_step"]

        pairs = list(itertools.product(ConditionForm1, ConditionForm2))
        for dim, expected in ((3, (9, 6)), (4, (76, 108)), (5, (76, 108))):
            K = random_curvature(dim, random.Random(dim), bound=3)
            assert work(lambda: [check(K, sphere(dim), *pair) for pair in pairs]) == expected
        for dim in (4, 5):
            S = r_to_s(random_curvature(dim, random.Random(dim), bound=3))
            assert work(lambda: verify_identity_suite(S, sphere(dim))) == (4, 13)
        S = r_to_s(random_curvature(4, random.Random(4), bound=3))
        assert work(lambda: condition3_residual(S, sphere(4))) == (4, 8)


    def test_a_step_does_no_rational_arithmetic(self, monkeypatch):
        # A node's scale is an integer pair, multiplied componentwise, and
        # no memo key holds a Fraction: a term of six steps multiplies and
        # hashes as many Fractions as a term of two, none of them per step.
        # young-a's one term, and the first of the third condition's.
        rows = (integrability._COND1_FORMS[ConditionForm1.YOUNG_A][1:], integrability._COND3_FORM[1:])
        polars = [integrability._polar(*row) for row in rows]
        terms = [(polar.terms[0], len(polar.anti) - polar.free) for polar in polars]
        rng = np.random.default_rng(15)
        gbar = (rng.integers(-3, 4, size=(3, 3)), Fraction(2, 3))
        operands = (gbar, (rng.integers(-3, 4, size=(3,) * 4), Fraction(5, 7)))
        counts = {"__mul__": 0, "__hash__": 0}
        for name in counts:

            def counted(self, *args, name=name, original=getattr(Fraction, name)):
                counts[name] += 1
                return original(self, *args)

            monkeypatch.setattr(Fraction, name, counted)
        seen = []
        for (term, picks), alternate in terms:
            counts.update(__mul__=0, __hash__=0)
            contract_terms([(1, term, [operands[k] for k in picks])], {}, alternate)
            seen.append((len(_fastops._contraction_plan(term, 3, alternate).steps), dict(counts)))
        (two, first), (six, second) = seen
        assert (two, six) == (2, 6)
        assert first == second, (first, second)


@st.composite
def alternated_products(draw):
    """Two polynomial-valued factors and an antisymmetric group of free
    slots: dimension 2-5, a group of 1 .. dim slots split between the
    factors in any way, 0-2 contracted and 0-1 other free axes per
    factor, degrees 0-3, every factor's index axes in any order.  Sizes
    are capped so that the reference product stays small."""
    dim = draw(st.integers(2, 5))
    size = draw(st.integers(1, dim))
    budget = 20000 // dim**size
    shared = draw(st.integers(0, max(k for k in range(3) if dim**k <= budget)))
    budget //= dim**shared
    rest = []
    for _ in range(2):
        rest.append(draw(st.integers(0, int(budget >= dim))))
        budget //= dim ** rest[-1]
    count = lambda d: math.comb(dim + d - 1, d)  # noqa: E731
    degree_a = draw(st.sampled_from([d for d in range(4) if count(d) <= budget]))
    degree_b = draw(st.sampled_from([d for d in range(4) if count(degree_a) * count(d) <= budget]))
    in_a = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    group = [f"g{s}" for s in range(size)]
    contracted = [f"c{k}" for k in range(shared)]
    letters_a = draw(st.permutations([g for g, mine in zip(group, in_a) if mine] + contracted + ["r"] * rest[0]))
    letters_b = draw(st.permutations([g for g, mine in zip(group, in_a) if not mine] + contracted + ["r"] * rest[1]))
    return dim, degree_a, degree_b, list(letters_a), list(letters_b), group


def alternated_step(dim, degree_a, degree_b, letters_a, letters_b, group):
    """The compiled step of an alternated product of these letters."""
    shared = [c for c in letters_a if c.startswith("c")]
    key = (
        tuple(letters_a.index(c) + 1 for c in shared),
        tuple(letters_b.index(c) + 1 for c in shared),
        dim,
        degree_a,
        degree_b,
        tuple(letters_a.index(g) + 1 if g in letters_a else 0 for g in group),
        tuple(letters_b.index(g) + 1 if g in letters_b else 0 for g in group),
    )
    return _fastops._compile(0, 1, len(letters_a) + 1, len(letters_b) + 1, key)


def alternated_reference(a, b, dim, degree_a, degree_b, letters_a, letters_b, group):
    """The plain product as Python polynomial multiplication, then the
    conftest alternation; also the most monomial pairs that meet."""
    shared = [c for c in letters_a if c.startswith("c")]
    axes_a = [letters_a.index(c) + 1 for c in shared]
    axes_b = [letters_b.index(c) + 1 for c in shared]
    product, pairs = python_polynomial_product(a, b, axes_a, axes_b, dim, degree_a, degree_b)
    # The free axes of a, then of b; each group letter names one of them.
    free = [c for c in letters_a + letters_b if c not in shared]
    order = [free.index(g) + 1 for g in group] + [k + 1 for k, c in enumerate(free) if c not in group]
    return alternating_sums(product.transpose([0] + order), len(group)), pairs


class TestAlternatedProduct:
    @settings(max_examples=150, deadline=None)
    @given(spec=alternated_products(), seed=st.integers(0, 2**32 - 1), modular=st.booleans())
    def test_matches_the_product_then_the_alternation(self, spec, seed, modular):
        dim, degree_a, degree_b, letters_a, letters_b, group = spec
        rng = np.random.default_rng(seed)
        shapes = [
            (math.comb(dim + d - 1, d),) + (dim,) * len(letters)
            for d, letters in ((degree_a, letters_a), (degree_b, letters_b))
        ]
        step = alternated_step(*spec)
        if modular:
            # Residues at the largest prime the step's load allows, half of
            # them p - 1.
            p = next(_fastops.Residues(0, step.load, None).primes(0))
            a, b = (np.where(rng.random(shape) < 0.5, p - 1, rng.integers(0, p, size=shape)) for shape in shapes)
        else:
            a, b = (rng.integers(-(1 << 20), 1 << 20, size=shape) for shape in shapes)
        expected, pairs = alternated_reference(a, b, *spec)
        volume = dim ** sum(c.startswith("c") for c in letters_a)
        assert step.load == math.factorial(len(group)) * pairs * volume
        result = _fastops._alternated(a, b, step)
        assert result.dtype == np.int64 and result.shape == expected.shape == step.shape
        if modular:
            result, expected = result % p, expected % p
        assert result.tolist() == expected.tolist()

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_shuffle_tables_sum_every_arrangement(self, dim):
        # For every group size (the empty group of a plain product
        # included) and every split of the group between the factors (an
        # empty share on either side included), the shuffles of
        # share-alternated factors expand to the signed sum over all size!
        # arrangements: each pair (first factor's tuple, second's) gets
        # the same coefficient from both.
        def sign(values) -> int:
            return (-1) ** sum(i > j for i, j in itertools.combinations(values, 2))

        for size in range(min(dim, 5) + 1):
            combos = list(itertools.combinations(range(dim), size))
            for r in range(size + 1):
                for slots in itertools.combinations(range(size), r):
                    others = [s for s in range(size) if s not in slots]
                    first, second = _fastops._shuffled(dim, size, slots)
                    assert first.shape == second.shape == (len(combos), math.comb(size, r))
                    signs = 1 - 2 * (first % 2)
                    shares = [list(itertools.combinations(range(dim), n)) for n in (r, size - r)]
                    for row, tuple_ in enumerate(combos):
                        brute: dict = {}
                        for order in itertools.permutations(tuple_):
                            key = (tuple(order[s] for s in slots), tuple(order[s] for s in others))
                            brute[key] = brute.get(key, 0) + sign([tuple_.index(v) for v in order])
                        shuffled: dict = {}
                        for column, shuffle_sign in enumerate(signs[row].tolist()):
                            part_a, part_b = shares[0][first[row, column] // 2], shares[1][second[row, column]]
                            for order_a in itertools.permutations(part_a):
                                for order_b in itertools.permutations(part_b):
                                    key = (order_a, order_b)
                                    term = shuffle_sign * sign(order_a) * sign(order_b)
                                    shuffled[key] = shuffled.get(key, 0) + term
                        assert {k: v for k, v in shuffled.items() if v} == brute, (dim, size, slots, tuple_)

    @pytest.mark.parametrize("term, size", [("abcx,xd->abcd", 4), ("abcx,x->abc", 3), ("x,xabc->abc", 3)])
    def test_a_zero_factor_zeroes_a_wrapped_share(self, term, size):
        # The other factor's entries sit just below 2^62: alternating it
        # over its share of the group would add up 3! such entries with
        # one sign, which wraps in int64.  The zero factor ends the step
        # first, so nothing is alternated and the product is exactly zero.
        dim = 4
        inputs = term.split("->")[0].split(",")
        operands = []
        for letters in inputs:
            share = [k for k, c in enumerate(letters) if c in "abc"]
            arr = np.zeros((dim,) * len(letters), dtype=np.int64)
            if len(share) == 3:
                for index in np.ndindex(arr.shape):
                    odd = sum(index[i] > index[j] for i, j in itertools.combinations(share, 2)) % 2
                    arr[index] = -(NEAR_SAFE - 1) if odd else NEAR_SAFE - 1
            operands.append((arr, Fraction(1)))
        values, _, bound = _fastops._read(*_fastops._term(term, operands, {}, size))
        assert bound == 0
        assert values.dtype == np.int64 and not values.any()

    def test_memo_bounds_are_the_maxima(self):
        # Each int64 node's bound is the maximum of its array, taken once.
        rng = np.random.default_rng(21)
        rows = [*integrability._COND1_FORMS.values(), *integrability._COND2_FORMS.values(), integrability._COND3_FORM]
        rows += [(None, (term,), ops) for _, term, ops in integrability._HOOK_CHECKS]
        for dim in (3, 4):
            g = (rng.integers(-3, 4, size=(dim, dim)), Fraction(1))
            k = (rng.integers(-(1 << 12), 1 << 12, size=(dim,) * 4), Fraction(1, 7))
            memo: dict = {}
            for _, terms, ops in rows:
                integrability._residual(integrability._polar(terms, ops), g, k, memo)
            nodes = [node for node in memo.values() if node.arr is not None]
            assert any(len(node.source) > 2 and node.source[2].key[-2] for node in memo.values())  # alternated
            for node in nodes:
                assert node.bound == (int(np.max(np.abs(node.arr))) if node.arr.size else 0)


class TestZeroNodes:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_a_valid_s_polarised_in_three_slots_is_zero(self, dim):
        # A valid S symmetrised over any three of its slots vanishes by the
        # cyclic identity, so a factor with x in three slots of one S is
        # zero; with x in two slots it is not.
        for seed in range(3):
            S = r_to_s(random_curvature(dim, random.Random(seed), bound=9)).tensor._ints
            assert not any(polarise(S, axes).any() for axes in itertools.combinations(range(4), 3))
            assert all(polarise(S, axes).any() for axes in itertools.combinations(range(4), 2))

    def test_no_library_row_polarises_three_slots_of_one_factor(self):
        # Each row contracts once, with x in its final symmetric group less
        # or plus the slot it shares with an earlier operator: no compiled
        # term puts x into three slots of one curvature factor.
        forms = [*integrability._COND1_FORMS.values(), *integrability._COND2_FORMS.values()]
        rows = [(terms, ops) for _, terms, ops in forms] + [integrability._COND3_FORM[1:]]
        rows += [((term,), ops) for _, term, ops in integrability._HOOK_CHECKS]
        for terms, ops in rows:
            for term, _ in integrability._polar(terms, ops).terms:
                assert max(factor.count("*") for factor in term.split("->")[0].split(",")) < 3, term

    def test_the_identity_suite_multiplies_no_zero_operand(self, monkeypatch):
        # So the suite's 13 steps each multiply two nonzero operands.  On a
        # curvature tensor too wide for int64 a polarised factor is
        # polarised in Python ints, so a zero one would be known as zero,
        # and no step modulo a prime multiplies one.
        operands = []
        original = _fastops._alternated

        def watched(a, b, step):
            operands.append((a.any(), b.any()))
            return original(a, b, step)

        monkeypatch.setattr(_fastops, "_alternated", watched)
        for dim in (3, 4, 5):
            for model in (sphere(dim), flat(dim)):
                operands.clear()
                verify_identity_suite(r_to_s(random_curvature(dim, random.Random(dim), bound=3)), model)
                assert len(operands) == 13 and all(a and b for a, b in operands), (dim, model)
        for bits in (32, 40):
            operands.clear()
            verify_identity_suite(r_to_s(wide_kn(4, random.Random(bits), bits)), sphere(4))
            assert operands and all(a and b for a, b in operands), bits

    def test_a_zero_curvature_tensor_multiplies_nothing(self, monkeypatch):
        # The zero shortcut of _step serves zero operands: every form pair
        # and the third condition return at once on a zero tensor.
        calls = []
        monkeypatch.setattr(_fastops, "_alternated", lambda *args: calls.append(args))
        for dim in (3, 4):
            K = CurvatureTensor(Tensor.zeros(dim, 4))
            for model in (sphere(dim), sphere(dim - 1, 1)):
                for form1, form2 in itertools.product(ConditionForm1, ConditionForm2):
                    assert check(K, model, form1, form2).integrable
            for model in (sphere(dim), flat(dim)):
                assert check(K, model).integrable and condition3_residual(K, model).is_zero()
        assert calls == []

    def test_zero_terms_sum_to_a_broadcast_zero(self):
        # Every term ends in a zero factor: the sum is one stored zero at
        # scale 1, and no step or sum makes an array.
        s = (np.zeros((3,) * 4, dtype=np.int64), Fraction(1, 5))
        g = (np.eye(3, dtype=np.int64), Fraction(2))
        values, scale = contract_terms([(1, "kl,k*ab,l*cd->abcd", (g, s, s)), (-3, "kl,k*ab,lcd*->abcd", (g, s, s))])
        assert values.shape == (6, 3, 3, 3, 3) and values.strides == (0,) * 5
        assert scale == 1 and not values.any()


class TestMemory:
    def test_check_at_n10_peaks_below_its_pin(self):
        # check() in the default forms at N = 10 traced a 46.5 MiB peak
        # with share-alternated last products; gathering both factors at
        # all 4! rearrangements of each tuple traced 176 MiB.
        K = random_curvature(10, random.Random(10), bound=3)
        model = sphere(10)
        tracemalloc.start()
        try:
            check(K, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    @staticmethod
    def traced(fn):
        fn()  # the cached tables and plans are built once, untraced
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_a_zero_third_residual_holds_no_array(self):
        # The order-10 zero at N = 5 is one broadcast zero: 0.6 MiB traced,
        # where a dense int64 zero took 74.5 MiB.
        model = sphere(5)
        h = random_symmetric_form(5, random.Random(5), bound=3)
        K = family_rep(h, Fraction(2), Fraction(-1, 3), Fraction(5, 2), signature=model.signature)
        residual, peak = self.traced(lambda: condition3_residual(K, model))
        assert residual.is_zero() and residual._ints.shape == (5,) * 10
        assert peak < 1 << 20

    def test_a_nonzero_third_residual_peaks_near_its_size(self):
        # Reduced before it is expanded, a nonzero residual is built by
        # gathers into its own array: 8.6 MiB traced for an 8 MiB residual
        # at N = 4, where expanding, weighting and then reducing the dense
        # array took 17.3 MiB.
        K = random_curvature(4, random.Random(4), bound=2)
        residual, peak = self.traced(lambda: condition3_residual(K, sphere(4)))
        assert not residual.is_zero() and residual._ints.nbytes == 8 << 20
        assert peak <= 1.25 * (8 << 20)
