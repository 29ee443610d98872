"""Orbit sums over disjoint slot groups against the direct Fraction route.

``orbit_sum`` returns the signed orbit sum of an integer array at each
canonical index tuple; ``orbit_expand`` rebuilds the dense
(anti)symmetrised array from those sums.  Both are compared here with
composing ``symmetrise_slots`` and ``antisymmetrise_slots`` on Fraction
tensors, including int64 entries close to 2^62, where the two-limb sums
must fall back to Python integers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingtensor import Tensor, antisymmetrise_slots, symmetrise_slots
from killingtensor._fastops import orbit_expand, orbit_sum

NEAR_SAFE = 1 << 62


def fraction_route(entries: list[int], dim: int, order: int, sym, anti) -> np.ndarray:
    """Compose the unnormalised (anti)symmetrisers on a Fraction tensor."""
    arr = np.array([Fraction(v) for v in entries], dtype=object).reshape((dim,) * order)
    tensor = Tensor(arr, dim=dim)
    for group in sym:
        tensor = symmetrise_slots(tensor, [a + 1 for a in group])
    for group in anti:
        tensor = antisymmetrise_slots(tensor, [a + 1 for a in group])
    return tensor.array


def canonical_tuples(dim: int, order: int, sym, anti):
    """Canonical tuples in the order of ``orbit_sum``'s result, with weights.

    The factors are the symmetric groups, the antisymmetric groups and
    then the free axes; each runs through its canonical values in
    lexicographic order, the first factor slowest.  The weight is the
    product of multiplicity! over the symmetric groups.
    """
    groups = [tuple(sorted(g)) for g in sym] + [tuple(sorted(g)) for g in anti]
    used = {a for g in groups for a in g}
    factors = []
    for k, group in enumerate(groups):
        pick = itertools.combinations if k >= len(sym) else itertools.combinations_with_replacement
        factors.append((group, list(pick(range(dim), len(group)))))
    for axis in range(order):
        if axis not in used:
            factors.append(((axis,), [(v,) for v in range(dim)]))
    for choice in itertools.product(*(values for _, values in factors)):
        index = [0] * order
        weight = 1
        for k, ((group, _), values) in enumerate(zip(factors, choice)):
            for axis, value in zip(group, values):
                index[axis] = value
            if k < len(sym):
                for _, run in itertools.groupby(values):
                    weight *= math.factorial(len(list(run)))
        yield tuple(index), weight


@st.composite
def layouts(draw):
    """Dimension, order and disjoint sym/anti groups; other axes stay free."""
    dim = draw(st.integers(2, 3))
    order = draw(st.integers(2, 5))
    axes = draw(st.permutations(range(order)))
    sym, anti = [], []
    start = 0
    while start < order:
        size = draw(st.integers(1, order - start))
        group = tuple(axes[start:start + size])
        start += size
        kind = draw(st.sampled_from(["sym", "anti", "free"]))
        if kind == "sym":
            sym.append(group)
        elif kind == "anti":
            anti.append(group)
    return dim, order, tuple(sym), tuple(anti)


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


def check_against_fraction_route(entries: list[int], arr: np.ndarray, layout) -> np.ndarray:
    dim, order, sym, anti = layout
    expected = fraction_route(entries, dim, order, sym, anti)
    values = orbit_sum(arr, sym, anti)
    canon = list(canonical_tuples(dim, order, sym, anti))
    assert len(values) == len(canon)
    for value, (index, weight) in zip(values.tolist(), canon):
        assert weight * value == expected[index]
    for view in other_layouts(arr):
        assert orbit_sum(view, sym, anti).tolist() == values.tolist()
    dense = orbit_expand(values, dim, order, sym, anti)
    assert dense.shape == (dim,) * order
    assert dense.ravel().tolist() == expected.ravel().tolist()
    assert np.count_nonzero(values) == sum(1 for index, _ in canon if expected[index] != 0)
    return values


class TestOrbitSum:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), layout=layouts())
    def test_int64_input_matches_fraction_route(self, data, layout):
        dim, order, _, _ = layout
        entries = data.draw(st.lists(small | near_safe, min_size=dim**order, max_size=dim**order))
        arr = np.array(entries, dtype=np.int64).reshape((dim,) * order)
        check_against_fraction_route(entries, arr, layout)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), layout=layouts())
    def test_object_input_matches_fraction_route(self, data, layout):
        dim, order, _, _ = layout
        huge = st.integers(-(1 << 90), 1 << 90)
        entries = data.draw(st.lists(small | huge, min_size=dim**order, max_size=dim**order))
        arr = np.array(entries, dtype=object).reshape((dim,) * order)
        values = check_against_fraction_route(entries, arr, layout)
        assert values.dtype == object

    def test_high_limb_sums_take_the_python_int_combine(self):
        # Every entry is within 2^20 of 2^62, so one orbit's high-limb sum
        # passes 2^29 and its total passes 2^62.
        layout = (3, 4, ((0, 1), (2, 3)), ())
        rng = np.random.default_rng(5)
        entries = [int(v) for v in NEAR_SAFE - 1 - rng.integers(0, 1 << 20, size=81)]
        values = check_against_fraction_route(
            entries, np.array(entries, dtype=np.int64).reshape((3,) * 4), layout
        )
        assert values.dtype == object
        assert max(abs(int(v)) for v in values) >= NEAR_SAFE

    def test_sums_below_the_boundary_stay_int64(self):
        layout = (3, 4, ((0, 1, 2),), ())
        entries = [(-1) ** k * ((1 << 50) + k) for k in range(81)]
        values = check_against_fraction_route(
            entries, np.array(entries, dtype=np.int64).reshape((3,) * 4), layout
        )
        assert values.dtype == np.int64

    @pytest.mark.parametrize("sym", [((0, 1, 2, 3),), ((0, 2), (1, 3)), ((1, 2, 3),)])
    def test_pure_symmetric_groups(self, sym):
        rng = np.random.default_rng(7)
        entries = [int(v) for v in rng.integers(-9, 10, size=81)]
        arr = np.array(entries, dtype=np.int64).reshape((3,) * 4)
        values = check_against_fraction_route(entries, arr, (3, 4, sym, ()))
        assert values.dtype == np.int64

    def test_antisymmetric_group_longer_than_the_dimension_is_empty(self):
        # The four-slot antisymmetriser of main1 / young-a at N = 3.
        arr = np.arange(3**6, dtype=np.int64).reshape((3,) * 6)
        for sym, anti in [((), ((0, 2, 3, 5),)), (((1, 4),), ((0, 2, 3, 5),))]:
            values = orbit_sum(arr, sym, anti)
            assert values.size == 0
            assert not np.count_nonzero(values)
            dense = orbit_expand(values, 3, 6, sym, anti)
            assert dense.shape == (3,) * 6 and not dense.any()
        as_objects = orbit_sum(arr.astype(object), (), ((0, 2, 3, 5),))
        assert as_objects.size == 0

    def test_rejects_overlapping_groups(self):
        arr = np.zeros((2,) * 4, dtype=np.int64)
        with pytest.raises(ValueError, match="partition"):
            orbit_sum(arr, ((0, 1),), ((1, 2),))
        with pytest.raises(ValueError, match="partition"):
            orbit_sum(arr, ((0, 4),))
