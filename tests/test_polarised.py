"""The polarised residual engine against a dense route that lives only here.

Every row the library evaluates (the nine condition forms behind the 18
form pairs, the third condition and the five hook checks) is computed
here by definition:

* ``np.einsum`` of each term over Python-int object arrays;
* the literal signed sum over every arrangement of the slots of an
  operator that overlaps a later one;
* each entry of the result added, with the sign of its sorting
  rearrangement, to the canonical component of its orbit under the
  final disjoint groups and the group of free slots an earlier
  operator spans (or, for a dense residual, the literal
  (anti)symmetrisation over the final groups).

The engine's canonical vectors must equal these component by component,
at N = 3 and 4, on the sphere, Lorentzian-sphere and flat models, on
random curvature inputs and on unstructured operands (a non-symmetric
4-tensor and contraction tensor with entries up to 2^40, so that the
int64 guards promote).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import flat, sphere
from killingtensor import (
    MetricSignature,
    ModelKind,
    ModelSpace,
    check,
    condition1_residual,
    condition2_residual,
    condition3_residual,
    r_to_s,
    random_curvature,
)
from killingtensor import _fastops, integrability
from killingtensor._fastops import Residues, contract_terms, integers

NEAR_SAFE = 1 << 62

FORMS1 = {form.value: row for form, row in integrability._COND1_FORMS.items()}
FORMS2 = {form.value: row for form, row in integrability._COND2_FORMS.items()}
ROWS = {
    **{name: (terms, ops) for name, (_, terms, ops) in {**FORMS1, **FORMS2}.items()},
    "cond3": integrability._COND3_FORM[1:],
    **{name: ((term,), ops) for name, term, ops in integrability._HOOK_CHECKS},
}
QUARTIC = {"cond3", "hook_8_1_1_on_quartic_yin", "hook_8_1_1_on_quartic_yang"}


def models(dim: int) -> dict[str, ModelSpace]:
    lorentz = ModelSpace(ModelKind.SPHERE, MetricSignature(dim - 1, 1))
    return {"sphere": sphere(dim), "lorentz": lorentz, "flat": flat(dim)}


def split_ops(ops):
    """The earlier operators, and the trailing run of disjoint groups."""
    start, used = len(ops), set()
    while start and used.isdisjoint(ops[start - 1][1]):
        start -= 1
        used.update(ops[start][1])
    return ops[:start], ops[start:]


def arrangement_sum(arr: np.ndarray, axes, sign: int) -> np.ndarray:
    """Signed sum of ``arr`` over every arrangement of ``axes``.

    Each arrangement is, once, an arrangement of ``axes[1:]`` followed by
    the swap of ``axes[0]`` with one of ``axes`` (itself included), which
    is odd unless it is the identity: the sum is built that way, with
    ``len(axes) - 1`` swaps per level instead of ``len(axes)!`` views."""
    if len(axes) < 2:
        return arr
    inner = arrangement_sum(arr, axes[1:], sign)
    total = inner
    for axis in axes[1:]:
        order = list(range(arr.ndim))
        order[axes[0]], order[axis] = axis, axes[0]
        total = total + sign * inner.transpose(order)
    return total


def literal_arrangement_sum(arr: np.ndarray, axes, sign: int) -> np.ndarray:
    """The same sum, one view per arrangement."""
    total = np.zeros(arr.shape, dtype=object)
    for arrangement in itertools.permutations(range(len(axes))):
        order = list(range(arr.ndim))
        for position, source in zip(axes, arrangement):
            order[position] = axes[source]
        odd = sum(i > j for i, j in itertools.combinations(arrangement, 2)) % 2
        total = total + (-1 if sign < 0 and odd else 1) * arr.transpose(order)
    return total


def dense_operand(terms, ops, gbar, curvature):
    """The operand with its earlier operators applied, as Python ints, and its scale."""
    (g, g_scale), (k, k_scale) = gbar, curvature
    total, scales = 0, set()
    for term in terms:
        factors = term.split("->")[0].split(",")
        twos = sum(len(f) == 2 for f in factors)
        scales.add(g_scale**twos * k_scale ** (len(factors) - twos))
        arrays = [(g if len(f) == 2 else k).astype(object) for f in factors]
        total = total + np.einsum(term, *arrays, optimize="greedy")
    for sign, axes in split_ops(ops)[0]:
        total = arrangement_sum(total, axes, sign)
    (scale,) = scales
    return total, scale


def orbit_components(arr: np.ndarray, ops, free_group: bool = True) -> list:
    """Signed orbit sums at the canonical tuples of the final groups.

    Canonical tuples run through the symmetric group's sorted tuples, the
    antisymmetric group's increasing tuples and the free axes, each in
    lexicographic order, the first slowest; a tuple with a repeated
    antisymmetric index lies in no orbit.

    An earlier operator leaves ``arr`` symmetric or antisymmetric in the
    free slots it spans.  With ``free_group`` those slots are one more
    group of that kind, and every orbit sum over it, which adds each
    component ``len(group)!`` times (signed alike), is divided by that
    count; otherwise they stay free axes.
    """
    dim, order = arr.shape[0], arr.ndim
    earlier, final = split_ops(ops)
    sym = [sorted(axes) for sign, axes in final if sign > 0]
    anti = [sorted(axes) for sign, axes in final if sign < 0]
    free = [axis for axis in range(order) if axis not in sum(sym + anti, [])]
    repeats = 1
    if free_group and earlier:
        ((sign, _),) = earlier
        (sym if sign > 0 else anti).append(free)
        repeats, free = math.factorial(len(free)), []
    assert len(sym) <= 1 and len(anti) <= 1
    digits = np.indices((dim,) * order, dtype=np.int64).reshape(order, -1).T
    index = np.zeros(len(digits), dtype=np.int64)
    sign = np.ones(len(digits), dtype=np.int64)
    count = 1
    for group, kind in [(g, "sym") for g in sym] + [(g, "anti") for g in anti]:
        part = digits[:, group]
        ordered = np.sort(part, axis=1)
        if kind == "anti":
            sign[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)] = 0
            for i, j in itertools.combinations(range(len(group)), 2):
                sign[part[:, i] > part[:, j]] *= -1
            tuples = list(itertools.combinations(range(dim), len(group)))
        else:
            tuples = list(itertools.combinations_with_replacement(range(dim), len(group)))
        # Equal-length digit tuples sort lexicographically as base-dim codes.
        powers = dim ** np.arange(len(group) - 1, -1, -1)
        codes = np.array(tuples, dtype=np.int64).reshape(len(tuples), len(group)) @ powers
        index = index * len(tuples) + np.searchsorted(codes, ordered @ powers)
        count *= len(tuples)
    for axis in free:
        index = index * dim + digits[:, axis]
        count *= dim
    if not count:
        return []
    keep = sign != 0
    index, terms = index[keep], arr.ravel()[keep] * sign[keep]
    order_ = np.argsort(index, kind="stable")
    index, terms = index[order_], terms[order_]
    starts = np.flatnonzero(np.concatenate(([True], index[1:] != index[:-1])))
    assert len(starts) == count  # every canonical tuple lies in its own orbit
    sums = np.add.reduceat(terms, starts).tolist()
    assert all(v % repeats == 0 for v in sums)
    return [v // repeats for v in sums]


def engine_components(name: str, gbar, curvature) -> list:
    terms, ops = ROWS[name]
    residual = integrability._residual(integrability._polar(terms, ops), gbar, curvature, {})
    return [residual.scale * v for v in integers(residual.contracted).ravel().tolist()]


def reference_components(name: str, gbar, curvature, free_group: bool = True) -> list:
    terms, ops = ROWS[name]
    arr, scale = dense_operand(terms, ops, gbar, curvature)
    return [scale * v for v in orbit_components(arr, ops, free_group)]


def curvature_image(K, cls):
    tensor = integrability._as_class(K, cls).tensor
    return tensor._ints, tensor._scale


def unstructured(dim: int, seed: int):
    """A non-symmetric 4-tensor and contraction tensor; entries up to 2^40."""
    rng = np.random.default_rng(seed)
    k = rng.integers(-(1 << 40), (1 << 40) + 1, size=(dim,) * 4)
    g = rng.integers(-3, 4, size=(dim, dim))
    return (g, Fraction(2)), (k, Fraction(1, 3))


def rows_at(dim: int):
    return [name for name in ROWS if dim == 3 or name not in QUARTIC]


class TestCanonicalVectors:
    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("model_name", ["sphere", "lorentz", "flat"])
    def test_curvature_inputs(self, dim, model_name):
        model = models(dim)[model_name]
        K = random_curvature(dim, random.Random(dim * 7 + len(model_name)), bound=3)
        g = model.gbar()
        gbar = (g._ints, g._scale)
        classes = {name: row[0] for name, row in {**FORMS1, **FORMS2}.items()}
        for name in rows_at(dim):
            curvature = curvature_image(K, classes.get(name, integrability._S))
            assert engine_components(name, gbar, curvature) == reference_components(
                name, gbar, curvature
            ), name

    @pytest.mark.parametrize("dim", [3, 4])
    def test_unstructured_operands(self, dim):
        gbar, curvature = unstructured(dim, seed=dim)
        for name in rows_at(dim):
            assert engine_components(name, gbar, curvature) == reference_components(
                name, gbar, curvature
            ), name

    @pytest.mark.parametrize("name", sorted(QUARTIC))
    def test_quartic_rows_at_dimension_four(self, name):
        gbar, curvature = unstructured(4, seed=11)
        assert engine_components(name, gbar, curvature) == reference_components(
            name, gbar, curvature
        )

    def test_third_condition_on_a_valid_input_at_dimension_four(self):
        S = r_to_s(random_curvature(4, random.Random(5), bound=3)).tensor
        g = sphere(4).gbar()
        gbar, curvature = (g._ints, g._scale), (S._ints, S._scale)
        values = engine_components("cond3", gbar, curvature)
        assert any(values)
        assert values == reference_components("cond3", gbar, curvature)


class TestFormPairs:
    # At N = 2 some groups have no canonical tuples.
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("model_name", ["sphere", "lorentz", "flat"])
    def test_all_18_pairs_report_the_reference_supports(self, dim, model_name):
        model = models(dim)[model_name]
        K = random_curvature(dim, random.Random(100 + dim), bound=3)
        g = model.gbar()
        gbar = (g._ints, g._scale)
        support = {}
        for name, (cls, terms, ops) in {**FORMS1, **FORMS2}.items():
            if name == "omega" and model_name == "flat":
                continue
            # A support counts each component at every index tuple of the
            # free slots.
            values = reference_components(name, gbar, curvature_image(K, cls), free_group=False)
            support[name] = sum(1 for v in values if v)
        for f1 in FORMS1:
            for f2 in FORMS2:
                if f1 == "omega" and model_name == "flat":
                    continue
                report = check(K, model, f1, f2)
                assert (report.cond1_support, report.cond2_support) == (support[f1], support[f2])
                assert report.integrable == (support[f1] == support[f2] == 0)


class TestDenseResiduals:
    """The rebuilt residual tensors against the literal (anti)symmetrisation."""

    @staticmethod
    def literal_residual(row, K, model):
        cls, terms, ops = row
        g = model.gbar()
        arr, scale = dense_operand(terms, ops, (g._ints, g._scale), curvature_image(K, cls))
        for sign, axes in split_ops(ops)[1]:
            arr = arrangement_sum(arr, axes, sign)
        return [scale * v for v in arr.ravel().tolist()]

    @pytest.mark.parametrize("dim", [3, 4])
    def test_condition_residual_tensors(self, dim):
        model = models(dim)["lorentz"]
        K = random_curvature(dim, random.Random(200 + dim), bound=3)
        for name, row in FORMS1.items():
            residual = condition1_residual(K, model, name)
            assert residual.order == 6
            assert residual.array.ravel().tolist() == self.literal_residual(row, K, model), name
        for name, row in FORMS2.items():
            residual = condition2_residual(K, model, name)
            assert residual.order == 8
            assert residual.array.ravel().tolist() == self.literal_residual(row, K, model), name

    def test_third_condition_tensor(self):
        model = models(3)["sphere"]
        K = random_curvature(3, random.Random(300), bound=3)
        # The seven-slot symmetriser has 5040 arrangements; read the dense
        # residual at canonical tuples and rebuild the rest by symmetry.
        residual = condition3_residual(K, model)
        _, terms, ops = integrability._COND3_FORM
        g = model.gbar()
        arr, scale = dense_operand(terms, ops, (g._ints, g._scale), curvature_image(K, integrability._S))
        values = orbit_components(arr, ops)
        sym, anti = (1, 0, 3, 6, 7, 8, 9), (2, 4, 5)
        tuples = itertools.product(
            itertools.combinations_with_replacement(range(3), len(sym)),
            itertools.combinations(range(3), len(anti)),
        )
        for value, (s, a) in zip(values, tuples):
            index = [0] * 10
            for axis, v in zip(sorted(sym), s):
                index[axis] = v
            for axis, v in zip(anti, a):
                index[axis] = v
            weight = math.prod(math.factorial(s.count(v)) for v in set(s))
            assert residual[tuple(index)] == scale * weight * value


class TestFreeSlotMap:
    """A row with an earlier operator is one contraction g, whose sum the
    engine then moves (``contract_terms``' ``move``): the shared slot's
    index goes from g's monomial axis into its tuple axis (young-a) or
    from the tuple axis into the monomial axis (hook-d)."""

    @staticmethod
    def tight_operand(dim: int) -> np.ndarray:
        """``s[k, a, m, c] = w[a, c]``, with ``w`` antisymmetric, 1 above
        the diagonal but ``w[0, 2] = -1``.  At the tuple (0, 1, 2, 3) the
        three pairings ``w01 w23``, ``-w02 w13`` and ``w03 w12`` are all 1,
        so every shuffle of the last product adds with one sign there: on
        a permutation gbar its peak is its step's bound (hook-d) or two
        thirds of it (young-a), over ``1 / load`` of it either way.  So
        the read-out's guard fails before the last step's."""
        w = np.triu(np.ones((dim, dim), dtype=np.int64), 1)
        w[0, 2] = -1
        w -= w.T
        return np.broadcast_to(w[None, :, None, :], (dim,) * 4).copy()

    @pytest.mark.parametrize("name, load", [("young-a", 2 + 4), ("hook-d", 2)])
    @pytest.mark.parametrize("side", ["under", "over", "over, reducible"])
    def test_the_guard_at_its_boundary(self, name, load, side):
        # The row on the curvature operand c · s + r, for the tight s and
        # a small r: g has content 1, and load · max|g| is just under
        # 2^62 (the read-out is int64) or just over it (it runs modulo
        # primes).  gbar cycles the indices 0, 1, 2; a symmetric one
        # would make every entry of hook-d's g even.  "Over, reducible"
        # hands the operand as c · s at scale 1/c, as the third
        # condition's sum test does: g as made has content c^2 and is
        # just over too, and once the read-out divides that out it is
        # int64.  No step's guard fails.  The load is the largest sum of
        # |weight| over an output entry: 2 + 4 for the derivative onto
        # degree 2 and 4-tuples, and for hook-d at N = 5 the two indices
        # outside a 3-tuple.
        dim = 5
        polar = integrability._polar(*ROWS[name])
        ((term, picks),) = polar.terms
        size = len(polar.anti) - polar.free
        move = (dim, len(polar.sym), len(polar.anti), polar.pivot, polar.free)
        assert _fastops._moves(*move).load == load
        gbar = (np.eye(dim, dtype=np.int64)[[1, 2, 0, 3, 4]], Fraction(1))
        s, r = self.tight_operand(dim), np.random.default_rng(0).integers(-1, 2, size=(dim,) * 4)

        def contract(curvature, move=None):
            # The result, its scale and the products, the last one last.
            operands = [(gbar, curvature)[k] for k in picks]
            memo: dict = {}
            values, scale = contract_terms([(1, term, operands)], memo, size, move)
            return values, scale, [node for node in memo.values() if node.source]

        def peak(curvature) -> int:
            # max|g| as its last step made it: no product was reduced.
            values, _, products = contract(curvature)
            assert values.dtype == np.int64 and all(node.loose for node in products)
            return int(np.abs(values).max())

        if side == "over, reducible":
            c = math.isqrt(NEAR_SAFE // (load * peak((s, Fraction(1)))))
            while load * peak((c * s, Fraction(1))) < NEAR_SAFE:
                c += 1
            curvature = (c * s, Fraction(1, c))
        else:
            at = lambda c: (c * s + r, Fraction(1))  # noqa: E731
            c = math.isqrt(NEAR_SAFE // (load * peak((s, Fraction(1)))))
            while load * peak(at(c)) >= NEAR_SAFE:
                c -= 1
            while load * peak(at(c + 1)) < NEAR_SAFE:
                c += 1
            curvature = at(c + (side == "over"))
            g, _, _ = contract(curvature)
            assert math.gcd(*g.ravel().tolist()) == 1
        bound = load * peak(curvature)
        assert (bound < NEAR_SAFE) == (side == "under")
        values, scale, (*_, last) = contract(curvature, move)
        assert isinstance(values, Residues) == (side == "over")
        assert last.loose == (side == "under")
        if side == "over":
            assert (values.bound, values.load) == (bound, max(2, load))
        expected = reference_components(name, gbar, curvature)
        assert any(expected)
        assert [scale * v for v in integers(values).ravel().tolist()] == expected

    @pytest.mark.parametrize("dim, zeros", [(4, 40), (5, 100)])
    def test_hook_d_components_vanish_exactly_on_the_empty_rows(self, dim, zeros):
        # Multiplying by x, the component at (alpha, I) adds up the
        # entries of g at I with an index v of alpha outside I added
        # (_polar): none when every index of alpha lies in I.  Those
        # components are zero for every input; on unstructured operands
        # all the others are not.
        polar = integrability._polar(*ROWS["hook-d"])
        moves = _fastops._moves(dim, len(polar.sym), len(polar.anti), polar.pivot, polar.free)
        empty = moves.weight[:, moves.variable].sum(axis=2) == 0
        monomials = itertools.combinations_with_replacement(range(dim), len(polar.sym))
        tuples = list(itertools.combinations(range(dim), len(polar.anti)))
        inside = np.array([[set(m) <= set(t) for t in tuples] for m in monomials])
        assert (empty == inside).all() and int(inside.sum()) == zeros
        gbar, curvature = unstructured(dim, seed=dim)
        values = reference_components("hook-d", gbar, curvature)
        assert engine_components("hook-d", gbar, curvature) == values
        assert ((np.array(values).reshape(inside.shape) == 0) == inside).all()


class TestArrangementSums:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("axes", [(2,), (0, 3), (3, 1, 4), (4, 0, 2, 1), (1, 2, 3, 4, 0)])
    def test_the_coset_sum_is_the_literal_sum(self, axes, sign):
        arr = np.random.default_rng(len(axes)).integers(-9, 10, size=(3,) * 5).astype(object)
        assert arrangement_sum(arr, axes, sign).tolist() == literal_arrangement_sum(arr, axes, sign).tolist()


class TestRowLayouts:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_two_final_groups_of_one_kind_are_refused(self, sign):
        # A residual holds one symmetric and one antisymmetric group, so a
        # row ending in two disjoint groups of one kind has no layout; it
        # is refused rather than read with its second group dropped.
        ops = ((sign, (0, 1)), (sign, (3, 4)))
        with pytest.raises(ValueError, match="two final groups of one kind"):
            integrability._polar((integrability._QUADRATIC,), ops)

    def test_every_row_compiles_to_one_group_of_each_kind(self):
        # Each compiled term names its operands by the factors' lengths,
        # and the layout covers every slot once.
        for name, (terms, ops) in ROWS.items():
            polar = integrability._polar(terms, ops)
            assert sorted(polar.slots) == list(range(polar.order)), name
            assert polar.free in (-1, 0, 1) and set(polar.sym).isdisjoint(polar.anti), name
            for term, picks in polar.terms:
                factors = term.split("->")[0].split(",")
                assert picks == tuple(int(len(f) == 4) for f in factors), name

    def test_a_row_with_a_free_group_compiles_to_one_term(self):
        # The shared slot is moved between the monomial and tuple axes
        # after the contraction (contract_terms' move), so the earlier operator adds
        # no term: one contraction, with x in one slot more or one less
        # than the final symmetric group holds.
        free = {name: integrability._polar(terms, ops) for name, (terms, ops) in ROWS.items()}
        free = {name: polar for name, polar in free.items() if polar.free}
        assert sorted(free) == sorted(
            ["young-a", "hook-d", "ks2-hook-yin", *(name for name, _, _ in integrability._HOOK_CHECKS)]
        )
        for name, polar in free.items():
            ((term, _),) = polar.terms
            polarised = term.split("->")[0].count("*")
            assert polarised == len(polar.sym) + polar.free, name
            assert len(term.split("->")[1]) == len(polar.anti) - polar.free, name
