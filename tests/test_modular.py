"""The modular residual route against a Python-int route kept here.

A residual whose int64 guards fail continues as residues modulo primes
(``_fastops.Residues``): its zero tests and supports are read from the
residues, and its tensor is rebuilt by Chinese remaindering.  Here every
row is also computed in Python integers (object arrays) with no modular
code and no polarisation, by the dense route of ``test_polarised``:
``np.einsum`` of each term, the literal sum over every arrangement of
the slots of an earlier operator, and signed orbit sums at the final
groups' canonical tuples, the free slots kept as index axes.  That route
shares no code with the compiled rows or with the engine's move
(``contract_terms``' ``move``), which reads a group of free slots off
one contraction.  Supports, ``condition1/2/3_residual`` tensors and
hook-check outcomes must agree, on Benenti inputs at entry bound 9,
random S, and sums of Kulkarni-Nomizu products whose integer images
cross 2^62 and 2^64.

Single polarised terms (``_fastops._term``) are checked against
``python_int_term``: each polarised factor multiplied pairwise along the
greedy path of its index letters by the product kernel ``_alternated``
with an empty group, on object arrays (which ``test_fastops`` checks
against Python polynomial multiplication).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alternating_sums, flat, sphere, wide_kn
from test_polarised import arrangement_sum, split_ops
from killingtensor import (
    ConditionForm1,
    ConditionForm2,
    MetricSignature,
    ModelKind,
    ModelSpace,
    Tensor,
    benenti_rep,
    check,
    condition1_residual,
    condition2_residual,
    condition3_residual,
    r_to_s,
    random_curvature,
    random_invertible_matrix,
    verify_identity_suite,
)
from killingtensor import _fastops, integrability
from killingtensor._fastops import Residues, integers, nonzero, polarise

NEAR_SAFE = 1 << 62


def python_ints(arr: np.ndarray) -> np.ndarray:
    return np.array(arr.ravel().tolist(), dtype=object).reshape(arr.shape)


def python_int_term(term: str, operands) -> np.ndarray:
    """A polarised einsum term in Python ints, monomial axis first."""
    inputs, output = term.split("->")
    dim = operands[0][0].shape[0]
    nodes = []
    for factor, (arr, _) in zip(inputs.split(","), operands):
        axes = [k for k, c in enumerate(factor) if c == "*"]
        nodes.append((polarise(python_ints(arr), axes), factor.replace("*", ""), len(axes)))
    shapes = [np.broadcast_to(0, (dim,) * len(names)) for _, names, _ in nodes]
    spec = ",".join(names for _, names, _ in nodes) + "->" + output
    for positions in np.einsum_path(spec, *shapes, optimize=("greedy", sys.maxsize))[0][1:]:
        (a, names_a, degree_a), (b, names_b, degree_b) = (nodes[k] for k in positions)
        nodes = [node for k, node in enumerate(nodes) if k not in positions]
        shared = [c for c in names_a if c in names_b]
        axes_a = tuple(names_a.index(c) + 1 for c in shared)
        axes_b = tuple(names_b.index(c) + 1 for c in shared)
        step = _fastops._compile(0, 1, a.ndim, b.ndim, (axes_a, axes_b, dim, degree_a, degree_b, (), ()))
        product = _fastops._alternated(a, b, step)
        assert product.dtype == object
        names = "".join(c for c in names_a + names_b if c not in shared)
        nodes.append((product, names, degree_a + degree_b))
    ((arr, names, _),) = nodes
    return arr.transpose([0] + [names.index(c) + 1 for c in output])


def times_x(values: np.ndarray, axis: int, dim: int) -> np.ndarray:
    """``values`` (monomial axis first) times one more ``x``, put into the
    index axis ``axis``: the coefficient of ``x^alpha`` adds up
    ``values[beta, v]`` over every ``beta`` and ``v`` with ``beta + e_v =
    alpha``, one monomial pair at a time."""
    values = np.moveaxis(values, axis, 1)
    degree = next(d for d in itertools.count() if math.comb(dim + d - 1, d) == len(values))
    monomials = functools.partial(itertools.combinations_with_replacement, range(dim))
    rank = {m: r for r, m in enumerate(monomials(degree + 1))}
    out = np.zeros((len(rank),) + values.shape[2:], dtype=object)
    for r, beta in enumerate(monomials(degree)):
        for v in range(dim):
            out[rank[tuple(sorted(beta + (v,)))]] += values[r, v]
    return out


def python_int_residual(terms, ops, gbar, curvature) -> integrability._Residual:
    """Canonical components of a row in Python ints, by the definition of
    its operators, as a residual whose free slots are dense.

    Only the final symmetric group's slots that no earlier operator acts
    on are polarised while the terms are contracted (``python_int_term``);
    every other slot stays an index axis.  An earlier operator is then
    the literal sum over every arrangement of its slots; a slot it shares
    with the final symmetric group joins the polynomial by
    ``times_x``; the final antisymmetric group is read by the signed sums
    of ``alternating_sums``.  The free slots stay index axes, in order.
    None of this reads the compiled row or the engine's move."""
    earlier, final = split_ops(ops)
    sym, anti = (tuple(sorted(sum((axes for sign, axes in final if sign == kind), ()))) for kind in (1, -1))
    touched = set(sum((axes for _, axes in earlier), ()))
    order, dim = len(terms[0].split("->")[1]), gbar[0].shape[0]
    index = [axis for axis in range(order) if axis not in sym or axis in touched]
    total, scales = 0, set()
    for term in terms:
        inputs, output = term.split("->")
        stars = {output[axis] for axis in sym if axis not in touched}
        factors = inputs.split(",")
        operands = [(gbar, curvature)[len(f) == 4] for f in factors]
        scales.add(math.prod(scale for _, scale in operands))
        polarised = "".join("*" if c in stars else c for c in inputs)
        total = total + python_int_term(polarised + "->" + "".join(output[a] for a in index), operands)
    for sign, axes in earlier:
        total = arrangement_sum(total, [1 + index.index(axis) for axis in axes], sign)
    for axis in [axis for axis in sym if axis in touched]:
        total = times_x(total, 1 + index.index(axis), dim)
        index.remove(axis)
    total = alternating_sums(np.moveaxis(total, [1 + index.index(a) for a in anti], range(1, 1 + len(anti))), len(anti))
    layout = integrability._Polar((), sym, anti, free=0, pivot=0, order=order, longest_anti=len(anti))
    (scale,) = scales
    return integrability._Residual(total.reshape(-1), scale, dim, layout)


def signed_operands(dim: int, size: int, slots: tuple[int, ...], c: int):
    """A term ``"<group in a>p,p<group in b>->group"`` and operands with
    entries of magnitude ``c`` (first factor) and 1, signed so that at
    every rearrangement ``J`` of the tuple ``(0, .., size - 1)``
    ``sign(J) · a[J_a, p] · b[p, J_b] = c``: the alternated sum there
    attains its bound ``size! · dim · c``."""
    group = "abcde"[:size]
    mine = "".join(group[s] for s in slots)
    theirs = "".join(g for g in group if g not in mine)
    a = np.full((dim,) * (len(mine) + 1), c, dtype=np.int64)
    b = np.ones((dim,) * (len(theirs) + 1), dtype=np.int64)

    def sign(values) -> int:
        return (-1) ** sum(i > j for i, j in itertools.combinations(values, 2))

    for order in itertools.permutations(range(size)):
        part_a = tuple(order[s] for s in slots)
        part_b = tuple(v for s, v in enumerate(order) if s not in slots)
        # sign(J) · sign(J_b) depends on J_a alone.
        a[part_a] = c * sign(order) * sign(part_b)
        b[(slice(None),) + part_b] = sign(part_b)
    return f"{mine}p,p{theirs}->{group}", (a, b)


def image(tensor: Tensor):
    return tensor._ints, tensor._scale


def models(dim: int) -> list[ModelSpace]:
    return [sphere(dim), ModelSpace(ModelKind.SPHERE, MetricSignature(dim - 1, 1)), flat(dim)]


def draw_input(kind: str, dim: int, model: ModelSpace, seed: int):
    rng = random.Random(seed)
    if kind == "benenti":
        return benenti_rep(model, random_invertible_matrix(dim, rng, bound=9))
    if kind == "random":
        return random_curvature(dim, rng, bound=9)
    return wide_kn(dim, rng, {"kn-31": 31, "kn-32": 32}[kind])


KINDS = ["benenti", "random", "kn-31", "kn-32"]


class TestAgainstPythonInts:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([3, 4, 5]),
        kind=st.sampled_from(KINDS),
        model_index=st.integers(0, 2),
        seed=st.integers(0, 10**6),
        forms=st.tuples(st.sampled_from(list(ConditionForm1)), st.sampled_from(list(ConditionForm2))),
    )
    def test_supports_and_residual_tensors(self, dim, kind, model_index, seed, forms):
        model = models(dim)[model_index]
        form1, form2 = forms
        if form1 is ConditionForm1.OMEGA and model.is_flat:
            form1 = ConditionForm1.MAIN1
        K = draw_input(kind, dim, model, seed)
        g = image(model.gbar())
        expected = []
        for row, residual in (
            (integrability._COND1_FORMS[form1], condition1_residual),
            (integrability._COND2_FORMS[form2], condition2_residual),
        ):
            cls, terms, ops = row
            reference = python_int_residual(terms, ops, g, image(integrability._as_class(K, cls).tensor))
            expected.append(int(np.count_nonzero(reference.contracted)))
            assert residual(K, model, (form1 if residual is condition1_residual else form2)) == reference.tensor()
        report = check(K, model, form1, form2)
        assert (report.cond1_support, report.cond2_support) == tuple(expected)
        assert report.integrable == (expected == [0, 0])

    @settings(max_examples=15, deadline=None)
    @given(
        dim=st.sampled_from([3, 4]),
        kind=st.sampled_from(KINDS),
        model_index=st.integers(0, 2),
        seed=st.integers(0, 10**6),
    )
    def test_third_condition(self, dim, kind, model_index, seed):
        model = models(dim)[model_index]
        K = draw_input(kind, dim, model, seed)
        _, terms, ops = integrability._COND3_FORM
        reference = python_int_residual(terms, ops, image(model.gbar()), image(r_to_s(K).tensor))
        assert condition3_residual(K, model) == reference.tensor()

    @settings(max_examples=15, deadline=None)
    @given(
        dim=st.sampled_from([3, 4, 5]),
        kind=st.sampled_from(KINDS),
        model_index=st.integers(0, 2),
        seed=st.integers(0, 10**6),
    )
    def test_identity_suite(self, dim, kind, model_index, seed):
        # Every hook residual of a valid S is zero by both routes, and the
        # suite passes.
        model = models(dim)[model_index]
        S = r_to_s(draw_input(kind, dim, model, seed))
        g, s = image(model.gbar()), image(S.tensor)
        checks = integrability._HOOK_CHECKS if dim < 5 else integrability._HOOK_CHECKS[:3]
        for name, term, ops in checks:
            reference = python_int_residual((term,), ops, g, s)
            engine = integrability._residual(integrability._polar((term,), ops), g, s, {})
            assert engine.is_zero() and not np.count_nonzero(reference.contracted), name
        assert verify_identity_suite(S, model) == integrability._IDENTITY_CHECKS

    @pytest.mark.parametrize("bits", [3, 20, 31, 40])
    def test_hook_rows_on_unstructured_operands(self, bits):
        # A non-symmetric operand leaves nonzero residuals in every row
        # with a group of free slots, symmetric or antisymmetric: the zero
        # test must find them, and the support and components must match
        # the dense free slots of the reference, on int64 (all rows at 3
        # bits) and on residues modulo primes (all rows at 40 bits).
        rng = np.random.default_rng(bits)
        k = (rng.integers(-(1 << bits), (1 << bits) + 1, size=(4,) * 4), Fraction(1, 3))
        g = (rng.integers(-3, 4, size=(4, 4)), Fraction(2))
        routes = set()  # (symmetric free group, modular)
        for terms, ops in FREE_GROUP_ROWS:
            reference = python_int_residual(terms, ops, g, k)
            polar = integrability._polar(terms, ops)
            engine = integrability._residual(polar, g, k, {})
            assert engine.is_zero() == (not np.count_nonzero(reference.contracted)), ops
            assert engine.support() == np.count_nonzero(reference.contracted), ops
            assert engine.tensor() == reference.tensor(), ops
            routes.add((polar.free > 0, isinstance(engine.contracted, Residues)))
        if bits in (3, 40):
            assert routes == {(True, bits == 40), (False, bits == 40)}

    def test_wide_hook_checks_reduce_no_zero_node(self, monkeypatch):
        # At 20 bits every hook check goes modular while the curvature
        # factors stay int64, so a zero factor would be known by its bound
        # 0 and end its branch: no step multiplies an all-zero operand, in
        # int64 or modulo a prime, and no zero node is reduced.
        bounds, operands = [], []
        residue, alternated = _fastops._residue, _fastops._alternated

        def watched_residue(node, p, cache):
            bounds.append(node.bound)
            return residue(node, p, cache)

        def watched_alternated(a, b, *args):
            operands.append(a.any() and b.any())
            return alternated(a, b, *args)

        monkeypatch.setattr(_fastops, "_residue", watched_residue)
        monkeypatch.setattr(_fastops, "_alternated", watched_alternated)
        S = r_to_s(wide_kn(4, random.Random(20), 20))
        g, s = image(sphere(4).gbar()), image(S.tensor)
        for _, term, ops in integrability._HOOK_CHECKS:
            residual = integrability._residual(integrability._polar((term,), ops), g, s, {})
            assert isinstance(residual.contracted, Residues) and residual.is_zero()
        assert verify_identity_suite(S, sphere(4)) == integrability._IDENTITY_CHECKS
        assert bounds and all(bounds)
        assert operands and all(operands)


# Rows whose final group absorbs the free slots: those slots are one more
# group of the residual.
FREE_GROUP_ROWS = [
    (terms, ops)
    for _, terms, ops in [*integrability._COND1_FORMS.values(), *integrability._COND2_FORMS.values()]
    + [(None, (term,), ops) for _, term, ops in integrability._HOOK_CHECKS]
    if integrability._polar(terms, ops).free
]


class TestZeroBeforeTheRebuild:
    @settings(max_examples=60, deadline=None)
    @given(
        row=st.sampled_from(FREE_GROUP_ROWS),
        dim=st.sampled_from([4, 5]),
        nonzeros=st.integers(0, 3),
        modular=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_random_components(self, row, dim, nonzeros, modular, seed):
        # is_zero() reads the canonical components, support() counts them
        # at every index tuple of the free group: on a few random nonzero
        # values, or none, both agree.
        polar = integrability._polar(*row)
        S = r_to_s(random_curvature(dim, random.Random(seed), bound=3))
        engine = integrability._residual(polar, image(sphere(dim).gbar()), image(S.tensor), {})
        rng = np.random.default_rng(seed)
        values = np.zeros(engine.contracted.shape, dtype=np.int64)
        values.flat[rng.integers(0, values.size, size=nonzeros)] = rng.integers(1, 1 << 40, size=nonzeros)
        contracted = Residues(int(np.abs(values).max()), 1, lambda p, cache: values % p) if modular else values
        residual = integrability._Residual(contracted, Fraction(1), dim, polar)
        assert residual.is_zero() == (residual.support() == 0) == (not values.any())

    @pytest.mark.parametrize("bits", [3, 40])
    @pytest.mark.parametrize("valid", [True, False])
    def test_engine_residuals(self, bits, valid):
        # Hook residuals of a valid S are zero and those of an unstructured
        # operand are not; on int64 (3-bit entries) and on residues
        # (entries near 2^40, and products far past 2^62).
        dim = 4
        rng = np.random.default_rng(bits)
        if valid:
            k = image(r_to_s(wide_kn(dim, random.Random(bits), bits)).tensor)
        else:
            k = (rng.integers(-(1 << bits), (1 << bits) + 1, size=(dim,) * 4), Fraction(1))
        g = image(sphere(dim).gbar())
        memo: dict = {}
        for terms, ops in FREE_GROUP_ROWS:
            residual = integrability._residual(integrability._polar(terms, ops), g, k, memo)
            assert isinstance(residual.contracted, Residues) == (bits > 3)
            assert residual.is_zero() == (residual.support() == 0)
            if valid and (terms, ops) in [((term,), ops) for _, term, ops in integrability._HOOK_CHECKS]:
                assert residual.is_zero()
            if not valid:
                assert not residual.is_zero()


class TestModularRoute:
    def test_wide_inputs_take_the_modular_route(self):
        # Benenti inputs at bound 9 pass the int64 guards at N = 5 only on
        # the first steps; entries near 2^65 fail the first polarisation.
        model = sphere(5)
        for K in (
            benenti_rep(model, random_invertible_matrix(5, random.Random(3), bound=9)),
            wide_kn(5, random.Random(4), 32),
        ):
            res1, res2 = integrability._evaluate(
                K, model, integrability._COND1_FORMS[ConditionForm1.MAIN1],
                integrability._COND2_FORMS[ConditionForm2.MAIN2],
            )
            assert isinstance(res2.contracted, Residues)
            assert res2.contracted.bound >= NEAR_SAFE

    @pytest.mark.parametrize("term", ["ab*,bc,c*->a", "p*ab,pq,q*cd->abcd", "ab,bc,ca->", "a*,b*,ab->"])
    def test_bounds_are_attained_by_constant_operands(self, term):
        # Operands filled with 2^62 go modular from the first polarisation,
        # and every coefficient of the largest monomial sums pairs · volume
        # equal products, so each step's bound is an equality.
        operands = [
            (np.full((3,) * len(factor), 1 << 62, dtype=object), Fraction(1))
            for factor in term.split("->")[0].split(",")
        ]
        values, _, _ = _fastops._read(*_fastops._term(term, operands, {}))
        assert isinstance(values, Residues)
        exact = integers(values)
        assert exact.tolist() == python_int_term(term, operands).tolist()
        assert max(abs(v) for v in exact.ravel().tolist()) == values.bound

    @pytest.mark.parametrize("size, slots", [(2, (0, 1)), (2, ()), (3, (0, 2)), (4, (1, 2)), (4, (0, 1, 2, 3))])
    @pytest.mark.parametrize("side", ["below", "at", "past 2^63"])
    def test_alternated_bounds_are_attained(self, size, slots, side):
        # Every product of the alternated sum at the tuple (0, .., size - 1)
        # adds c · d with one sign, so that entry equals the guard's bound
        # size! · volume · c · d: just below 2^62 the step stays int64, from
        # 2^62 on it goes modular with that bound.
        dim = 4
        arrangements = math.factorial(size) * dim
        below = (NEAR_SAFE - 1) // arrangements
        c = {"below": below, "at": below + 1, "past 2^63": (1 << 63) // arrangements + 1}[side]
        term, (a, b) = signed_operands(dim, size, slots, c)
        operands = [(a, Fraction(1)), (b, Fraction(1))]
        values, scale, bound = _fastops._read(*_fastops._term(term, operands, {}, size))
        peak = arrangements * c
        assert isinstance(values, Residues) == (side != "below")
        # bound · scale is the largest value.
        assert bound * scale == peak
        exact = integers(values) * scale
        assert exact.tolist() == alternating_sums(python_int_term(term, operands), size).tolist()
        assert exact[0, 0] == peak

    @pytest.mark.parametrize("size, slots, dim", [(4, (0, 1, 2, 3), 4), (4, (), 4), (5, (1, 3), 5)])
    def test_the_load_counts_the_rearrangements(self, size, slots, dim):
        # Residues p - 1 where an operand is positive and 0 where it is
        # negative: each entry of the kernel's sum modulo p then adds up
        # every product that adds c · d, each near p².  At the largest
        # prime the plan's load allows, the sum must not wrap.
        term, (a, b) = signed_operands(dim, size, slots, 1)
        plan = _fastops._contraction_plan(term, dim, size)
        assert plan.load == math.factorial(size) * dim
        p = next(Residues(0, plan.load, None).primes(0))
        operands = [(np.where(arr > 0, p - 1, 0), Fraction(1)) for arr in (a, b)]
        memo: dict = {}
        _fastops._term(term, operands, memo, size)
        (step,) = [node for node in memo.values() if len(node.source) > 2]
        first, second = (node.arr for node in step.source[:2])
        # The alternated step modulo p, as _residue runs it.
        result = _fastops._alternated(first, second, step.source[2]) % p
        expected = alternating_sums(python_int_term(term, operands), size) % p
        assert result.tolist() == expected.tolist()

    def test_a_promoting_check_builds_no_object_array(self, monkeypatch):
        # Every function of the engine module, as integrability calls it
        # too, sees and returns only int64 arrays (and boolean masks).
        seen = []

        def watch(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                values = [*args, *kwargs.values(), *(result if isinstance(result, tuple) else (result,))]
                seen.extend(v.dtype for v in values if isinstance(v, np.ndarray))
                return result

            return wrapper

        for name, value in list(vars(_fastops).items()):
            if callable(value) and getattr(value, "__module__", None) == _fastops.__name__ and not isinstance(value, type):
                monkeypatch.setattr(_fastops, name, watch(value))
        for name in ("expand_axis", "weigh_monomials", "contract_terms", "nonzero"):
            monkeypatch.setattr(integrability, name, watch(getattr(integrability, name)))
        rng = random.Random(5)
        model = sphere(5)
        K = benenti_rep(model, random_invertible_matrix(5, rng, bound=9))
        assert K.tensor._ints.dtype == np.int64
        report = check(K, model)
        assert report.integrable
        assert np.dtype(object) not in seen
        assert len(seen) > 100

    def test_nonzero_stops_once_decided(self):
        calls = []

        def residue(p, cache):
            calls.append(p)
            return np.array([0, 1, p % 2], dtype=np.int64)

        values = Residues(1 << 200, 2, residue)
        assert nonzero(values, np.any).tolist() == [False, True, True]
        assert len(calls) == 1
        assert nonzero(values).tolist() == [False, True, True]
        assert len(calls) == 1 + len(list(values.primes(values.bound)))


class TestReductionOnDemand:
    """A product keeps the integers its step made, and its content is
    divided out only where a guard fails on it (``_fastops._step``): the
    guard is then read again on the reduced operands, and only a guard
    that still fails goes modular.  A polarised factor is never reduced.
    The sum of a residual's terms does the same with its terms."""

    @staticmethod
    def assert_factors_as_given(memo, operands):
        # Every polarised factor in the memo holds its operand's image as
        # polarised, at its operand's scale: none was content-reduced.
        given = {id(arr): (arr, scale) for arr, scale in operands}
        factors = [(key, node) for key, node in memo.items() if not node.source]
        assert factors
        for (arr_id, _, axes), node in factors:
            arr, scale = given[arr_id]
            assert node.scale == (scale.numerator, scale.denominator)
            assert node.bound == max(abs(v) for v in polarise(python_ints(arr), axes).ravel().tolist())

    @pytest.mark.parametrize("side", ["under", "over"])
    def test_a_step_reduces_its_product_operand(self, side):
        # "ab,bc,cd->ad" multiplies c · a (at scale 1/c) by b into a
        # product P with content c, then the factor c · z (at 1/c) by P,
        # each entry adding up 3 products.  On P as made, that guard reads
        # 3 · c · max|ab| · c · max|z| >= 2^62; reducing P divides it by c.
        # Under: c is the least that puts it over, and once P is reduced
        # the step stays int64.  Over: c is the least that keeps it over
        # after P is reduced, and the step goes modular with the reduced
        # P's bound; reducing the factor too would take it under.
        rng = np.random.default_rng(8)
        a, b, z = (rng.integers(-9, 10, size=(3, 3)) for _ in range(3))
        ab = python_ints(a) @ python_ints(b)
        assert math.gcd(*ab.ravel().tolist()) == 1
        reduced = 3 * max(abs(v) for v in ab.ravel().tolist()) * int(np.abs(z).max())
        least = -(-NEAR_SAFE // reduced)
        c = math.isqrt(least - 1) + 1 if side == "under" else least
        assert c * c * reduced >= NEAR_SAFE and (c * reduced < NEAR_SAFE) == (side == "under")
        operands = [(c * a, Fraction(1, c)), (b, Fraction(1)), (c * z, Fraction(1, c))]
        memo: dict = {}
        values, scale = _fastops.contract_terms([(1, "ab,bc,cd->ad", operands)], memo)
        assert isinstance(values, Residues) == (side == "over")
        if side == "over":
            assert values.bound == c * reduced
        expected = (ab @ python_ints(z)).reshape(1, 3, 3)
        assert (integers(values) * scale).tolist() == expected.tolist()
        self.assert_factors_as_given(memo, operands)

    def test_the_third_condition_sum_reduces_its_terms(self):
        # condition3's two compiled terms at N = 3, each handed the same
        # unstructured 4-tensor s as another integer image: 4097 · s at
        # scale 1/4097 in the first term and 687 · s at 1/687 in the
        # second.  As their last steps made them, the terms carry coprime
        # contents, their common scale splits them into large integer
        # multiples, and the sum's guard reads just over 2^62 (within 1 %).
        # With each term's content divided out it reads below, and the sum
        # stays int64.  A step of the first term fails on a loose product
        # times the factor 4097 · s and passes once the product is
        # reduced; the factor keeps its image.
        dim = 3
        s = np.random.default_rng(3).integers(-3, 4, size=(dim,) * 4)
        g = sphere(dim).gbar()
        gbar = (g._ints, g._scale)
        images = [(4097 * s, Fraction(1, 4097)), (687 * s, Fraction(1, 687))]
        polar = integrability._polar(*integrability._COND3_FORM[1:])
        size = len(polar.anti) - polar.free
        terms = [(1, term, [(gbar, image)[k] for k in picks]) for (term, picks), image in zip(polar.terms, images)]
        memo: dict = {}

        def guard() -> int:
            # The sum's guard on the terms' last nodes as they stand.
            reads = [_fastops._read(*_fastops._term(term, operands, memo, size)) for _, term, operands in terms]
            multiples, _ = _fastops.integer_multiples([scale for _, scale, _ in reads])
            return sum(abs(k) * bound for k, (_, _, bound) in zip(multiples, reads))

        assert NEAR_SAFE <= guard() < NEAR_SAFE * 101 // 100
        values, scale = _fastops.contract_terms(terms, memo, size)
        assert isinstance(values, np.ndarray) and values.dtype == np.int64
        assert guard() < NEAR_SAFE
        expected = sum(
            alternating_sums(python_int_term(term, [(gbar, (s, Fraction(1)))[k] for k in picks]), size)
            for term, picks in polar.terms
        )
        assert expected.any()
        assert (integers(values) * scale).tolist() == (expected * g._scale**3).tolist()
        self.assert_factors_as_given(memo, [gbar, *images])

    def test_weighing_past_its_guard_is_exact(self):
        # The degree-3 monomials in 2 variables weigh 3! = 6 at most, so
        # components with max just under 2^62 / 6 are weighed in int64,
        # and twice those (content 2) in Python ints: weighing divides
        # nothing out.
        m = NEAR_SAFE // 6 - 1
        u = np.array([[m], [1], [-1], [-m]], dtype=np.int64)
        for values, dtype in ((u, np.int64), (2 * u, object)):
            weighed = _fastops.weigh_monomials(values, 2, 3)
            assert weighed.dtype == dtype
            assert weighed.ravel().tolist() == [v * w for v, w in zip(values.ravel().tolist(), [6, 2, 2, 6])]

    def test_a_residual_tensor_is_its_canonical_int64_image(self):
        # split-b at N = 3: symmetric over (1, 2, 4), antisymmetric over
        # (0, 3, 5), whose one increasing tuple (0, 1, 2) holds every
        # component.  The components 2 · u weigh past int64, but their
        # content 2 comes out of the dense residual, which fits in int64:
        # the tensor is that canonical int64 image, sign(J) · alpha! ·
        # scale · value at each index tuple J.
        dim = 3
        polar = integrability._polar(*integrability._COND1_FORMS[ConditionForm1.SPLIT_B][1:])
        monomials = list(itertools.combinations_with_replacement(range(dim), 3))
        u = np.arange(len(monomials)) - 3  # 1 at x0 x1 x2, of weight 1
        u[0] = NEAR_SAFE // 6 - 1  # at x0^3, of weight 6
        values, scale = 2 * u.reshape(polar.shape(dim)), Fraction(1, 3)
        assert 6 * int(np.abs(values).max()) >= NEAR_SAFE
        tensor = integrability._Residual(values, scale, dim, polar).tensor()
        assert tensor._ints.dtype == np.int64
        assert math.gcd(*tensor._ints.ravel().tolist()) == 1
        for J in itertools.product(range(dim), repeat=6):
            alpha = tuple(sorted(J[a] for a in polar.sym))
            weight = math.prod(math.factorial(alpha.count(v)) for v in set(alpha))
            anti = [J[a] for a in polar.anti]
            inversions = sum(x > y for x, y in itertools.combinations(anti, 2))
            sign = (-1) ** inversions if len(set(anti)) == 3 else 0
            assert tensor[J] == sign * weight * scale * values[monomials.index(alpha), 0]


class TestPrimes:
    @pytest.mark.parametrize("load", [1, 2, 24, 130, 1 << 20])
    def test_prime_count_next_to_prime_products(self, load):
        values = Residues(0, load, lambda p, cache: np.zeros(1, dtype=np.int64))
        primes = list(values.primes(1 << 400))
        limit = 1 << ((62 - load.bit_length()) // 2)
        assert primes == sorted(primes, reverse=True) and len(set(primes)) == len(primes)
        assert all(load * p * p < NEAR_SAFE and p < limit for p in primes)
        for k in range(1, 6):
            product = math.prod(primes[:k])
            # The count is the fewest primes whose product exceeds the bound.
            assert len(list(values.primes(product - 1))) == k
            assert len(list(values.primes(product))) == k + 1
            assert len(list(values.primes(product + 1))) == k + 1
        assert len(list(values.primes(0))) == 1

    def test_primes_below_a_limit(self):
        def trial_division(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in (100, 1000, 65536, 1 << 20):
            expected = max(m for m in range(n - 200, n) if trial_division(m))
            assert _fastops._prime_below(n) == expected
        for n in list(range(63, 3000, 2)) + list(range((1 << 31) - 400, (1 << 31) - 1, 2)):
            assert _fastops._is_prime(n) == trial_division(n), n
        # Strong pseudoprimes to some of the bases.
        for n in (2047, 3215031751, 1373653, 25326001):
            assert not _fastops._is_prime(n)


class TestChineseRemaindering:
    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.integers(-(1 << 200), 1 << 200)
            | st.sampled_from([0, 1, -1, NEAR_SAFE - 1, NEAR_SAFE, -NEAR_SAFE, 1 << 64, -(1 << 64) - 1]),
            min_size=1,
            max_size=12,
        ),
        load=st.sampled_from([2, 24, 5040]),
    )
    def test_rebuilds_the_integers(self, entries, load):
        arr = np.array(entries, dtype=object)
        bound = max(abs(v) for v in entries)
        values = Residues(bound, load, lambda p, cache: np.asarray(arr % p, dtype=np.int64))
        rebuilt = integers(values)
        assert rebuilt.tolist() == entries
        assert (rebuilt.dtype == object) == (bound >= NEAR_SAFE)
        assert nonzero(values).tolist() == [v != 0 for v in entries]

    def test_an_entry_divisible_by_all_primes_but_one(self):
        # x is zero modulo every prime but the first: nonzero, and only the
        # first prime shows it.
        arr = np.array([0, 5], dtype=object)
        probe = Residues(1 << 120, 24, lambda p, cache: arr % p)
        primes = list(probe.primes(probe.bound))
        for skipped in range(len(primes)):
            x = math.prod(q for k, q in enumerate(primes) if k != skipped)
            arr = np.array([x, 0, -x], dtype=object)
            values = Residues(x, 24, lambda p, cache, arr=arr: np.asarray(arr % p, dtype=np.int64))
            assert nonzero(values).tolist() == [True, False, True]
            assert integers(values).tolist() == [x, 0, -x]

    def test_exact_arrays_pass_through(self):
        arr = np.array([3, 0, -2], dtype=np.int64)
        assert integers(arr) is arr
        assert nonzero(arr).tolist() == [True, False, True]
