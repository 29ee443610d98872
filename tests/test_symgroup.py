"""Symmetric group algebra, Young machinery, Littlewood-Richardson rule."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingtensor import (
    GroupAlgebraElement,
    InvalidArgument,
    Permutation,
    Tensor,
    YoungFrame,
    YoungTableau,
    lr_decompose,
    partitions,
    young_symmetriser,
)


def random_tensor(rng: random.Random, dim: int, order: int) -> Tensor:
    arr = np.empty((dim,) * order, dtype=object)
    for idx in np.ndindex(arr.shape):
        arr[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Tensor(arr, dim=dim)


def applied_on_fractions(element: GroupAlgebraElement, tensor: Tensor, slot_of_label) -> np.ndarray:
    """``element.apply(tensor, slot_of_label)`` by its formula, entry by
    entry on Fractions: each term π reads ``tensor`` at ``I ∘ σ``, with
    ``σ(m(l)) = m(π(l))`` on the mapped slots and fixed elsewhere."""
    m = slot_of_label or {label: label for label in range(1, element.degree + 1)}
    sigmas = []
    for perm, coeff in element.terms.items():
        sigma = list(range(1, tensor.order + 1))
        for label in range(1, element.degree + 1):
            sigma[m[label] - 1] = m[perm(label)]
        sigmas.append((coeff, sigma))
    A = tensor.array
    out = np.empty(A.shape, dtype=object)
    for idx in np.ndindex(A.shape):
        out[idx] = sum((c * A[tuple(idx[k - 1] for k in sigma)] for c, sigma in sigmas), Fraction(0))
    return out


class TestPermutation:
    def test_right_factor_acts_first(self):
        a = Permutation.from_cycles(3, [(1, 2)])
        b = Permutation.from_cycles(3, [(2, 3)])
        # (a o b)(2) = a(b(2)) = a(3) = 3
        assert a.compose(b)(2) == 3
        assert a.compose(b) == Permutation.from_cycles(3, [(1, 2, 3)])

    def test_inverse_and_sign(self):
        p = Permutation.from_cycles(4, [(1, 2, 3)])
        assert p.compose(p.inverse()).is_identity()
        assert p.sign() == 1
        assert Permutation.from_cycles(4, [(1, 2)]).sign() == -1
        assert Permutation.from_cycles(4, [(1, 2), (3, 4)]).sign() == 1

    def test_cycles_round_trip(self):
        p = Permutation((2, 1, 4, 5, 3))
        assert p.cycles() == ((1, 2), (3, 4, 5))
        assert Permutation.from_cycles(5, p.cycles()) == p

    def test_invalid_images(self):
        with pytest.raises(InvalidArgument):
            Permutation((1, 1, 3))

    def test_overlapping_cycles_rejected(self):
        with pytest.raises(InvalidArgument):
            Permutation.from_cycles(3, [(1, 2), (2, 3)])


class TestGroupAlgebra:
    def test_unit_is_neutral(self):
        e = GroupAlgebraElement.unit(3)
        x = GroupAlgebraElement.antisymmetriser_over((1, 2, 3), 3)
        assert e.multiply(x) == x
        assert x.multiply(e) == x

    def test_product_matches_sequential_application(self):
        rng = random.Random(4)
        t = random_tensor(rng, 2, 4)
        a = GroupAlgebraElement.symmetriser_over((1, 2, 3), 4)
        b = GroupAlgebraElement.antisymmetriser_over((2, 4), 4)
        assert a.multiply(b).apply(t) == a.apply(b.apply(t))
        assert b.multiply(a).apply(t) == b.apply(a.apply(t))

    def test_adjoint_reverses_products(self):
        a = GroupAlgebraElement.symmetriser_over((1, 2), 3)
        b = GroupAlgebraElement.from_permutation(
            Permutation.from_cycles(3, [(1, 2, 3)]), Fraction(2, 3)
        )
        assert a.multiply(b).adjoint() == b.adjoint().multiply(a.adjoint())

    def test_symmetrisers_are_self_adjoint(self):
        for labels in ((1, 2), (1, 2, 3)):
            s = GroupAlgebraElement.symmetriser_over(labels, 3)
            assert s.adjoint() == s
            a = GroupAlgebraElement.antisymmetriser_over(labels, 3)
            assert a.adjoint() == a

    def test_apply_with_slot_map(self):
        rng = random.Random(6)
        t = random_tensor(rng, 2, 3)
        swap12 = GroupAlgebraElement.from_permutation(
            Permutation.from_cycles(2, [(1, 2)])
        )
        # Labels 1, 2 live on slots 3, 1; slot 2 is untouched.
        out = swap12.apply(t, slot_of_label={1: 3, 2: 1})
        manual = Tensor(t.array.transpose(2, 1, 0), dim=2)
        assert out == manual

    def test_apply_builds_its_table_per_order_and_slot_map(self):
        # One element applied to an order-6 tensor, then to order-8 tensors
        # under the default and two other slot maps, and each again: the
        # table kept from the last call is used only for the same order and
        # map.
        rng = random.Random(7)
        element = young_symmetriser([[1, 2], [3]]) * Fraction(2, 3) + GroupAlgebraElement.from_permutation(
            Permutation.from_cycles(3, [(1, 2, 3)]), -5
        )
        calls = [
            (random_tensor(rng, 2, 6), None),
            (random_tensor(rng, 2, 8), None),
            (random_tensor(rng, 2, 8), {1: 8, 2: 2, 3: 5}),
            (random_tensor(rng, 2, 8), {1: 3, 2: 7, 3: 1}),
        ]
        for tensor, slot_map in calls + calls[::-1]:
            expected = applied_on_fractions(element, tensor, slot_map)
            assert element.apply(tensor, slot_map).array.tolist() == expected.tolist()
            assert element._applied[0] == (tensor.order, tuple((slot_map or {1: 1, 2: 2, 3: 3}).values()))

    def test_derived_elements_build_their_own_table(self):
        rng = random.Random(9)
        t = random_tensor(rng, 2, 4)
        a = GroupAlgebraElement.from_permutation(Permutation.from_cycles(4, [(1, 2, 3)]), Fraction(3, 2))
        b = GroupAlgebraElement.antisymmetriser_over((2, 4), 4)
        a.apply(t)
        b.apply(t)
        for derived in (a.multiply(b), b.multiply(a), a + b, a.adjoint()):
            assert derived._applied is None
            assert derived.apply(t).array.tolist() == applied_on_fractions(derived, t, None).tolist()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_linearity_of_apply(self, seed):
        rng = random.Random(seed)
        t = random_tensor(rng, 2, 3)
        u = random_tensor(rng, 2, 3)
        x = GroupAlgebraElement.antisymmetriser_over((1, 3), 3)
        assert x.apply(t + u) == x.apply(t) + x.apply(u)


def reference_multiply(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """The convolution product by definition: Fraction coefficients, and
    each composite built through the validating constructor."""
    product: dict[Permutation, Fraction] = {}
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            key = Permutation([p(q(k)) for k in range(1, a.degree + 1)])
            product[key] = product.get(key, Fraction(0)) + cp * cq
    return GroupAlgebraElement(a.degree, product)


def reference_young_symmetriser(rows) -> GroupAlgebraElement:
    tableau = YoungTableau(rows)
    element = GroupAlgebraElement.unit(tableau.size)
    for row in tableau.rows:
        element = reference_multiply(element, GroupAlgebraElement.symmetriser_over(row, tableau.size))
    for col in tableau.columns:
        element = reference_multiply(element, GroupAlgebraElement.antisymmetriser_over(col, tableau.size))
    return element


class TestIntegerProduct:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        degree=st.integers(1, 4),
        coefficient=st.fractions(min_value=-30, max_value=30, max_denominator=12),
    )
    def test_matches_the_fraction_product(self, data, degree, coefficient):
        perms = st.permutations(range(1, degree + 1)).map(Permutation)

        def element():
            terms = data.draw(st.dictionaries(perms, st.just(coefficient) | st.fractions(max_denominator=9), max_size=6))
            return GroupAlgebraElement(degree, terms)

        a, b = element(), element()
        product = a.multiply(b)
        assert product == reference_multiply(a, b)
        assert all(c != 0 for c in product.terms.values())

    def test_cancelling_terms_are_dropped(self):
        swap = Permutation.from_cycles(2, [(1, 2)])
        a = GroupAlgebraElement(2, {swap: Fraction(1, 2), Permutation.identity(2): Fraction(1, 2)})
        b = GroupAlgebraElement(2, {swap: 1, Permutation.identity(2): -1})
        assert a.multiply(b).is_zero()

    def test_projector_sum_matches_the_fraction_route(self):
        # The element behind the identity suite's projector decomposition.
        from killingtensor.integrability import _projector_sum

        t1 = reference_young_symmetriser([[3, 2, 5], [4], [6], [1]])
        t2 = reference_young_symmetriser([[4, 3, 2, 5], [6], [1]])
        expected = reference_multiply(t1, t1.adjoint()) + reference_multiply(t2.adjoint(), t2)
        assert _projector_sum() == expected
        assert young_symmetriser([[3, 2, 5], [4], [6], [1]]) == t1

    def test_projector_sum_is_the_scaled_operator_product(self):
        # The identity suite's projector decomposition, for every N and
        # every tensor: 288 Anti(c2, d2, a2) Sym(b2, b1, d1) = t1 t1* + t2* t2
        # in the group algebra of S_6, labels (a2, b1, b2, c2, d1, d2).
        from killingtensor.integrability import _projector_sum

        anti = GroupAlgebraElement.antisymmetriser_over([4, 6, 1], 6)
        sym = GroupAlgebraElement.symmetriser_over([3, 2, 5], 6)
        product = anti.multiply(sym) * 288
        assert product.terms == _projector_sum().terms
        assert product.term_count() == 36


class TestYoungMachinery:
    def test_frame_parsing_and_validation(self):
        assert YoungFrame.from_text("(3,1)").rows == (3, 1)
        assert YoungFrame.from_text("[2, 2]").rows == (2, 2)
        with pytest.raises(InvalidArgument):
            YoungFrame.from_text("(1,2)")
        with pytest.raises(InvalidArgument):
            YoungFrame.from_text("nonsense")

    def test_hook_lengths_square_frame(self):
        f = YoungFrame((2, 2))
        assert [[f.hook_length(r, c) for c in range(2)] for r in range(2)] == [
            [3, 2],
            [2, 1],
        ]
        assert f.hook_product() == 12

    def test_tableau_validation(self):
        with pytest.raises(InvalidArgument):
            YoungTableau([[1, 2], [2]])
        tab = YoungTableau.from_text("[[1,3],[2,4]]")
        assert tab.frame.rows == (2, 2)

    def test_young_symmetriser_square_tableau_has_16_terms(self):
        tau = young_symmetriser([[1, 2], [3, 4]])
        assert tau.term_count() == 16
        assert tau.coefficient(Permutation.identity(4)) == 1
        assert tau.coefficient(Permutation.from_cycles(4, [(1, 2)])) == 1
        assert tau.coefficient(Permutation.from_cycles(4, [(1, 3)])) == -1

    def test_square_identity_small(self):
        for rows in ((2, 1), (3,), (1, 1, 1), (2, 2)):
            frame = YoungFrame(rows)
            tau = young_symmetriser(YoungTableau.standard(frame))
            assert tau.multiply(tau) == tau * frame.hook_product()

    def test_column_antisymmetrisers_act_first(self):
        # On a symmetric 2-tensor the (1,1)-frame symmetriser gives zero
        # because its column antisymmetriser acts directly on the tensor.
        sym = Tensor.from_nested([[1, 2], [2, 5]])
        tau = young_symmetriser([[1], [2]])
        assert tau.apply(sym).is_zero()

    def test_partitions_order_and_count(self):
        parts4 = [f.rows for f in partitions(4)]
        assert parts4 == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert len(partitions(5)) == 7
        assert len(partitions(6)) == 11

    def test_sym_irrep_dims_sum_of_squares(self):
        # Sum of squared irreducible dimensions equals the group order.
        for d in (3, 4, 5):
            assert sum(f.sym_irrep_dim() ** 2 for f in partitions(d)) == math.factorial(d)

    def test_gl_dims(self):
        assert YoungFrame((2,)).gl_irrep_dim(3) == 6
        assert YoungFrame((1, 1)).gl_irrep_dim(3) == 3
        # More rows than the space dimension kills the representation.
        assert YoungFrame((1, 1, 1)).gl_irrep_dim(2) == 0


def reference_lr_decompose(frame1, frame2):
    """The filling enumerator lr_decompose replaced, kept as its reference.

    It lists every column-strict placement of the labelled boxes and
    tests the lattice-word condition only on complete fillings, so its
    states grow exponentially with the boxes.
    """
    base = frame1.rows
    states = {tuple(() for _ in base)}

    def row_length(state, r):
        return (base[r] if r < len(base) else 0) + len(state[r])

    def label_at(state, r, c):
        if r >= len(state):
            return None
        basis = base[r] if r < len(base) else 0
        offset = c - basis
        row = state[r]
        return row[offset] if 0 <= offset < len(row) else None

    for label, count in enumerate(frame2.rows, start=1):
        for _ in range(count):
            next_states = set()
            for state in states:
                for r in range(len(state) + 1):
                    target = state + ((),) if r == len(state) else state
                    new_len = row_length(target, r) + 1
                    if r > 0 and row_length(target, r - 1) < new_len:
                        continue
                    if r > 0 and label_at(target, r - 1, new_len - 1) == label:
                        continue
                    next_states.add(tuple(
                        row + (label,) if i == r else row for i, row in enumerate(target)
                    ))
            states = next_states

    result = Counter()
    for state in states:
        counts = Counter()
        lattice = True
        for label in (v for row in state for v in reversed(row)):
            counts[label] += 1
            lattice = lattice and not (label > 1 and counts[label] > counts[label - 1])
        if lattice:
            shape = tuple(row_length(state, r) for r in range(len(state)))
            result[YoungFrame(tuple(v for v in shape if v > 0))] += 1
    return dict(result)


class TestLittlewoodRichardson:
    def test_matches_the_filling_enumerator(self):
        frames = [frame for n in range(1, 6) for frame in partitions(n)]
        for a in frames:
            for b in frames:
                assert lr_decompose(a, b) == reference_lr_decompose(a, b), (a, b)

    @pytest.mark.parametrize(
        "rows1, rows2",
        [((4, 2, 1), (3, 3)), ((8, 5, 3), (5, 3, 2)), ((16, 10, 5), (10, 6, 3))],
    )
    def test_gl_dimensions_multiply(self, rows1, rows2):
        # sum_nu c_nu dim_N(nu) = dim_N(lambda) dim_N(mu).  The last pair
        # has 45 531 fillings, which the enumerator above took 19 s to list.
        f1, f2 = YoungFrame(rows1), YoungFrame(rows2)
        product = lr_decompose(f1, f2)
        for n in (2, 3, 4, 6):
            total = sum(m * f.gl_irrep_dim(n) for f, m in product.items())
            assert total == f1.gl_irrep_dim(n) * f2.gl_irrep_dim(n)

    def test_pieri_single_boxes(self):
        one = YoungFrame((1,))
        out = {f.rows: m for f, m in lr_decompose(one, one).items()}
        assert out == {(2,): 1, (1, 1): 1}

    def test_commutativity(self):
        a = YoungFrame((2, 1))
        b = YoungFrame((2,))
        left = {f.rows: m for f, m in lr_decompose(a, b).items()}
        right = {f.rows: m for f, m in lr_decompose(b, a).items()}
        assert left == right

    def test_first_nontrivial_multiplicity(self):
        # (2,1) x (2,1) contains (3,2,1) with multiplicity 2.
        a = YoungFrame((2, 1))
        out = {f.rows: m for f, m in lr_decompose(a, a).items()}
        assert out[(3, 2, 1)] == 2

    @pytest.mark.parametrize(
        "rows1,rows2",
        [((2,), (2,)), ((1, 1), (2, 1)), ((2, 1), (2, 1)), ((3,), (1, 1, 1))],
    )
    def test_induced_dimension_identity(self, rows1, rows2):
        # Induced-representation dimension count: the decomposition of the
        # product of irreps of S_a and S_b into irreps of S_{a+b} satisfies
        # sum_l c_l * dim(l) = binom(a+b, a) * dim(l1) * dim(l2).
        f1, f2 = YoungFrame(rows1), YoungFrame(rows2)
        total = sum(m * f.sym_irrep_dim() for f, m in lr_decompose(f1, f2).items())
        a, b = f1.size, f2.size
        expected = (
            math.comb(a + b, a) * f1.sym_irrep_dim() * f2.sym_irrep_dim()
        )
        assert total == expected
