"""Tests for the exact algebraic integrability conditions and verdicts."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import BOUND, flat, random_family_member, sphere
from killingtensor import (
    ConditionForm1,
    ConditionForm2,
    GroupAlgebraElement,
    IdentityViolation,
    InvalidArgument,
    Permutation,
    Tensor,
    UnsupportedForm,
    antisymmetrise_slots,
    benenti_rep,
    check,
    condition1_residual,
    condition2_residual,
    condition3_residual,
    metric_rep,
    r_to_s,
    random_curvature,
    random_invertible_matrix,
    symmetrise_slots,
    verify_identity_suite,
    young_symmetriser,
)
from killingtensor import curvature
from killingtensor import tensor as tensor_module
from killingtensor import integrability as integrability_module
from killingtensor._linalg import determinant

FORM1_ALL = list(ConditionForm1)
FORM2_ALL = list(ConditionForm2)


def random_s(dim: int, seed: int):
    return r_to_s(random_curvature(dim, random.Random(seed), bound=BOUND))


class TestFormParsing:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("main1", ConditionForm1.MAIN1),
            ("MAIN1", ConditionForm1.MAIN1),
            ("young-a", ConditionForm1.YOUNG_A),
            ("young_a", ConditionForm1.YOUNG_A),
            (" Hook-D ", ConditionForm1.HOOK_D),
            (ConditionForm1.OMEGA, ConditionForm1.OMEGA),
        ],
    )
    def test_first_condition_forms(self, raw, expected):
        assert ConditionForm1.parse(raw) is expected

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("main2", ConditionForm2.MAIN2),
            ("KS2_HOOK_YIN", ConditionForm2.KS2_HOOK_YIN),
            ("ks2-44-both", ConditionForm2.KS2_44_BOTH),
        ],
    )
    def test_second_condition_forms(self, raw, expected):
        assert ConditionForm2.parse(raw) is expected

    def test_unknown_forms_are_rejected(self):
        with pytest.raises(InvalidArgument, match="ConditionForm1"):
            ConditionForm1.parse("main2")
        with pytest.raises(InvalidArgument, match="ConditionForm2"):
            ConditionForm2.parse("bogus")
        with pytest.raises(InvalidArgument, match="ConditionForm1"):
            condition1_residual(random_s(3, 0), sphere(3), form="nope")


class TestResidualStructure:
    def test_residuals_are_homogeneous_in_the_input(self):
        # Degrees 2, 3, 4: scaling the input scales the residuals by
        # c^2, c^3, c^4.
        model = sphere(4)
        K = random_s(4, 1)
        doubled = K * 2
        assert condition1_residual(doubled, model) == condition1_residual(K, model) * 4
        assert condition2_residual(doubled, model) == condition2_residual(K, model) * 8
        assert condition3_residual(doubled, model) == condition3_residual(K, model) * 16

    def test_curvature_and_symmetric_inputs_agree(self):
        model = sphere(4)
        R = random_curvature(4, random.Random(2), bound=BOUND)
        S = r_to_s(R)
        for form in FORM1_ALL:
            assert condition1_residual(R, model, form) == condition1_residual(
                S, model, form
            )
        for form in FORM2_ALL:
            assert condition2_residual(R, model, form) == condition2_residual(
                S, model, form
            )

    def test_gbar_may_be_a_model_or_a_tensor(self):
        model = sphere(4)
        K = random_s(4, 3)
        assert condition1_residual(K, model) == condition1_residual(K, model.gbar())
        assert condition2_residual(K, model) == condition2_residual(K, model.gbar())

    def test_gbar_validation(self):
        K = random_s(3, 4)
        with pytest.raises(InvalidArgument, match="order 2"):
            condition1_residual(K, Tensor.basis_vector(3, 0))
        with pytest.raises(InvalidArgument, match="dimension mismatch"):
            condition1_residual(K, sphere(4))
        with pytest.raises(InvalidArgument, match="ModelSpace or an order-2"):
            condition1_residual(K, "sphere")

    def test_rejects_unwrapped_inputs(self):
        with pytest.raises(InvalidArgument, match="CurvatureTensor or SymCurvatureTensor"):
            condition1_residual(Tensor.zeros(3, 4), sphere(3))
        with pytest.raises(InvalidArgument, match="CurvatureTensor or SymCurvatureTensor"):
            check(object(), sphere(3))

    def test_input_is_converted_once_per_class(self, monkeypatch):
        calls = []
        convert = curvature.r_to_s
        monkeypatch.setattr(curvature, "r_to_s", lambda R: calls.append(R) or convert(R))
        R = random_curvature(5, random.Random(70), bound=BOUND)
        check(R, sphere(5), "young-a", "ks2-hook-yin")
        assert calls == [R]

    def test_no_contraction_when_an_antisymmetriser_outgrows_the_dimension(self, monkeypatch):
        # At N = 3 every four-slot antisymmetriser vanishes: main1, main2,
        # the ks2-* forms and, of the first-condition forms, all but split-b.
        calls = []
        engine = integrability_module.contract_terms
        monkeypatch.setattr(
            integrability_module, "contract_terms", lambda *a, **k: calls.append(a[0]) or engine(*a, **k)
        )
        R = random_curvature(3, random.Random(71), bound=BOUND)
        model = sphere(3)
        for form2 in FORM2_ALL:
            report = check(R, model, ConditionForm1.MAIN1, form2)
            assert report.integrable and report.cond1_support == report.cond2_support == 0
            residual = condition2_residual(R, model, form2)
            assert residual.order == 8 and residual.dim == 3 and residual.is_zero()
        for form1 in FORM1_ALL:
            if form1 is not ConditionForm1.SPLIT_B:
                residual = condition1_residual(R, model, form1)
                assert residual.order == 6 and residual.dim == 3 and residual.is_zero()
        assert calls == []
        check(R, model, ConditionForm1.SPLIT_B)
        assert calls

    def test_omega_form_needs_nondegenerate_gbar(self):
        K = random_s(4, 5)
        # Defined on the sphere...
        condition1_residual(K, sphere(4), ConditionForm1.OMEGA)
        # ...but not on the flat model, whose gbar is degenerate.
        with pytest.raises(UnsupportedForm, match="wedge-square"):
            condition1_residual(K, flat(4), ConditionForm1.OMEGA)
        with pytest.raises(UnsupportedForm, match="wedge-square"):
            check(K, flat(4), form1="omega")


class TestKnownVerdicts:
    @pytest.mark.parametrize(
        "model", [sphere(4), sphere(3, 1), flat(4)], ids=repr
    )
    def test_metric_representative_is_integrable(self, model):
        report = check(metric_rep(model), model)
        assert report.integrable
        assert report.cond1_support == 0
        assert report.cond2_support == 0
        assert report.warnings == ()

    @pytest.mark.parametrize("model", [sphere(4), flat(4)], ids=repr)
    def test_benenti_representatives_are_integrable(self, model):
        A = random_invertible_matrix(model.dim, random.Random(6), bound=BOUND)
        assert check(benenti_rep(model, A), model).integrable

    def test_family_members_are_integrable_on_the_sphere(self):
        model = sphere(4)
        K = random_family_member(model, random.Random(7))
        for form1 in FORM1_ALL:
            assert condition1_residual(K, model, form1).is_zero()
        for form2 in FORM2_ALL:
            assert condition2_residual(K, model, form2).is_zero()

    def test_random_inputs_fail_at_dimension_four(self):
        model = sphere(4)
        report = check(random_curvature(4, random.Random(8), bound=BOUND), model)
        assert not report.integrable
        assert not report.cond1_zero
        assert report.cond1_support > 0
        assert report.residual_supports["condition1"] == report.cond1_support

    def test_everything_passes_in_ambient_dimension_three(self):
        # Four-slot antisymmetrisers vanish identically in three ambient
        # dimensions, so both conditions hold for arbitrary inputs.
        for seed, model in [(9, sphere(3)), (10, flat(3)), (11, sphere(2, 1))]:
            K = random_curvature(3, random.Random(seed), bound=BOUND)
            report = check(K, model)
            assert report.integrable
            assert report.cond1_support == 0

    def test_failed_first_condition_raises_a_warning(self):
        model = flat(4)
        K = random_family_member(model, random.Random(12))
        report = check(K, model)
        assert not report.cond1_zero
        assert len(report.warnings) == 1
        assert "only guaranteed equivalent" in report.warnings[0]

    def test_custom_gbar_reports(self):
        model = sphere(3)
        report = check(random_s(3, 13), model.gbar())
        assert report.model_kind == "custom"
        assert report.signature is None
        assert report.integrable

    def test_report_metadata(self):
        model = sphere(3)
        report = check(random_s(3, 14), model, form1="anti-c", form2="ks2-44-both")
        assert report.model_kind == "sphere"
        assert report.signature == (3, 0)
        assert report.dim == 3
        assert report.forms_used == ("anti-c", "ks2-44-both")
        assert report.elapsed_seconds >= 0.0


class TestThirdCondition:
    def test_vanishes_whenever_the_first_two_conditions_hold(self):
        cases = [
            (random_s(3, 15), sphere(3)),
            (random_s(3, 16), flat(3)),
            (random_family_member(sphere(4), random.Random(17)), sphere(4)),
        ]
        for K, model in cases:
            assert check(K, model).integrable
            assert condition3_residual(K, model).is_zero()

    def test_nonzero_on_generic_inputs(self):
        assert not condition3_residual(random_s(4, 18), sphere(4)).is_zero()


_HOOK_ROWS = integrability_module._HOOK_CHECKS
_YANG_ROWS = [row for row, (name, _, _) in enumerate(_HOOK_ROWS) if "yang" in name]


class TestIdentitySuite:
    @pytest.mark.parametrize(
        "dim, model_builder", [(3, sphere), (3, flat), (4, sphere)]
    )
    def test_suite_passes_for_valid_inputs(self, dim, model_builder):
        S, model = random_s(dim, 19 + dim), model_builder(dim)
        names = verify_identity_suite(S, model, rng=0)
        assert names == (
            "symmetrised_bianchi",
            "hook_4_1_1_on_quadratic",
            "hook_6_1_1_on_cubic_yin",
            "hook_6_1_1_on_cubic_yang",
            "hook_8_1_1_on_quartic_yin",
            "hook_8_1_1_on_quartic_yang",
            "projector_decomposition",
        )
        for rng in (1, random.Random(2), None):
            assert verify_identity_suite(S, model, rng=rng) == names

    # Each check fails when its own data is faulty; S stays valid.
    @pytest.mark.parametrize("position", range(4))
    def test_a_changed_bianchi_multiple_fails_the_bianchi_check(self, monkeypatch, position):
        table = integrability_module._BIANCHI
        multiples = list(table.multiples)
        multiples[position] += 1
        monkeypatch.setattr(integrability_module, "_BIANCHI", table._replace(multiples=tuple(multiples)))
        with pytest.raises(IdentityViolation, match="symmetrised_bianchi$"):
            verify_identity_suite(random_s(3, 20), sphere(3), rng=0)

    @staticmethod
    def _with_hook_ops(monkeypatch, row, keep):
        """Replace row ``row`` of ``_HOOK_CHECKS`` by its operators at
        ``keep`` (a slice of (antisymmetriser, symmetriser)); the row's name."""
        checks = list(integrability_module._HOOK_CHECKS)
        name, term, ops = checks[row]
        assert [sign for sign, _ in ops] == [-1, 1]
        checks[row] = (name, term, ops[keep])
        monkeypatch.setattr(integrability_module, "_HOOK_CHECKS", tuple(checks))
        return name

    @pytest.mark.parametrize("row", range(len(_HOOK_ROWS)))
    def test_a_hook_check_without_its_symmetriser_fails(self, monkeypatch, row):
        name = self._with_hook_ops(monkeypatch, row, slice(1))
        with pytest.raises(IdentityViolation, match=f"{name}$"):
            verify_identity_suite(random_s(4, 21), sphere(4), rng=0)

    @pytest.mark.parametrize("row", sorted(set(range(len(_HOOK_ROWS))) - set(_YANG_ROWS)))
    def test_a_hook_check_without_its_antisymmetriser_fails(self, monkeypatch, row):
        name = self._with_hook_ops(monkeypatch, row, slice(1, None))
        with pytest.raises(IdentityViolation, match=f"{name}$"):
            verify_identity_suite(random_s(4, 21), sphere(4), rng=0)

    @pytest.mark.parametrize("row", _YANG_ROWS)
    def test_known_gap_a_yang_hook_check_passes_without_its_antisymmetriser(self, monkeypatch, row):
        # Not a verdict to keep: the yang symmetrisers span three slots of
        # one S factor, which the cyclic identity makes zero, so these two
        # checks cannot see a faulty antisymmetriser.  Moving its shared
        # slot within the symmetriser, or putting it after the symmetriser,
        # leaves the residual zero as well.
        self._with_hook_ops(monkeypatch, row, slice(1, None))
        assert len(verify_identity_suite(random_s(4, 21), sphere(4), rng=0)) == 7

    def test_half_the_projector_sum_fails_the_decomposition(self, monkeypatch):
        # t1 t1* alone: the t2* t2 term of the resolution is left out.
        t1 = young_symmetriser([[3, 2, 5], [4], [6], [1]])
        monkeypatch.setattr(integrability_module, "_projector_sum", lambda: t1.multiply(t1.adjoint()))
        with pytest.raises(IdentityViolation, match="projector_decomposition$"):
            verify_identity_suite(random_s(3, 22), sphere(3), rng=0)

    def test_a_projector_sum_no_symmetric_sample_sees_fails_the_decomposition(self, monkeypatch):
        # (1 2)(2 3) acts as (1 2) on every tensor symmetric in slots 2 and
        # 3, so no order-6 sample of the operator's own symmetry type sees
        # 288 ((1 2) - (1 2)(2 3)); the group algebra comparison does.
        swap = GroupAlgebraElement.from_permutation(Permutation([2, 1, 3, 4, 5, 6]))
        turn = GroupAlgebraElement.from_permutation(Permutation([1, 3, 2, 4, 5, 6]))
        wrong = integrability_module._projector_sum() + 288 * (swap - swap.multiply(turn))
        monkeypatch.setattr(integrability_module, "_projector_sum", lambda: wrong)
        with pytest.raises(IdentityViolation, match="projector_decomposition$"):
            verify_identity_suite(random_s(3, 22), sphere(3), rng=0)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_both_projector_sides_act_as_the_slot_operations(self, dim):
        # Ties the group algebra elements the suite compares to the slot
        # operations of the hook forms: on a generic order-6 tensor both
        # act as 288 Anti_{146} Sym_{235}.
        draws = random.Random(dim)
        t = Tensor.from_nested(
            np.array([draws.randint(-9, 9) for _ in range(dim**6)]).reshape((dim,) * 6).tolist()
        )
        expected = 288 * antisymmetrise_slots(symmetrise_slots(t, (2, 3, 5)), (1, 4, 6))
        assert integrability_module._projector_product().apply(t) == expected
        assert integrability_module._projector_sum().apply(t) == expected

    def test_a_second_suite_call_normalises_no_order_six_array(self, monkeypatch):
        # The model's gbar is built once, the Bianchi sum is zero-tested on
        # integers, and the projector decomposition is compared in the
        # group algebra: no order-6 tensor is built.
        orders: Counter = Counter()
        original = tensor_module.normalize_array

        def counted(arr, scale):
            orders[arr.ndim] += 1
            return original(arr, scale)

        for module in (tensor_module, integrability_module):
            monkeypatch.setattr(module, "normalize_array", counted)
        S, model = random_s(4, 23), sphere(4)
        verify_identity_suite(S, model, rng=0)
        orders.clear()
        verify_identity_suite(S, model, rng=1)
        assert orders[6] == 0
        assert orders[2] == orders[4] == 0

    def test_suite_rejects_invalid_inputs(self):
        bad = Tensor.from_entries(3, 4, [((0, 1, 1, 2), 1)])
        with pytest.raises(InvalidArgument, match="symmetric"):
            verify_identity_suite(bad, sphere(3))
        with pytest.raises(InvalidArgument, match="order-4"):
            verify_identity_suite(Tensor.zeros(3, 3), sphere(3))


# Slot groups over which each form's residual is (anti)symmetric, as
# (symmetric groups, antisymmetric groups) of 0-based axes.
SUPPORT_GROUPS = {
    "main1": ((), ((1, 2, 4, 5),)),
    "omega": ((), ((1, 2, 4, 5),)),
    "young-a": ((), ((0, 2, 3, 5),)),
    "split-b": (((1, 2, 4),), ((0, 3, 5),)),
    "anti-c": ((), ((0, 2, 3, 5),)),
    "hook-d": (((1, 2, 4),), ()),
    "main2": (((0, 1, 2, 3),), ((4, 5, 6, 7),)),
    "ks2-hook-yin": ((), ((0, 2, 4, 5),)),
    "ks2-44-both": (((1, 3, 4, 6),), ((0, 2, 5, 7),)),
}


def canonical_nonzero_count(arr, dim, sym_groups=(), anti_groups=()) -> int:
    """Count non-zero entries over canonical index tuples.

    A canonical tuple is weakly increasing along each symmetric slot
    group and strictly increasing along each antisymmetric slot group
    (0-based axes); remaining axes range freely.  Entries related by the
    declared symmetries are therefore counted once.
    """
    order = arr.ndim
    groups = [(tuple(g), False) for g in sym_groups] + [(tuple(g), True) for g in anti_groups]
    used = {a for axes, _ in groups for a in axes}
    free = [a for a in range(order) if a not in used]
    choices = []
    for axes, strict in groups:
        if strict:
            pool = list(itertools.combinations(range(dim), len(axes)))
        else:
            pool = list(itertools.combinations_with_replacement(range(dim), len(axes)))
        choices.append((axes, pool))
    count = 0
    free_pool = list(itertools.product(range(dim), repeat=len(free)))
    for group_pick in itertools.product(*(pool for _, pool in choices)):
        index_template = [0] * order
        for (axes, _), values in zip(choices, group_pick):
            for axis, value in zip(axes, values):
                index_template[axis] = value
        for free_values in free_pool:
            for axis, value in zip(free, free_values):
                index_template[axis] = value
            if arr[tuple(index_template)] != 0:
                count += 1
    return count


class TestPinnedResiduals:
    @pytest.mark.parametrize("dim", [4, 5])
    def test_support_counts_match_brute_force(self, dim):
        model = sphere(dim)
        K = random_curvature(dim, random.Random(40 + dim), bound=BOUND)
        counts1 = {
            form: canonical_nonzero_count(
                condition1_residual(K, model, form).array, dim, *SUPPORT_GROUPS[form.value]
            )
            for form in FORM1_ALL
        }
        counts2 = {
            form: canonical_nonzero_count(
                condition2_residual(K, model, form).array, dim, *SUPPORT_GROUPS[form.value]
            )
            for form in FORM2_ALL
        }
        assert all(count > 0 for count in [*counts1.values(), *counts2.values()])
        for form1 in FORM1_ALL:
            for form2 in FORM2_ALL:
                report = check(K, model, form1, form2)
                assert not report.integrable
                assert report.cond1_support == counts1[form1], (form1, form2)
                assert report.cond2_support == counts2[form2], (form1, form2)

    def test_third_condition_matches_the_fraction_route(self):
        # At N = 3 the first two conditions hold for every input, and the
        # third condition then vanishes for a symmetric gbar; a
        # non-symmetric contraction tensor gives a nonzero residual.
        rng = random.Random(50)
        S = random_s(3, 51)
        g = np.array(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(9)], dtype=object
        ).reshape(3, 3)
        residual = condition3_residual(S, Tensor(g, dim=3)).array

        # The two-term quartic operand over (b1, b2, c2, d1, d2, f2, e1, e2, g1, g2).
        s = S.tensor.array
        last = np.einsum("mn,mfgh,nlpq->fghlpq", g, s, s)  # (f2, e1, e2, l, g1, g2)
        yin = np.einsum("ij,ikab,jcde,kl->abcdel", g, s, s, g)
        yang = np.einsum("ij,icab,jdke,kl->abcdel", g, s, s, g)
        operand = np.einsum("abcdel,fghlpq->abcdefghpq", yin + yang, last)

        # Residual at each canonical tuple, summed over the group by definition.
        sym_axes, anti_axes = (0, 1, 3, 6, 7, 8, 9), (2, 4, 5)
        canonical = {}
        for sym_values in itertools.combinations_with_replacement(range(3), 7):
            terms: Counter = Counter()
            for sym_perm in itertools.permutations(sym_values):
                for anti_perm in itertools.permutations(range(3)):
                    index = [0] * 10
                    for axis, value in zip(sym_axes, sym_perm):
                        index[axis] = value
                    for axis, value in zip(anti_axes, anti_perm):
                        index[axis] = value
                    terms[tuple(index)] += _sign(anti_perm)
            canonical[sym_values] = sum(c * operand[index] for index, c in terms.items())
        assert any(canonical.values())

        for index in itertools.product(range(3), repeat=10):
            anti_values = [index[a] for a in anti_axes]
            if len(set(anti_values)) < 3:
                expected = 0
            else:
                sym_values = tuple(sorted(index[a] for a in sym_axes))
                expected = _sign(anti_values) * canonical[sym_values]
            assert residual[index] == expected, index


def random_nonsymmetric_gbar(dim: int, seed: int) -> Tensor:
    """A non-degenerate order-2 contraction tensor with gbar^T != gbar."""
    rng = random.Random(seed)
    while True:
        g = np.array(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim * dim)],
            dtype=object,
        ).reshape(dim, dim)
        if (g != g.T).any() and determinant(g.tolist()) != 0:
            return Tensor(g, dim=dim)


# Each form's operand as the einsum of its defining contraction (letters
# named after the contraction's indices: gbar first, then the curvature
# factors), and its operator sequence as (sign, 1-based slots).
DIRECT_FORMS = {
    # gbar^{kl} R_{k b1 a2 b2} R_{l d1 c2 d2} over (b1, a2, b2, d1, c2, d2)
    "main1": ("R", "kl,kBAC,lEDF->BACEDF", [(-1, (2, 3, 5, 6))]),
    # gbar^{xm} R_{a x i j} R_{m b k l} over (a, i, j, b, k, l)
    "omega": ("R", "xm,axij,mbkl->aijbkl", [(-1, (2, 3, 5, 6))]),
    # gbar^{kl} S_{k a2 b1 b2} S_{l c2 d1 d2} over (a2, b1, b2, c2, d1, d2)
    "young-a": ("S", "kl,kABC,lDEF->ABCDEF", [(1, (3, 2, 5)), (-1, (3, 4, 6, 1))]),
    "split-b": ("S", "kl,kABC,lDEF->ABCDEF", [(1, (3, 2, 5)), (-1, (4, 6, 1))]),
    "anti-c": ("S", "kl,kABC,lDEF->ABCDEF", [(-1, (3, 4, 6, 1))]),
    "hook-d": ("S", "kl,kABC,lDEF->ABCDEF", [(-1, (3, 4, 6, 1)), (1, (3, 2, 5))]),
    # gbar^{mn} gbar^{pq} R_{m b1 a2 b2} R_{n a1 p c1} R_{q d1 c2 d2}
    # over (a1, b1, c1, d1, a2, b2, c2, d2)
    "main2": (
        "R",
        "mn,pq,mbAB,napc,qdCD->abcdABCD",
        [(-1, (5, 6, 7, 8)), (1, (1, 2, 3, 4))],
    ),
    # gbar^{mn} gbar^{pq} S_{m c2 d1 d2} S_{n b1 p b2} S_{q f2 e1 e2}
    # over (c2, d1, d2, b1, b2, f2, e1, e2)
    "ks2-hook-yin": (
        "S",
        "mn,pq,mCDE,nBpF,qGHI->CDEBFGHI",
        [(1, (5, 4, 2, 7, 8)), (-1, (5, 1, 3, 6))],
    ),
    "ks2-44-both": (
        "S",
        "mn,pq,mCDE,nBpF,qGHI->CDEBFGHI",
        [(1, (7, 2, 4, 5)), (-1, (8, 1, 3, 6))],
    ),
}


def direct_operand(form: str, dim: int):
    """A random R, a non-symmetric gbar, and the Fraction operand and
    operators of ``form`` on them."""
    R = random_curvature(dim, random.Random(60), bound=BOUND)
    g = random_nonsymmetric_gbar(dim, 61)
    cls, subscripts, ops = DIRECT_FORMS[form]
    k = (R if cls == "R" else r_to_s(R)).tensor.array
    factors = subscripts.split("->")[0].split(",")
    arrays = [g.array if len(f) == 2 else k for f in factors]
    return R, g, np.einsum(subscripts, *arrays, optimize="greedy"), ops


class TestNonSymmetricGbar:
    """Residual values of every form against the direct Fraction route.

    A symmetric gbar, as every model has, cannot tell ``gbar^{kl}`` from
    ``gbar^{lk}``; a non-symmetric one pins which slot of gbar meets
    which curvature slot.  Four-slot antisymmetrisers vanish at N = 3,
    so the first-condition forms also run at N = 4.
    """

    @pytest.mark.parametrize(
        "form, dim",
        [(form, 3) for form in DIRECT_FORMS]
        + [(form.value, 4) for form in FORM1_ALL],
    )
    def test_residual_values(self, form, dim):
        R, g, operand, ops = direct_operand(form, dim)
        expected = Tensor(operand, dim=dim)
        for sign, slots in ops:
            expected = (symmetrise_slots if sign > 0 else antisymmetrise_slots)(expected, slots)
        if form in {f.value for f in FORM1_ALL}:
            residual = condition1_residual(R, g, form)
        else:
            residual = condition2_residual(R, g, form)
        assert residual == expected

    @pytest.mark.parametrize("form", [f.value for f in FORM2_ALL])
    def test_second_condition_entries_at_dimension_four(self, form):
        # The dense Fraction passes are too slow on N^8 entries, so the
        # operators are summed by definition at sampled entries, most of
        # them in the residual's support.
        R, g, operand, ops = direct_operand(form, 4)
        residual = condition2_residual(R, g, form).array
        rng = random.Random(62)
        support = [tuple(i) for i in np.argwhere(residual != 0).tolist()]
        assert support
        picks = rng.sample(support, 30)
        picks += [tuple(rng.randrange(4) for _ in range(8)) for _ in range(10)]
        for index in picks:
            assert residual[index] == ops_at(operand, index, ops), index


def ops_at(operand: np.ndarray, index: tuple, ops) -> Fraction:
    """Entry ``index`` of the (anti)symmetrisers ``ops`` (sign, 1-based
    slots), applied in order to ``operand``, summed over permutations."""
    if not ops:
        return operand[index]
    *earlier, (sign, slots) = ops
    axes = [slot - 1 for slot in slots]
    total = Fraction(0)
    for perm in itertools.permutations(range(len(axes))):
        moved = list(index)
        for axis, source in zip(axes, perm):
            moved[axis] = index[axes[source]]
        term = ops_at(operand, tuple(moved), earlier)
        total += term if sign > 0 or _sign(perm) > 0 else -term
    return total


def _sign(values) -> int:
    """Sign of the rearrangement that sorts distinct values."""
    inversions = sum(a > b for a, b in itertools.combinations(values, 2))
    return -1 if inversions % 2 else 1
