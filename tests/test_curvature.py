"""Curvature symmetry classes, products, representatives, projections."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BOUND, flat, sphere
from killingtensor import (
    AntisymmetricForm,
    CurvatureTensor,
    InvalidArgument,
    MetricSignature,
    SymCurvatureTensor,
    SymmetricForm,
    Tensor,
    benenti_rep,
    family_rep,
    kulkarni_nomizu,
    metric_rep,
    project_to_curvature,
    r_to_s,
    random_antisymmetric_matrix,
    random_curvature,
    random_invertible_matrix,
    random_symmetric_form,
    s_to_r,
    scalar_curvature,
)


def reference_kn(h: Tensor, k: Tensor) -> Tensor:
    """Direct component formula for the Kulkarni-Nomizu product.

    Slot order (a1, b1, a2, b2):
    (h @ k)[a1,b1,a2,b2] = h[a1,a2] k[b1,b2] + h[b1,b2] k[a1,a2]
                         - h[a1,b2] k[b1,a2] - h[b1,a2] k[a1,b2].
    """
    n = h.dim
    arr = np.empty((n,) * 4, dtype=object)
    for a1, b1, a2, b2 in np.ndindex(arr.shape):
        arr[a1, b1, a2, b2] = (
            h[(a1, a2)] * k[(b1, b2)]
            + h[(b1, b2)] * k[(a1, a2)]
            - h[(a1, b2)] * k[(b1, a2)]
            - h[(b1, a2)] * k[(a1, b2)]
        )
    return Tensor(arr, dim=n)


class TestSymmetryClasses:
    def test_random_curvature_validates(self):
        R = random_curvature(3, random.Random(0), bound=BOUND)
        assert isinstance(R, CurvatureTensor)
        CurvatureTensor(R.tensor)  # revalidation passes

    def test_curvature_violations_are_named(self):
        R = random_curvature(3, random.Random(1), bound=BOUND)
        base = R.tensor.array

        broken = base.copy()
        broken[0, 1, 1, 2] += 1
        with pytest.raises(InvalidArgument, match="antisymmetric in the first index pair"):
            CurvatureTensor(Tensor(broken, dim=3))

    def test_cyclic_violation_is_named(self):
        # Break only the cyclic identity.  The symmetrised product of the
        # 2-forms e0^e1 and e2^e3 keeps both antisymmetries and the pair
        # exchange but has a non-vanishing cyclic sum; this needs four
        # dimensions (with fewer, any pair-symmetric double 2-form
        # satisfies the cyclic identity automatically).
        R4 = random_curvature(4, random.Random(21), bound=BOUND)
        broken = R4.tensor.array.copy()
        for (i, j), s1 in (((0, 1), 1), ((1, 0), -1)):
            for (k, l), s2 in (((2, 3), 1), ((3, 2), -1)):
                broken[i, j, k, l] += s1 * s2
                broken[k, l, i, j] += s1 * s2
        with pytest.raises(InvalidArgument, match="cyclic"):
            CurvatureTensor(Tensor(broken, dim=4))

    def test_sym_class_violations_are_named(self):
        S = r_to_s(random_curvature(3, random.Random(2), bound=BOUND))
        broken = S.tensor.array.copy()
        broken[0, 1, 1, 2] += 1
        with pytest.raises(InvalidArgument):
            SymCurvatureTensor(Tensor(broken, dim=3))

    def test_wrong_order_rejected(self):
        with pytest.raises(InvalidArgument):
            CurvatureTensor(Tensor.zeros(3, 3))

    def test_forms_validate(self):
        with pytest.raises(InvalidArgument, match="not symmetric"):
            SymmetricForm(Tensor.from_nested([[0, 1], [2, 0]]))
        with pytest.raises(InvalidArgument, match="not antisymmetric"):
            AntisymmetricForm(Tensor.from_nested([[0, 1], [1, 0]]))


def reference_class_verdict(cls: type, arr: np.ndarray) -> "str | None":
    """The class definition checked directly on the Fraction entries.

    None when ``arr`` is in the class, otherwise the message of the first
    violated symmetry, in the order the classes check them.
    """
    if cls is CurvatureTensor:
        prefix, sign, word = "curvature tensor invalid", -1, "antisymmetric"
    else:
        prefix, sign, word = "symmetric-class tensor invalid", 1, "symmetric"
    checks = (
        (sign * arr.transpose(1, 0, 2, 3), f"not {word} in the first index pair"),
        (sign * arr.transpose(0, 1, 3, 2), f"not {word} in the second index pair"),
        (arr.transpose(2, 3, 0, 1), "index pairs do not exchange symmetrically"),
    )
    for image, failure in checks:
        if any(a != b for a, b in zip(arr.flat, image.flat)):
            return f"{prefix}: {failure}"
    cyclic = arr + arr.transpose(0, 2, 3, 1) + arr.transpose(0, 3, 1, 2)
    if any(v != 0 for v in cyclic.flat):
        return f"{prefix}: cyclic sum over the last three indices does not vanish"
    return None


def pair_group(cls: type) -> list[tuple[tuple[int, ...], int]]:
    """The eight slot permutations of the class's pair symmetries, with signs.

    The first one, two, four and eight elements are subgroups: the
    identity, then the first pair, both pairs and the pair exchange.
    """
    pair = -1 if cls is CurvatureTensor else 1
    return [
        ((0, 1, 2, 3), 1), ((1, 0, 2, 3), pair), ((0, 1, 3, 2), pair), ((1, 0, 3, 2), 1),
        ((2, 3, 0, 1), 1), ((3, 2, 0, 1), pair), ((2, 3, 1, 0), pair), ((3, 2, 1, 0), 1),
    ]


class TestIntegerValidation:
    """Acceptance and messages match the Fraction definition exactly, also
    where the integer image crosses 2^62 (object dtype) and where three
    int64 terms of a cyclic sum wrap."""

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**16),
        cls=st.sampled_from([CurvatureTensor, SymCurvatureTensor]),
        other_base=st.sampled_from([False, False, True]),
        magnitude=st.sampled_from([None, 2**61, 2**62 - 1, 2**62, 2**62 + 1, 2**63]),
        orbit=st.sampled_from([0, 1, 2, 4, 8]),
        # Taken modulo dim; distinct indices reach the cyclic check at dim 4.
        idx=st.permutations(range(4)),
        delta=st.sampled_from(
            [1, -1, Fraction(1, 3), 2**61, -(2**62) + 1, 2**62, 3 * 2**61, -(2**63)]
        ),
    )
    def test_matches_the_fraction_definition(
        self, dim, seed, cls, other_base, magnitude, orbit, idx, delta
    ):
        R = random_curvature(dim, random.Random(seed), bound=BOUND)
        on_r = (cls is CurvatureTensor) != other_base
        arr = (R if on_r else r_to_s(R)).tensor.array.copy()
        if magnitude is not None:
            # Integer entries whose largest is just under or over the magnitude.
            arr = arr * math.lcm(*(v.denominator for v in arr.flat))
            largest = max(abs(v) for v in arr.flat)
            if largest:
                arr = arr * (magnitude // largest + seed % 2)
        idx = tuple(i % dim for i in idx)
        for perm, sign in pair_group(cls)[:orbit]:
            arr[tuple(idx[p] for p in perm)] += sign * delta
        expected = reference_class_verdict(cls, arr)
        try:
            cls(Tensor(arr, dim=dim))
            got = None
        except InvalidArgument as exc:
            got = str(exc)
        assert got == expected

    def test_wrapping_cyclic_sum_is_still_rejected(self):
        # Three int64 terms of 3 * 2^61 - 1 wrap past 2^63; their true sum
        # is not zero.  Pair symmetries hold, so only the cyclic check sees it.
        arr = np.empty((4,) * 4, dtype=object)
        arr.fill(Fraction(0))
        value = 3 * 2**60 - 1
        for idx in [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)]:
            for perm, sign in pair_group(SymCurvatureTensor):
                arr[tuple(idx[p] for p in perm)] = Fraction(value)
        assert 3 * value > 2**63 and value < 2**62
        assert reference_class_verdict(SymCurvatureTensor, arr) is not None
        with pytest.raises(InvalidArgument, match="cyclic"):
            SymCurvatureTensor(Tensor(arr, dim=4))


class TestKulkarniNomizu:
    def test_matches_reference_formula(self):
        rng = random.Random(3)
        h = random_symmetric_form(3, rng, bound=BOUND)
        k = random_symmetric_form(3, rng, bound=BOUND)
        assert kulkarni_nomizu(h, k).tensor == reference_kn(h.tensor, k.tensor)

    def test_symmetric_and_bilinear(self):
        rng = random.Random(4)
        h = random_symmetric_form(3, rng, bound=BOUND)
        k = random_symmetric_form(3, rng, bound=BOUND)
        assert kulkarni_nomizu(h, k) == kulkarni_nomizu(k, h)
        left = kulkarni_nomizu(SymmetricForm(h.tensor * 3), k)
        assert left == kulkarni_nomizu(h, k) * 3

    def test_half_metric_square_components(self):
        g = MetricSignature.euclidean(2).metric()
        R = kulkarni_nomizu(g, g) * Fraction(1, 2)
        # R[a1,b1,a2,b2] = g[a1,a2] g[b1,b2] - g[a1,b2] g[b1,a2]
        assert R.tensor[(0, 1, 0, 1)] == 1
        assert R.tensor[(0, 1, 1, 0)] == -1
        assert R.tensor[(0, 0, 1, 1)] == 0


class TestClassConversion:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_round_trips(self, dim):
        rng = random.Random(10 + dim)
        R = random_curvature(dim, rng, bound=BOUND)
        assert s_to_r(r_to_s(R)) == R
        S = r_to_s(random_curvature(dim, rng, bound=BOUND))
        assert r_to_s(s_to_r(S)) == S

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(2, 5),
        bits=st.sampled_from([3, 31, 40]),
        scale=st.sampled_from([Fraction(1), Fraction(2, 7)]),
        seed=st.integers(0, 10**6),
    )
    # At 31 bits the image's peak falls on either side of 2^62: 62 bits
    # for seed 11938 (int64), 64 bits for seed 0 (Python ints).
    @example(dim=3, bits=31, scale=Fraction(1), seed=11938)
    @example(dim=3, bits=31, scale=Fraction(1), seed=0)
    def test_converted_tensors_pass_the_target_validation(self, dim, bits, scale, seed):
        # r_to_s and s_to_r build their output without validating it; the
        # target class's own check must accept it, also on Python-int
        # images past 2^62 (sums of Kulkarni-Nomizu products of forms with
        # entries below 2^bits reach about 2^(2 bits + 3)).
        rng = random.Random(seed)

        def form() -> Tensor:
            entries = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i, dim):
                    entries[i][j] = entries[j][i] = rng.randint(-(1 << bits), 1 << bits)
            return Tensor.from_nested(entries)

        R = (kulkarni_nomizu(form(), form()) + kulkarni_nomizu(form(), form())) * scale
        S = r_to_s(R)
        SymCurvatureTensor._validate(S, S.tensor._ints)
        back = s_to_r(S)
        CurvatureTensor._validate(back, back.tensor._ints)
        assert back == R
        # The image holds Python ints exactly when its peak reaches 2^62.
        peak = max(abs(int(v)) for v in S.tensor._ints.ravel().tolist())
        assert (S.tensor._ints.dtype == object) == (peak >= 1 << 62)

    def test_metric_converts_to_doubled_products(self):
        # For R = (1/2) g @ g the symmetric-class image is
        # S[a1,a2,b1,b2] = 2 g[a1,a2] g[b1,b2] - g[a1,b2] g[a2,b1]
        #                - g[a1,b1] g[a2,b2].
        model = sphere(3)
        g = model.metric()
        S = r_to_s(metric_rep(model))
        for idx in np.ndindex((3,) * 4):
            a1, a2, b1, b2 = idx
            expected = (
                2 * g[(a1, a2)] * g[(b1, b2)]
                - g[(a1, b2)] * g[(a2, b1)]
                - g[(a1, b1)] * g[(a2, b2)]
            )
            assert S.tensor[idx] == expected


class TestProjector:
    def test_projects_into_class_and_is_idempotent(self):
        rng = random.Random(5)
        arr = np.empty((3,) * 4, dtype=object)
        for idx in np.ndindex(arr.shape):
            arr[idx] = Fraction(rng.randint(-9, 9))
        t = Tensor(arr, dim=3)
        R = project_to_curvature(t)
        assert isinstance(R, CurvatureTensor)
        assert project_to_curvature(R.tensor) == R

    def test_fixes_valid_curvature_tensors(self):
        R = random_curvature(3, random.Random(6), bound=BOUND)
        assert project_to_curvature(R.tensor) == R


class TestRepresentatives:
    def test_benenti_identity_equals_metric(self):
        for model in (sphere(3), flat(3), sphere(2, 1)):
            eye = Tensor.from_nested(
                [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
            )
            assert benenti_rep(model, eye) == metric_rep(model)

    def test_family_degenerate_case_is_metric_multiple(self):
        model = sphere(3)
        h = random_symmetric_form(3, random.Random(7), bound=BOUND)
        member = family_rep(h, Fraction(5, 2), 0, 0, signature=model.signature)
        assert member == metric_rep(model) * 5

    def test_family_is_linear_in_coefficients(self):
        rng = random.Random(8)
        h = random_symmetric_form(3, rng, bound=BOUND)
        g = MetricSignature.euclidean(3).metric()
        member = family_rep(h, 2, 3, 5)
        expected = (
            kulkarni_nomizu(h, h) * 5
            + kulkarni_nomizu(h.tensor, g) * 3
            + kulkarni_nomizu(g, g) * 2
        )
        assert member == expected

    def test_dimension_mismatch_rejected(self):
        model = sphere(3)
        with pytest.raises(InvalidArgument):
            benenti_rep(model, Tensor.zeros(4, 2))
        with pytest.raises(InvalidArgument):
            family_rep(
                random_symmetric_form(4, random.Random(9)),
                1,
                1,
                1,
                signature=model.signature,
            )


class TestRandomGenerators:
    def test_symmetric_form_is_symmetric(self):
        h = random_symmetric_form(4, random.Random(11), bound=BOUND)
        assert h.tensor == Tensor(h.tensor.array.transpose(1, 0), dim=4)

    def test_antisymmetric_matrix(self):
        a = random_antisymmetric_matrix(4, random.Random(12), bound=BOUND)
        assert a.tensor == Tensor(-a.tensor.array.transpose(1, 0), dim=4)

    def test_invertible_matrix_has_nonzero_determinant(self):
        from killingtensor._linalg import determinant

        A = random_invertible_matrix(4, random.Random(13), bound=BOUND)
        rows = [[A[(i, j)] for j in range(4)] for i in range(4)]
        assert determinant(rows) != 0

    def test_seeded_determinism(self):
        a = random_curvature(3, random.Random(99), bound=BOUND)
        b = random_curvature(3, random.Random(99), bound=BOUND)
        assert a == b


class TestScalarCurvature:
    def test_trace_identity(self):
        g = MetricSignature.euclidean(3).metric()
        h = random_symmetric_form(3, random.Random(14), bound=BOUND)
        tr_h = sum(h.tensor[(i, i)] for i in range(3))
        assert scalar_curvature(kulkarni_nomizu(h.tensor, g)) == 4 * tr_h

    def test_signature_aware_trace(self):
        sig = MetricSignature(2, 1)
        g = sig.metric()
        h = random_symmetric_form(3, random.Random(15), bound=BOUND)
        tr_h = sum(
            sig.inverse_metric()[(i, i)] * h.tensor[(i, i)] for i in range(3)
        )
        assert scalar_curvature(kulkarni_nomizu(h.tensor, g), signature=sig) == 4 * tr_h
