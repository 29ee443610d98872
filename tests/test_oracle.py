"""Tests for the exact pointwise torsion oracle."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import numpy as np
import pytest

from conftest import BOUND, flat, random_family_member, sphere
from killingtensor import (
    InvalidArgument,
    ModelPoint,
    Tensor,
    benenti_rep,
    compute_point_data,
    integrable_oracle,
    metric_rep,
    r_to_s,
    random_curvature,
    random_invertible_matrix,
    random_tangent_vector,
    sample_point,
    tangent_basis,
    tangent_basis_from_vectors,
    tns_residuals,
)
from killingtensor import models as models_module
from killingtensor import oracle as oracle_module
from killingtensor import tensor as tensor_module


def all_zero(arr: np.ndarray) -> bool:
    return all(value == 0 for value in arr.flat)


def reference_anti3(arr: np.ndarray) -> np.ndarray:
    """Normalised total antisymmetrisation, by the signs of the permutations."""
    total = 0
    for perm in permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        total = total + (-1) ** inversions * arr.transpose(perm)
    return total / 6


def reference_point_data(S, model, point, basis):
    """``K``, ``nbar`` and the three residuals by Fraction einsums of the formulas."""
    s = r_to_s(S).tensor.array
    x = point.x.array
    frame = np.array([[v[(a,)] for a in range(model.dim)] for v in basis.vectors], dtype=object)
    gbar = model.gbar().array
    gram = np.array(basis.gram, dtype=object)
    gram_inverse = np.array(basis.gram_inverse, dtype=object)

    def einsum(subscripts, *operands):
        return np.einsum(subscripts, *operands, optimize="greedy")

    K = einsum("abcd,a,b,pc,qd->pq", s, x, x, frame, frame)
    # nbar[p,q,r] = B^{ij} (S[i,a2,b1,b2] S[j,c2,d1,d2]
    #               + S[i,c2,b1,b2] S[j,d1,a2,d2]) x^b1 x^b2 x^d1 e_p^a2 e_q^c2 e_r^d2
    nbar = einsum("ij,iabc,jdef,b,c,e,pa,qd,rf->pqr", gbar, s, s, x, x, x, frame, frame, frame)
    nbar = nbar + einsum(
        "ij,idbc,jeaf,b,c,e,pa,qd,rf->pqr", gbar, s, s, x, x, x, frame, frame, frame
    )
    n_up = einsum("ij,jkl->ikl", gram_inverse, nbar)
    torsion = (n_up - n_up.transpose(0, 2, 1)) / 2
    k_sq = einsum("ij,jk,kl->il", K, gram_inverse, K)
    residuals = tuple(
        reference_anti3(einsum("ad,dbc->abc", m, torsion)) for m in (gram, K, k_sq)
    )
    return K, nbar, residuals


def canonical_support(residual: np.ndarray) -> int:
    """Nonzero components of an order-3 residual at increasing triples."""
    return sum(residual[idx] != 0 for idx in combinations(range(residual.shape[0]), 3))


def reference_supports(S, model, point):
    """The three residual supports at a point, by the Fraction formulas."""
    residuals = reference_point_data(S, model, point, tangent_basis(point))[2]
    return tuple(canonical_support(res) for res in residuals)


def record_blocks(monkeypatch):
    """Wrap the oracle's kernel; the returned list collects each call's point count."""
    sizes = []
    original = oracle_module._block

    def recording(s_arr, b_arr, bases, *index):
        sizes.append(len(bases))
        assert len(bases) <= oracle_module._BLOCK
        return original(s_arr, b_arr, bases, *index)

    monkeypatch.setattr(oracle_module, "_block", recording)
    return sizes


class TestPointData:
    @pytest.mark.parametrize(
        "model", [sphere(3), flat(3), sphere(2, 1), sphere(4), flat(4)], ids=repr
    )
    def test_metric_representative_gives_twice_the_gram_matrix(self, model):
        data = compute_point_data(
            metric_rep(model), model, sample_point(model, 1, bound=BOUND)
        )
        assert np.array_equal(data.K, 2 * data.gram)

    def test_accepts_raw_coordinates(self):
        model = sphere(3)
        data = compute_point_data(metric_rep(model), model, [1, 0, 0])
        assert data.x.x == Tensor.from_nested([1, 0, 0])
        with pytest.raises(InvalidArgument, match="membership"):
            compute_point_data(metric_rep(model), model, [1, 1, 0])

    def test_input_validation(self):
        model = sphere(3)
        point = sample_point(model, 2, bound=BOUND)
        with pytest.raises(InvalidArgument, match="does not match"):
            compute_point_data(metric_rep(sphere(4)), model, point)
        other = sample_point(model, 3, bound=BOUND)
        rng = random.Random(4)
        basis_elsewhere = tangent_basis_from_vectors(
            other,
            [random_tangent_vector(other, rng, bound=BOUND) for _ in range(2)],
        )
        with pytest.raises(InvalidArgument, match="different point"):
            compute_point_data(metric_rep(model), model, point, basis_elsewhere)
        with pytest.raises(InvalidArgument, match="CurvatureTensor"):
            compute_point_data(Tensor.zeros(3, 4), model, point)


class TestResiduals:
    @pytest.mark.parametrize("model", [sphere(4), flat(4)], ids=repr)
    def test_metric_representative_is_torsion_free(self, model):
        rng = random.Random(5)
        S = metric_rep(model)
        for _ in range(3):
            data = compute_point_data(S, model, sample_point(model, rng, bound=BOUND))
            for res in tns_residuals(data):
                assert all_zero(res)

    def test_random_inputs_fail_at_dimension_four(self):
        model = sphere(4)
        S = random_curvature(4, random.Random(6), bound=BOUND)
        data = compute_point_data(S, model, sample_point(model, 7, bound=BOUND))
        res1, res2, res3 = tns_residuals(data)
        assert not all_zero(res1)

    def test_dimension_three_is_vacuous(self):
        # The tangent space is two-dimensional, so order-3 antisymmetric
        # residuals vanish for every input.
        for model in [sphere(3), flat(3)]:
            S = random_curvature(3, random.Random(8), bound=BOUND)
            data = compute_point_data(S, model, sample_point(model, 9, bound=BOUND))
            for res in tns_residuals(data):
                assert all_zero(res)

    def test_verdicts_do_not_depend_on_the_frame(self):
        model = sphere(4)
        point = sample_point(model, 10, bound=BOUND)
        rng = random.Random(11)
        custom = tangent_basis_from_vectors(
            point, [random_tangent_vector(point, rng, bound=BOUND) for _ in range(3)]
        )
        for S, expect_zero in [
            (metric_rep(model), True),
            (random_curvature(4, random.Random(12), bound=BOUND), False),
        ]:
            canonical = tns_residuals(compute_point_data(S, model, point))
            reframed = tns_residuals(compute_point_data(S, model, point, custom))
            assert all_zero(canonical[0]) is expect_zero
            assert all_zero(reframed[0]) is expect_zero


class TestAgainstFractionFormulas:
    """The integer core reproduces the Fraction formulas exactly, on inputs
    with entries up to 50, well above the suite's BOUND."""

    @pytest.mark.parametrize(
        "model", [sphere(3), sphere(2, 1), flat(3), sphere(4), sphere(3, 1), flat(4)], ids=repr
    )
    @pytest.mark.parametrize("kind", ["benenti", "random"])
    def test_point_data_and_residuals(self, model, kind):
        rng = random.Random(f"{model!r}-{kind}")
        if kind == "benenti":
            S = benenti_rep(model, random_invertible_matrix(model.dim, rng, bound=50))
        else:
            S = random_curvature(model.dim, rng, bound=50)
        point = sample_point(model, rng, bound=50)
        data = compute_point_data(S, model, point)
        K, nbar, residuals = reference_point_data(S, model, point, data.basis)
        assert np.array_equal(data.K, K)
        assert np.array_equal(data.nbar, nbar)
        assert np.array_equal(data.gram, np.array(data.basis.gram, dtype=object))
        assert np.array_equal(data.gram_inverse, np.array(data.basis.gram_inverse, dtype=object))
        for got, expected in zip(tns_residuals(data), residuals):
            assert np.array_equal(got, expected)
        if kind == "random" and model.dim == 4 and not model.is_flat:
            assert not all_zero(residuals[0])


class TestOracle:
    @pytest.mark.parametrize("model", [sphere(4), flat(4)], ids=repr)
    def test_passes_on_known_integrable_inputs(self, model):
        A = random_invertible_matrix(model.dim, random.Random(13), bound=BOUND)
        for S in [metric_rep(model), benenti_rep(model, A)]:
            report = integrable_oracle(S, model, num_points=3, seed=14, bound=BOUND)
            assert report.passes
            assert report.conditions_pass == (True, True, True)
            assert report.witnesses == (None, None, None)
            assert report.point_supports == ((0, 0, 0),) * 3

    def test_family_members_pass_on_the_sphere(self):
        model = sphere(4)
        S = random_family_member(model, random.Random(15))
        assert integrable_oracle(S, model, num_points=3, seed=16, bound=BOUND).passes

    def test_fails_with_witnesses_on_generic_inputs(self):
        model = sphere(4)
        S = random_curvature(4, random.Random(17), bound=BOUND)
        report = integrable_oracle(S, model, num_points=3, seed=18, bound=BOUND)
        assert not report.passes
        first_witness = report.witnesses[0]
        assert first_witness is not None
        assert report.point_supports[first_witness][0] > 0
        assert not report.conditions_pass[0]
        assert report.witness_points()[0] is report.points[first_witness]
        # The witness is the first failing point.
        for earlier in range(first_witness):
            assert report.point_supports[earlier][0] == 0

    def test_report_metadata_and_determinism(self):
        model = sphere(2, 1)
        S = metric_rep(model)
        first = integrable_oracle(S, model, num_points=4, seed=19, bound=BOUND)
        second = integrable_oracle(S, model, num_points=4, seed=19, bound=BOUND)
        assert first.model_kind == "sphere"
        assert first.signature == (2, 1)
        assert first.dim == 3
        assert first.num_points == 4
        assert first.seed == 19
        assert [p.x for p in first.points] == [p.x for p in second.points]
        shifted = integrable_oracle(S, model, num_points=4, seed=20, bound=BOUND)
        assert [p.x for p in first.points] != [p.x for p in shifted.points]

    def test_oracle_validation(self):
        model = sphere(3)
        with pytest.raises(InvalidArgument, match="num_points"):
            integrable_oracle(metric_rep(model), model, num_points=0)
        with pytest.raises(InvalidArgument, match="does not match"):
            integrable_oracle(metric_rep(sphere(4)), model)
        with pytest.raises(InvalidArgument, match="bound must be at least 1"):
            integrable_oracle(metric_rep(model), model, bound=0)


class TestBlocksAgainstFractionFormulas:
    """``integrable_oracle`` runs its points in blocks of ``_BLOCK``.  On
    entries up to 50, every point's supports, and so the witnesses, match
    the Fraction formulas across block edges, and no kernel call gets
    more than one block.  The block is shrunk to 2 here so that the
    reference, at 20-100 ms a point, stays cheap."""

    @pytest.mark.parametrize(
        "model",
        [m for n in (4, 5) for m in (sphere(n), sphere(n - 1, 1), flat(n), flat(n - 1, 1))],
        ids=repr,
    )
    def test_supports_and_witnesses(self, model, monkeypatch):
        block = 2
        monkeypatch.setattr(oracle_module, "_BLOCK", block)
        sizes = record_blocks(monkeypatch)
        rng = random.Random(f"blocks-{model!r}")
        S = random_curvature(model.dim, rng, bound=50)
        seed = rng.randrange(2**32)
        report = integrable_oracle(S, model, num_points=2 * block + 1, seed=seed, bound=50)
        assert sizes == [block, block, 1]
        expected = tuple(reference_supports(S, model, point) for point in report.points)
        assert report.point_supports == expected
        assert report.witnesses == tuple(
            next((index for index, row in enumerate(expected) if row[c]), None) for c in range(3)
        )

    def test_full_blocks_match_single_points(self, monkeypatch):
        # A point gets the same integer arrays in a full block as alone.
        model = sphere(4, 1)
        S = random_curvature(5, random.Random(25), bound=50)
        block = oracle_module._BLOCK
        sizes = record_blocks(monkeypatch)
        report = integrable_oracle(S, model, num_points=2 * block + 1, seed=26, bound=50)
        assert sizes == [block, block, 1]
        (s_arr, _), (b_arr, _) = oracle_module._model_factors(S, model)
        bases = [tangent_basis(point) for point in report.points[:block]]
        batched = oracle_module._block(s_arr, b_arr, bases, *np.indices((4, 4, 4)))
        for index, (point, row) in enumerate(zip(report.points, report.point_supports)):
            data = compute_point_data(S, model, point)
            assert row == tuple(canonical_support(res) for res in tns_residuals(data))
            if index < block:
                alone = (data.k_image[0], data.nbar_image[0], data.residual_ints)
                for got, want in zip(batched, alone):
                    assert got[index].tolist() == want.tolist()


class TestNoConversionsInTheOracle:
    """``integrable_oracle`` reads the frame, Gram and inverse images the
    tangent basis keeps: the one Fraction rescale per drawn parameter
    vector is the only conversion, and no Fraction view of a tensor is
    built.  A Lorentzian sphere parameter with g(t, t) = −1 is redrawn."""

    @pytest.mark.parametrize(
        "model", [sphere(4), sphere(3, 1), flat(4), flat(3, 1)], ids=repr
    )
    def test_one_vector_rescale_per_point(self, model, monkeypatch):
        S = random_curvature(model.dim, random.Random(21), bound=BOUND)
        calls = []
        for name in ("_rescale", "_fraction_view"):
            original = getattr(tensor_module, name)
            monkeypatch.setattr(
                tensor_module, name,
                lambda array, *rest, name=name, original=original: (
                    calls.append((name, array.ndim)) or original(array, *rest)
                ),
            )
        draws = []
        monkeypatch.setattr(
            models_module, "random_vector",
            lambda *args, original=models_module.random_vector: (
                draws.append(args) or original(*args)
            ),
        )
        integrable_oracle(S, model, num_points=4, seed=22, bound=BOUND)
        assert len(draws) >= 4
        assert calls == [("_rescale", 1)] * len(draws)

    @pytest.mark.parametrize(
        "model", [sphere(4), sphere(3, 1), flat(4), flat(3, 1)], ids=repr
    )
    def test_point_data_and_residuals_make_no_conversion(self, model, monkeypatch):
        # compute_point_data keeps the integer images of K and nbar, and
        # tns_residuals reads them: no Tensor is rebuilt from Fractions.
        S = random_curvature(model.dim, random.Random(23), bound=BOUND)
        point = sample_point(model, random.Random(24), bound=BOUND)
        expected = tns_residuals(compute_point_data(S, model, point))
        calls = []
        for name in ("_rescale", "_fraction_view"):
            original = getattr(tensor_module, name)
            monkeypatch.setattr(
                tensor_module, name,
                lambda array, *rest, name=name, original=original: (
                    calls.append((name, array.ndim)) or original(array, *rest)
                ),
            )
        data = compute_point_data(S, model, point)
        residuals = tns_residuals(data)
        assert calls == []
        for got, want in zip(residuals, expected):
            assert got.tolist() == want.tolist()
        # The images and the Fraction arrays hold the same values.
        for (ints, scale), values in ((data.k_image, data.K), (data.nbar_image, data.nbar)):
            assert (ints * scale).tolist() == values.tolist()
