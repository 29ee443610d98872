"""Tests for embedded model spaces, exact points, and tangent frames."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOUND, flat, sphere
from killingtensor import (
    InvalidArgument,
    MetricSignature,
    ModelKind,
    ModelPoint,
    ModelSpace,
    Tensor,
    flat_point_from_parameter,
    killing_cov_deriv,
    killing_eval,
    killing_vector_eval,
    metric_rep,
    r_to_s,
    random_antisymmetric_matrix,
    random_curvature,
    random_tangent_vector,
    sample_point,
    sphere_point_from_parameter,
    tangent_basis,
    tangent_basis_from_vectors,
)

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=5
)


class TestModelSpace:
    def test_kind_parsing(self):
        assert ModelKind.parse("sphere") is ModelKind.SPHERE
        assert ModelKind.parse("  Flat ") is ModelKind.FLAT
        with pytest.raises(InvalidArgument, match="unknown model kind"):
            ModelKind.parse("torus")

    def test_sphere_needs_a_plus_sign(self):
        with pytest.raises(InvalidArgument, match="plus sign"):
            ModelSpace(ModelKind.SPHERE, MetricSignature(0, 3))

    def test_sphere_rejects_height_vector(self):
        with pytest.raises(InvalidArgument, match="height_vector"):
            ModelSpace(
                ModelKind.SPHERE,
                MetricSignature(3, 0),
                height_vector=Tensor.basis_vector(3, 0),
            )

    def test_flat_default_height_vector(self):
        model = flat(3)
        assert model.height_vector == Tensor.basis_vector(3, 0)
        assert model.pair(model.height_vector, model.height_vector) == 1

    def test_flat_custom_height_vector(self):
        # g = diag(+, +, -) and u = (5/4, 0, 3/4) has g(u, u) = 1 exactly.
        u = Tensor.from_nested([Fraction(5, 4), Fraction(0), Fraction(3, 4)])
        model = ModelSpace(ModelKind.FLAT, MetricSignature(2, 1), height_vector=u)
        assert model.pair(model.height_vector, model.height_vector) == 1
        with pytest.raises(InvalidArgument, match="unit norm"):
            ModelSpace(
                ModelKind.FLAT,
                MetricSignature(2, 1),
                height_vector=Tensor.from_nested([2, 0, 0]),
            )

    def test_dimension_and_metric(self):
        model = sphere(2, 1)
        assert model.dim == 3
        assert not model.is_flat
        assert model.metric() == MetricSignature(2, 1).metric()
        assert flat(4).is_flat

    def test_membership_residuals(self):
        s = sphere(3)
        assert s.membership_residual(Tensor.from_nested([1, 0, 0])) == 0
        assert s.membership_residual(Tensor.from_nested([1, 1, 0])) == 1
        f = flat(3)
        assert f.membership_residual(Tensor.from_nested([1, 7, -2])) == 0
        assert f.membership_residual(Tensor.from_nested([3, 0, 0])) == 2

    def test_gbar_on_sphere_is_the_inverse_metric(self):
        model = sphere(2, 1)
        assert model.gbar() == model.inverse_metric()

    def test_gbar_on_flat_is_degenerate_along_u(self):
        model = flat(3)
        gbar = model.gbar()
        u = model.height_vector
        # Contracting gbar with g·u on either slot gives zero: the kernel
        # contains the height direction.
        g = model.metric()
        gu = Tensor.from_nested(
            [sum(g[(a, b)] * u[(b,)] for b in range(3)) for a in range(3)]
        )
        for a in range(3):
            assert sum(gbar[(a, b)] * gu[(b,)] for b in range(3)) == 0


class TestModelPoint:
    def test_membership_is_validated(self):
        model = sphere(3)
        x = Tensor.from_nested([Fraction(3, 5), Fraction(4, 5), 0])
        point = ModelPoint(model, x)
        assert point.x == x
        with pytest.raises(InvalidArgument, match="membership residual"):
            ModelPoint(model, Tensor.from_nested([1, 1, 0]))

    def test_tangency_residual(self):
        model = sphere(3)
        point = ModelPoint(model, Tensor.from_nested([1, 0, 0]))
        assert point.tangency_residual(Tensor.basis_vector(3, 1)) == 0
        assert point.tangency_residual(Tensor.from_nested([2, 1, 0])) == 2
        with pytest.raises(InvalidArgument, match="not tangent"):
            point.require_tangent(Tensor.from_nested([1, 1, 1]))


class TestParametrisations:
    def test_sphere_worked_example(self):
        # Stereographic image of t = (0, 1/2, 0) on the Euclidean sphere.
        point = sphere_point_from_parameter(sphere(3), [0, Fraction(1, 2), 0])
        assert point.x == Tensor.from_nested([Fraction(3, 5), Fraction(4, 5), 0])

    @settings(max_examples=40, deadline=None)
    @given(t1=rationals, t2=rationals)
    def test_sphere_membership_is_exact(self, t1, t2):
        model = sphere(3)
        point = sphere_point_from_parameter(model, [0, t1, t2])
        assert model.membership_residual(point.x) == 0

    def test_sphere_parameter_validation(self):
        with pytest.raises(InvalidArgument, match="first component zero"):
            sphere_point_from_parameter(sphere(3), [1, 0, 0])
        with pytest.raises(InvalidArgument, match="sphere model"):
            sphere_point_from_parameter(flat(3), [0, 1, 0])
        # In indefinite signature the parameter can be null for the map.
        with pytest.raises(InvalidArgument, match="undefined"):
            sphere_point_from_parameter(sphere(1, 1), [0, 1])

    def test_flat_worked_example(self):
        point = flat_point_from_parameter(flat(3), [5, Fraction(1, 2), -3])
        assert point.x == Tensor.from_nested([1, Fraction(1, 2), -3])

    @settings(max_examples=40, deadline=None)
    @given(t0=rationals, t1=rationals, t2=rationals)
    def test_flat_membership_is_exact(self, t0, t1, t2):
        model = flat(2, 1)
        point = flat_point_from_parameter(model, [t0, t1, t2])
        assert model.membership_residual(point.x) == 0

    def test_flat_parameter_needs_flat_model(self):
        with pytest.raises(InvalidArgument, match="flat model"):
            flat_point_from_parameter(sphere(3), [0, 1, 0])

    @pytest.mark.parametrize(
        "model",
        [sphere(3), sphere(2, 1), flat(3), flat(2, 1), sphere(4), flat(4)],
        ids=repr,
    )
    def test_sample_point_lies_on_the_model(self, model):
        rng = random.Random(5)
        for _ in range(5):
            point = sample_point(model, rng, bound=BOUND)
            assert model.membership_residual(point.x) == 0

    def test_sample_point_is_deterministic(self):
        model = sphere(2, 1)
        assert sample_point(model, 7).x == sample_point(model, 7).x
        assert sample_point(model, 7).x != sample_point(model, 8).x


class TestTangentFrames:
    @pytest.mark.parametrize(
        "model",
        [sphere(3), sphere(2, 1), flat(3), sphere(4), sphere(3, 1), flat(3, 1), sphere(5)],
        ids=repr,
    )
    def test_canonical_basis(self, model):
        point = sample_point(model, 3, bound=BOUND)
        basis = tangent_basis(point)
        assert len(basis.vectors) == model.dim - 1
        for v in basis.vectors:
            assert point.tangency_residual(v) == 0
        n = len(basis.vectors)
        for i in range(n):
            for j in range(n):
                assert basis.gram[i][j] == model.pair(
                    basis.vectors[i], basis.vectors[j]
                )
                product = sum(
                    basis.gram[i][k] * basis.gram_inverse[k][j] for k in range(n)
                )
                assert product == (1 if i == j else 0)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(2, 6),
        kind=st.sampled_from(["sphere", "lorentz", "flat", "lorentz-flat"]),
        seed=st.integers(0, 10**6),
        bound=st.sampled_from([1, 3, 9, 1000, 10**12]),
    )
    def test_integer_frame_matches_the_tensor_projection(self, dim, kind, seed, bound):
        # The frame as it was first built: each v_k = E_k - g(E_k, w) w by
        # Tensor arithmetic, stacked over the gcd / lcm of the vectors' scales.
        q = 1 if kind.startswith("lorentz") else 0
        model = (flat if kind.endswith("flat") else sphere)(dim - q, q)
        point = sample_point(model, seed, bound=bound)
        omega = model.normal_at(point.x)
        magnitudes = [abs(v) for v in omega.array.tolist()]
        dropped = magnitudes.index(max(magnitudes))
        kept = [Tensor.basis_vector(dim, k) for k in range(dim) if k != dropped]
        vectors = tuple(e - omega * model.pair(e, omega) for e in kept)
        scale = Fraction(
            math.gcd(*(v._scale.numerator for v in vectors)),
            math.lcm(*(v._scale.denominator for v in vectors)),
        )
        frame = [[int(v._scale / scale) * x for x in v._ints.tolist()] for v in vectors]

        basis = tangent_basis(point)
        assert basis.vectors == vectors
        assert [(v._ints.tolist(), v._ints.dtype, v._scale) for v in basis.vectors] == [
            (v._ints.tolist(), v._ints.dtype, v._scale) for v in vectors
        ]
        assert basis.frame_image[0].tolist() == frame and basis.frame_image[1] == scale
        twin = tangent_basis_from_vectors(point, vectors)
        assert repr(basis) == repr(twin)
        for name in ("frame_image", "gram_image", "gram_inverse_image"):
            ints, image_scale = getattr(basis, name)
            assert ints.tolist() == getattr(twin, name)[0].tolist()
            assert image_scale == getattr(twin, name)[1]
        assert basis.gram == twin.gram and basis.gram_inverse == twin.gram_inverse

    def test_basis_from_vectors_roundtrip(self):
        model = sphere(3)
        point = sample_point(model, 11, bound=BOUND)
        rng = random.Random(12)
        vectors = [random_tangent_vector(point, rng, bound=BOUND) for _ in range(2)]
        basis = tangent_basis_from_vectors(point, vectors)
        assert basis.vectors == tuple(vectors)

    def test_basis_from_vectors_validation(self):
        model = sphere(3)
        point = ModelPoint(model, Tensor.from_nested([1, 0, 0]))
        e1 = Tensor.basis_vector(3, 1)
        e2 = Tensor.basis_vector(3, 2)
        with pytest.raises(InvalidArgument, match="needs 2 vectors"):
            tangent_basis_from_vectors(point, [e1])
        with pytest.raises(InvalidArgument, match="not tangent"):
            tangent_basis_from_vectors(point, [e1, Tensor.from_nested([1, 1, 0])])
        with pytest.raises(InvalidArgument, match="do not span"):
            tangent_basis_from_vectors(point, [e1, e1 * 2])

    @pytest.mark.parametrize("model", [sphere(3), flat(2, 1)], ids=repr)
    def test_random_tangent_vectors_are_tangent(self, model):
        point = sample_point(model, 2, bound=BOUND)
        rng = random.Random(9)
        for _ in range(5):
            v = random_tangent_vector(point, rng, bound=BOUND)
            assert point.tangency_residual(v) == 0


class TestKillingEvaluation:
    @pytest.mark.parametrize(
        "model", [sphere(3), flat(3), sphere(2, 1), sphere(4)], ids=repr
    )
    def test_metric_representative_evaluates_to_twice_the_metric(self, model):
        S = r_to_s(metric_rep(model))
        rng = random.Random(4)
        for _ in range(3):
            point = sample_point(model, rng, bound=BOUND)
            v = random_tangent_vector(point, rng, bound=BOUND)
            w = random_tangent_vector(point, rng, bound=BOUND)
            assert killing_eval(S, point, v, w) == 2 * model.pair(v, w)

    def test_evaluation_is_symmetric_and_bilinear(self):
        model = sphere(3)
        S = r_to_s(random_curvature(3, random.Random(6), bound=BOUND))
        point = sample_point(model, 7, bound=BOUND)
        rng = random.Random(8)
        v = random_tangent_vector(point, rng, bound=BOUND)
        w = random_tangent_vector(point, rng, bound=BOUND)
        assert killing_eval(S, point, v, w) == killing_eval(S, point, w, v)
        assert killing_eval(S, point, v * 3, w) == 3 * killing_eval(S, point, v, w)
        assert killing_eval(S, point, v + w, w) == killing_eval(
            S, point, v, w
        ) + killing_eval(S, point, w, w)

    def test_evaluation_rejects_non_tangent_arguments(self):
        model = sphere(3)
        S = r_to_s(metric_rep(model))
        point = ModelPoint(model, Tensor.from_nested([1, 0, 0]))
        with pytest.raises(InvalidArgument, match="not tangent"):
            killing_eval(S, point, Tensor.from_nested([1, 0, 0]), Tensor.basis_vector(3, 1))
        with pytest.raises(InvalidArgument, match="dimension"):
            killing_eval(
                r_to_s(metric_rep(sphere(4))),
                point,
                Tensor.basis_vector(3, 1),
                Tensor.basis_vector(3, 1),
            )

    def test_killing_vector_evaluation(self):
        model = sphere(3)
        point = ModelPoint(model, Tensor.from_nested([1, 0, 0]))
        A = random_antisymmetric_matrix(3, random.Random(3), bound=BOUND).tensor
        v = Tensor.basis_vector(3, 1)
        expected = sum(
            A[(a, b)] * point.x[(a,)] * v[(b,)] for a in range(3) for b in range(3)
        )
        assert killing_vector_eval(A, point, v) == expected
        with pytest.raises(InvalidArgument, match="order-2"):
            killing_vector_eval(Tensor.basis_vector(3, 0), point, v)

    @pytest.mark.parametrize("model", [sphere(3), flat(3), sphere(2, 1)], ids=repr)
    def test_covariant_derivative_symmetrisation_vanishes(self, model):
        # The fully symmetrised covariant derivative is the Killing
        # equation; it must vanish identically for symmetry-class tensors.
        S = r_to_s(random_curvature(model.dim, random.Random(13), bound=BOUND))
        rng = random.Random(14)
        point = sample_point(model, rng, bound=BOUND)
        c = random_tangent_vector(point, rng, bound=BOUND)
        a = random_tangent_vector(point, rng, bound=BOUND)
        b = random_tangent_vector(point, rng, bound=BOUND)
        total = sum(
            killing_cov_deriv(S, point, *triple)
            for triple in [
                (c, a, b), (c, b, a), (a, c, b), (a, b, c), (b, c, a), (b, a, c),
            ]
        )
        assert total == 0

    def test_covariant_derivative_of_the_metric_vanishes(self):
        model = sphere(3)
        S = r_to_s(metric_rep(model))
        rng = random.Random(15)
        point = sample_point(model, rng, bound=BOUND)
        vectors = [random_tangent_vector(point, rng, bound=BOUND) for _ in range(3)]
        assert killing_cov_deriv(S, point, *vectors) == 0
