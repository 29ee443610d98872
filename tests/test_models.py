"""Tests for embedded model spaces, exact points, and tangent frames."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOUND, flat, sphere
from killingtensor import models as models_module
from killingtensor._linalg import determinant, inverse_image
from killingtensor._util import random_vector
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
    tensor_product,
)

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=5
)


def custom_flat() -> ModelSpace:
    # g = diag(+, +, -) and u = (5/4, 0, 3/4): g(u, u) = 1 with scale 1/4.
    u = Tensor.from_nested([Fraction(5, 4), Fraction(0), Fraction(3, 4)])
    return ModelSpace(ModelKind.FLAT, MetricSignature(2, 1), height_vector=u)


def wide_flat() -> ModelSpace:
    # u = ((b² + a²), 0, 2ab) / (b² − a²) has g(u, u) = 1 on (2,1), and
    # its numerators pass 2^62.
    a, b = 3**30, 2**50
    u = [Fraction(b * b + a * a, b * b - a * a), Fraction(0), Fraction(2 * a * b, b * b - a * a)]
    return ModelSpace(ModelKind.FLAT, MetricSignature(2, 1), height_vector=Tensor.from_nested(u))


def reference_sample(model: ModelSpace, rng: random.Random, bound: int) -> tuple[Tensor, int]:
    """A sampled point by Tensor arithmetic on Fractions, as the integer
    formulas' predecessor computed it, and the number of parameters drawn."""
    if model.is_flat:
        u = model.height_vector
        t_raw = Tensor.from_nested(random_vector(rng, model.dim, bound))
        return u + (t_raw - u * model.pair(t_raw, u)), 1
    draws = 0
    while True:
        draws += 1
        t = Tensor.from_nested([0] + random_vector(rng, model.dim - 1, bound))
        tau = model.pair(t, t)
        if tau != -1:
            e = Tensor.basis_vector(model.dim, 0)
            return (e * (1 - tau) + t * 2) / (1 + tau), draws


def fraction_inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss–Jordan inverse over Fractions."""
    n = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if rows[r][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                factor = rows[i][k]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def reference_frame(model: ModelSpace, x: Tensor):
    """The canonical frame at ``x`` by Tensor projection, ``v_k = E_k −
    g(E_k, ω) ω``: its rows over the gcd / lcm of the vectors' scales, that
    scale, and the Gram matrix and its inverse as Fractions."""
    omega = model.normal_at(x)
    magnitudes = [abs(v) for v in omega.array.tolist()]
    dropped = magnitudes.index(max(magnitudes))
    kept = [Tensor.basis_vector(model.dim, k) for k in range(model.dim) if k != dropped]
    vectors = [e - omega * model.pair(e, omega) for e in kept]
    scale = Fraction(
        math.gcd(*(v._scale.numerator for v in vectors)),
        math.lcm(*(v._scale.denominator for v in vectors)),
    )
    frame = [[int(v._scale / scale) * c for c in v._ints.tolist()] for v in vectors]
    gram = [[model.pair(v, w) for w in vectors] for v in vectors]
    return frame, scale, gram, fraction_inverse(gram)


def image(tensor: Tensor) -> tuple[list, np.dtype, Fraction]:
    return tensor._ints.tolist(), tensor._ints.dtype, tensor._scale


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

    @pytest.mark.parametrize(
        "model",
        [
            flat(3),
            flat(4, 1),
            custom_flat(),
            wide_flat(),
        ],
        ids=["flat(3)", "flat(4,1)", "u=(5/4,0,3/4)", "u-past-2^62"],
    )
    def test_flat_gbar_is_the_tensor_arithmetic(self, model):
        u = model.height_vector
        expected = model.inverse_metric() - tensor_product(u, u)
        assert image(model.gbar()) == image(expected)

    @pytest.mark.parametrize(
        "model",
        [sphere(4), sphere(3, 1), flat(4), custom_flat()],
        ids=["sphere(4,0)", "sphere(3,1)", "flat(4)", "u=(5/4,0,3/4)"],
    )
    def test_gbar_is_built_once_per_model(self, model):
        assert model.gbar() is model.gbar()
        # A fresh build, and an equal model's, are the same tensor.
        fresh = ModelSpace._gbar.func(model)
        assert fresh is not model.gbar() and image(fresh) == image(model.gbar())
        twin = ModelSpace(model.kind, model.signature, model.height_vector)
        assert twin == model and image(twin.gbar()) == image(model.gbar())

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

    @pytest.mark.parametrize(
        "model",
        [sphere(3), sphere(2, 1), flat(3), flat(2, 1), custom_flat(), wide_flat()],
        ids=["sphere(3)", "sphere(2,1)", "flat(3)", "flat(2,1)", "u=(5/4,0,3/4)", "u-past-2^62"],
    )
    def test_integer_membership_agrees_with_the_residual(self, model):
        # ModelPoint tests membership on the integer image; the Fraction
        # residual decides the same way and gives the error message.
        candidates = [Tensor.from_nested([0] * model.dim)]
        for seed in range(4):
            x = sample_point(model, seed, bound=2**40 if seed % 2 else BOUND).x
            shifted = Tensor.from_nested([v + (i == 1) for i, v in enumerate(x.array.tolist())])
            candidates += [x, -x, x * Fraction(3, 2), shifted]
        for x in candidates:
            residual = model.membership_residual(x)
            if residual == 0:
                assert ModelPoint(model, x).x == x
            else:
                with pytest.raises(InvalidArgument) as info:
                    ModelPoint(model, x)
                assert str(info.value) == (
                    f"point is not on the {model.kind.value} model: membership residual {residual}"
                )

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


class TestIntegerSamplerAgainstFractionFormulas:
    """``models._sample_blocks`` draws its points with the random calls of
    ``random_vector`` and maps them by closed integer formulas; its points,
    frames, Gram matrices and inverses equal the Tensor arithmetic on
    Fractions it replaced, image for image, and so do ``sample_point`` and
    ``tangent_basis``.  At bound 2^40 every point image passes 2^62 and is
    held in Python ints."""

    MODELS = [
        m for n in range(3, 7) for m in (sphere(n), sphere(n - 1, 1), flat(n), flat(n - 1, 1))
    ] + [custom_flat()]

    @pytest.mark.parametrize("bound", [9, 2**40])
    @pytest.mark.parametrize(
        "model", MODELS, ids=[repr(m) for m in MODELS[:-1]] + ["u=(5/4,0,3/4)"]
    )
    def test_blocks_match_the_fraction_formulas(self, model, bound):
        seeds = [101, 102, 103]
        blocks = list(models_module._sample_blocks(model, seeds, 2, bound))
        assert [len(block[0]) for block in blocks] == [2, 1]
        points = [point for block in blocks for point in block[0]]
        xs, frames, grams, inverses = (
            np.concatenate([block[i] for block in blocks]) for i in range(1, 5)
        )
        n = model.dim - 1
        assert xs.shape == (3, model.dim) and frames.shape == (3, n, model.dim)
        assert grams.shape == inverses.shape == (3, n, n)
        for index, seed in enumerate(seeds):
            x, _ = reference_sample(model, random.Random(seed), bound)
            point = points[index]
            assert image(point.x) == image(x)
            assert image(sample_point(model, seed, bound=bound).x) == image(x)
            assert x._ints.dtype == (object if bound > 2**32 else np.int64)
            assert xs[index].tolist() == x._ints.tolist()

            frame, scale, gram, inverse = reference_frame(model, x)
            basis = tangent_basis(point)
            assert frames[index].tolist() == frame
            assert basis.frame_image[0].tolist() == frame and basis.frame_image[1] == scale
            assert basis.gram_image[1] == scale * scale
            assert (grams[index] * basis.gram_image[1]).tolist() == gram
            assert (inverses[index] * basis.gram_inverse_image[1]).tolist() == inverse
            for stacked, name in zip(
                (frames, grams, inverses), ("frame_image", "gram_image", "gram_inverse_image")
            ):
                assert stacked[index].tolist() == getattr(basis, name)[0].tolist()
            assert basis.gram == tuple(map(tuple, gram))
            assert basis.gram_inverse == tuple(map(tuple, inverse))

    @pytest.mark.parametrize("model, seed", [(sphere(2, 1), 218), (sphere(3, 1), 273)], ids=repr)
    def test_lorentzian_redraw(self, model, seed, monkeypatch):
        x, draws = reference_sample(model, random.Random(seed), 9)
        assert draws == 2
        calls = []
        monkeypatch.setattr(
            models_module, "_draw",
            lambda *args, original=models_module._draw: calls.append(args) or original(*args),
        )
        [(points, xs, *_)] = models_module._sample_blocks(model, [seed], 16, 9)
        assert len(calls) == 2
        assert image(points[0].x) == image(x)
        assert xs[0].tolist() == x._ints.tolist()

    @pytest.mark.parametrize("model", [flat(4), sphere(4)], ids=repr)
    def test_the_flat_frame_is_built_once(self, model, monkeypatch):
        calls = []
        monkeypatch.setattr(
            models_module, "_frame",
            lambda *args, original=models_module._frame: calls.append(args) or original(*args),
        )
        blocks = list(models_module._sample_blocks(model, list(range(5)), 2, 9))
        assert len(calls) == (1 if model.is_flat else 5)
        frames = np.concatenate([block[2] for block in blocks])
        assert [f.tolist() for f in frames] == [
            tangent_basis(point).frame_image[0].tolist() for block in blocks for point in block[0]
        ]

    def test_bound_is_checked(self):
        with pytest.raises(InvalidArgument, match="bound must be at least 1, got 0"):
            next(models_module._sample_blocks(sphere(3), [1], 16, 0))
        with pytest.raises(InvalidArgument, match="bound must be at least 1, got 0"):
            sample_point(flat(3), 1, bound=0)


class TestClosedFormFrame:
    """``models._frame`` builds the Gram matrix and its inverse from closed
    formulas, ``(d² Λ − a d u uᵀ) / c²`` and ``w_r² Λ + η_r w′w′ᵀ`` over
    ``w_r²``.  They must equal ``frame · η · frameᵀ`` and the
    content-reduced inverse of ``_linalg.inverse_image``, with
    ``G · G⁻¹ = I`` exactly: on the sphere, both Lorentzian spheres and
    signature (N − 2, 2), where det G < 0 and the dropped index can lie in
    the minus block, and at bound 2^40, where the images pass 2^62."""

    @staticmethod
    def compare(model: ModelSpace, normal: Tensor) -> tuple[int, bool, int]:
        """Checks one frame; returns the dropped index, whether det G < 0
        and the bit length of the widest Gram or inverse image entry."""
        (frame, scale), (gram, gram_scale), (inverse, inverse_scale) = models_module._frame(
            model.signature, normal
        )
        signs = np.array([1] * model.signature.p + [-1] * model.signature.q, dtype=object)
        frame = np.array(frame, dtype=object)
        assert gram == (frame * signs @ frame.T).tolist()
        assert gram_scale == scale * scale
        adjugate, det = inverse_image(gram)
        content = math.gcd(*(v for row in adjugate for v in row))
        assert inverse == [[v // content for v in row] for row in adjugate]
        assert inverse_scale == content / (det * gram_scale) > 0
        n = model.dim - 1
        product = np.array(gram, dtype=object) @ np.array(inverse, dtype=object)
        assert (product * (gram_scale * inverse_scale)).tolist() == np.eye(n, dtype=int).tolist()
        magnitudes = [abs(v) for v in normal._ints.tolist()]
        widest = max(abs(v) for row in gram + inverse for v in row)
        return magnitudes.index(max(magnitudes)), determinant(gram) < 0, widest.bit_length()

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_closed_form_matches_the_elimination_on_spheres(self, dim):
        minus_block = negative = wide = 0
        for q in (0, 1, 2):
            if dim - q < 1:
                continue
            model = sphere(dim - q, q)
            # The elimination is slow on wide images: fewer points there.
            for bound, count in ((9, 24), (2**40, 4)):
                for seed in range(count):
                    x = sample_point(model, seed, bound=bound).x
                    dropped, below_zero, bits = self.compare(model, x)
                    minus_block += dropped >= model.signature.p
                    negative += below_zero
                    wide += bits > 62 and bound > 9
        assert negative > 0 and wide > 0
        # At N = 2 the first coordinate of a Lorentzian point dominates.
        assert minus_block > 0 or dim == 2

    @pytest.mark.parametrize("model", [custom_flat(), wide_flat()], ids=["u=(5/4,0,3/4)", "u-past-2^62"])
    def test_closed_form_on_the_flat_model(self, model):
        dropped, below_zero, _ = self.compare(model, model.height_vector)
        assert (dropped, below_zero) == (0, True)
