"""The random generators against their Fraction-array predecessors.

Every generator draws its rationals with ``_util.draw`` and builds its
integer image straight from that one draw.  The references below are the
generators as they were before: one ``Fraction`` per ``randint`` pair,
placed in an object array (or Fraction vectors) and turned into a
:class:`Tensor` by its public constructor.  Both sides see the same seed,
and must give the same document, dtype and scale.  At bounds 2^40 and
2^70 the images pass 2^62 and are held in Python ints.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import flat, sphere
from killingtensor import (
    AntisymmetricForm,
    InvalidArgument,
    ModelKind,
    SymmetricForm,
    Tensor,
    project_to_curvature,
    random_antisymmetric_matrix,
    random_curvature,
    random_invertible_matrix,
    random_symmetric_form,
)
from killingtensor._linalg import determinant
from killingtensor._util import random_fraction, random_vector
from killingtensor.io import tensor_to_document
from killingtensor.models import random_tangent_vector, sample_point

DIMS = [1, 2, 3, 4, 5]
BOUNDS = [1, 3, 9, 2**40, 2**70]


def fraction(rng: random.Random, bound: int) -> Fraction:
    if bound < 1:
        raise InvalidArgument(f"bound must be at least 1, got {bound}")
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def reference_symmetric_form(dim, rng, bound):
    arr = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(i, dim):
            arr[i, j] = arr[j, i] = fraction(rng, bound)
    return SymmetricForm(Tensor(arr, dim=dim))


def reference_antisymmetric_matrix(dim, rng, bound):
    arr = np.empty((dim, dim), dtype=object)
    arr.fill(Fraction(0))
    for i in range(dim):
        for j in range(i + 1, dim):
            value = fraction(rng, bound)
            arr[i, j], arr[j, i] = value, -value
    return AntisymmetricForm(Tensor(arr, dim=dim))


def reference_invertible_matrix(dim, rng, bound):
    while True:
        rows = [[fraction(rng, bound) for _ in range(dim)] for _ in range(dim)]
        if determinant(rows) != 0:
            return Tensor.from_nested(rows)


def reference_curvature(dim, rng, bound):
    arr = np.empty((dim,) * 4, dtype=object)
    for idx in np.ndindex(arr.shape):
        arr[idx] = fraction(rng, bound)
    return project_to_curvature(Tensor(arr, dim=dim))


def reference_sample(model, rng, bound):
    """Tensor arithmetic on a Fraction parameter, redrawn where g(t, t) = -1."""
    if model.kind is ModelKind.FLAT:
        u = model.height_vector
        raw = Tensor.from_nested([fraction(rng, bound) for _ in range(model.dim)])
        return u + (raw - u * model.pair(raw, u))
    while True:
        t = Tensor.from_nested([0] + [fraction(rng, bound) for _ in range(model.dim - 1)])
        tau = model.pair(t, t)
        if tau != -1:
            return (Tensor.basis_vector(model.dim, 0) * (1 - tau) + t * 2) / (1 + tau)


def reference_tangent(point, rng, bound):
    model = point.model
    omega = model.normal_at(point.x)
    raw = Tensor.from_nested([fraction(rng, bound) for _ in range(model.dim)])
    return raw - omega * model.pair(raw, omega)


def pinned(tensor) -> tuple:
    """What must not change: the document, the image's dtype and the scale."""
    tensor = getattr(tensor, "tensor", tensor)
    return tensor_to_document(tensor), tensor._ints.dtype, tensor._scale


GENERATORS = [
    (random_symmetric_form, reference_symmetric_form),
    (random_antisymmetric_matrix, reference_antisymmetric_matrix),
    (random_invertible_matrix, reference_invertible_matrix),
    (random_curvature, reference_curvature),
]
IDS = [generator.__name__ for generator, _ in GENERATORS]


class TestGeneratorsMatchTheFractionRoute:
    @pytest.mark.parametrize("generator, reference", GENERATORS, ids=IDS)
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_same_outputs(self, generator, reference, bound):
        wide = 0
        for dim in DIMS:
            for seed in (0, 1):
                got = pinned(generator(dim, random.Random(seed), bound=bound))
                assert got == pinned(reference(dim, random.Random(seed), bound))
                wide += got[1] == object
        if bound >= 2**70 and generator is not random_antisymmetric_matrix:
            assert wide  # the images reach Python ints
        if bound <= 9:
            assert not wide

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_random_fraction_and_vector(self, bound):
        rng, ref = random.Random(bound), random.Random(bound)
        assert [random_fraction(rng, bound) for _ in range(40)] == [fraction(ref, bound) for _ in range(40)]
        assert random_vector(rng, 6, bound) == [fraction(ref, bound) for _ in range(6)]

    MODELS = [sphere(1), flat(1)] + [
        m for n in range(2, 6) for m in (sphere(n), sphere(n - 1, 1), flat(n))
    ]

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_sample_point_and_tangent_vector(self, model, bound):
        for seed in range(3):
            point = sample_point(model, random.Random(seed), bound=bound)
            assert pinned(point.x) == pinned(reference_sample(model, random.Random(seed), bound))
            rng, ref = random.Random(seed + 10), random.Random(seed + 10)
            assert pinned(random_tangent_vector(point, rng, bound=bound)) == pinned(
                reference_tangent(point, ref, bound)
            )

    def test_an_antisymmetric_matrix_of_dimension_one_draws_nothing(self):
        # No entry is drawn, so the bound is never read.
        form = random_antisymmetric_matrix(1, random.Random(0), bound=0)
        assert form.tensor._ints.tolist() == [[0]]

    @pytest.mark.parametrize("generator", [g for g, _ in GENERATORS], ids=IDS)
    @pytest.mark.parametrize("bound", [0, 1])
    def test_dimension_zero_is_refused_before_the_bound(self, generator, bound):
        with pytest.raises(InvalidArgument, match="dimension must be positive, got 0"):
            generator(0, random.Random(0), bound=bound)

    @pytest.mark.parametrize("generator", [g for g, _ in GENERATORS], ids=IDS)
    def test_a_bound_below_one_is_refused(self, generator):
        with pytest.raises(InvalidArgument, match="bound must be at least 1, got 0"):
            generator(2, random.Random(0), bound=0)
