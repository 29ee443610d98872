"""Shared builders for the test suite.

Everything random is driven by explicit integer seeds so every test run
sees identical inputs.  Entry bounds are kept small (3) to keep exact
rational arithmetic fast without changing any verdict.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from killingtensor import (
    CurvatureTensor,
    MetricSignature,
    ModelKind,
    ModelSpace,
    SymmetricForm,
    Tensor,
    benenti_rep,
    family_rep,
    kulkarni_nomizu,
    metric_rep,
    random_curvature,
    random_invertible_matrix,
    random_symmetric_form,
)
from killingtensor._util import random_fraction

BOUND = 3


def sphere(p: int, q: int = 0) -> ModelSpace:
    return ModelSpace(ModelKind.SPHERE, MetricSignature(p, q))


def flat(p: int, q: int = 0) -> ModelSpace:
    return ModelSpace(ModelKind.FLAT, MetricSignature(p, q))


def nonzero_fraction(rng: random.Random, bound: int = BOUND):
    while True:
        value = random_fraction(rng, bound)
        if value != 0:
            return value


def random_family_member(model: ModelSpace, rng: random.Random) -> CurvatureTensor:
    """A generic member of the structured family lam2*h@h + lam1*h@g + lam0*g@g."""
    h = random_symmetric_form(model.dim, rng, bound=BOUND)
    return family_rep(
        h,
        nonzero_fraction(rng),
        nonzero_fraction(rng),
        nonzero_fraction(rng),
        signature=model.signature,
    )


def wide_curvature(dim: int, digits: int, seed: int) -> CurvatureTensor:
    """Kulkarni–Nomizu product of two random symmetric forms whose entries
    have ``digits``-digit denominators: a valid curvature tensor with a
    wide integer image."""
    rng = random.Random(seed)

    def form() -> SymmetricForm:
        arr = np.empty((dim, dim), dtype=object)
        for i in range(dim):
            for j in range(i, dim):
                value = Fraction(rng.randint(1, 9), rng.randint(10 ** (digits - 1), 10**digits))
                arr[i, j] = arr[j, i] = value
        return SymmetricForm(Tensor(arr, dim=dim))

    return kulkarni_nomizu(form(), form())


def wide_kn(dim: int, rng: random.Random, bits: int) -> CurvatureTensor:
    """h1 ⊘ k1 + h2 ⊘ k2 for integer symmetric forms with entries below
    2^bits: a curvature tensor whose integer image reaches about 2^(2 bits + 3)."""

    def form() -> SymmetricForm:
        arr = np.empty((dim, dim), dtype=object)
        for i in range(dim):
            for j in range(i, dim):
                arr[i, j] = arr[j, i] = rng.randint(-(1 << bits), 1 << bits)
        return SymmetricForm(Tensor(arr, dim=dim))

    first, second = kulkarni_nomizu(form(), form()), kulkarni_nomizu(form(), form())
    return CurvatureTensor(first.tensor + second.tensor)


def image_bits(tensor: Tensor) -> tuple[int, int]:
    """Bit lengths of the lcm of the denominators and of the widest rescaled entry."""
    values = tensor.array.ravel().tolist()
    lcm = math.lcm(*(v.denominator for v in values))
    widest = max(abs(v.numerator) * (lcm // v.denominator) for v in values)
    return lcm.bit_length(), widest.bit_length()


def fixture_set(model: ModelSpace, seed: int) -> list[tuple[str, CurvatureTensor]]:
    """The standard cross-validation fixture set for one model space.

    One metric representative, ten Benenti representatives with random
    invertible endomorphisms, ten generic family members, and ten random
    curvature-class tensors.
    """
    rng = random.Random(seed)
    fixtures: list[tuple[str, CurvatureTensor]] = [("metric", metric_rep(model))]
    for k in range(10):
        A = random_invertible_matrix(model.dim, rng, bound=BOUND)
        fixtures.append((f"benenti-{k}", benenti_rep(model, A)))
    for k in range(10):
        fixtures.append((f"family-{k}", random_family_member(model, rng)))
    for k in range(10):
        fixtures.append((f"random-{k}", random_curvature(model.dim, rng, bound=BOUND)))
    return fixtures


def alternating_sums(arr: np.ndarray, size: int) -> np.ndarray:
    """Signed sums over ``size`` index axes at increasing tuples: the
    reference the engine's alternated products are checked against.

    Axes ``1 .. size`` of ``arr`` (axis 0 is its monomial axis) become one
    axis over the strictly increasing index tuples ``I`` (lexicographic
    order), holding ``sum over rearrangements J of I of sign(J) arr[:, J]``.
    Python ints when a sum of ``size!`` entries may reach 2^62.  Empty
    when ``size`` exceeds the dimension.
    """
    if not size:
        return arr
    if arr.size and math.factorial(size) * int(np.abs(arr).max()) >= 1 << 62:
        arr = arr.astype(object)
    sums = []
    for tuple_ in itertools.combinations(range(arr.shape[1]), size):
        total = np.zeros(arr.shape[:1] + arr.shape[size + 1:], dtype=arr.dtype)
        for order in itertools.permutations(range(size)):
            inversions = sum(i > j for i, j in itertools.combinations(order, 2))
            total = total + (-1) ** inversions * arr[(slice(None),) + tuple(tuple_[k] for k in order)]
        sums.append(total)
    if not sums:
        return np.zeros(arr.shape[:1] + (0,) + arr.shape[size + 1:], dtype=arr.dtype)
    return np.stack(sums, axis=1)
