"""Pointwise Nijenhuis-torsion oracle for Killing-tensor integrability.

The algebraic conditions in :mod:`killingtensor.integrability` are
validated against an independent ground truth: the Nijenhuis (torsionless
normal separability) conditions for the Killing tensor ``K`` that a
symmetric-class tensor ``S`` induces on an embedded model space.  At an
exact rational point ``x`` with an exact tangent frame, the building
block is the order-3 frame tensor

    nbar[α, β, γ] = B^{ij} ( S[i, a2, b1, b2] S[j, c2, d1, d2]
                           + S[i, c2, b1, b2] S[j, d1, a2, d2] )
                    x^{b1} x^{b2} x^{d1}
                    (e_α)^{a2} (e_β)^{c2} (e_γ)^{d2},

with ``B`` the model's effective inverse metric.  Antisymmetrising its
last two slots and raising the first with the frame Gram matrix yields
the Nijenhuis torsion ``N^δ_{βγ}`` of ``K`` at ``x``; the three
integrability conditions are the total antisymmetrisations of ``N``
contracted with the metric, with ``K``, and with ``K²``.

The arithmetic is exact.  Each factor (``S``, ``B``, ``x``, the frame
``E``, its Gram matrix ``G`` and the inverse) is an integer image,
Python integers over one positive rational scale.  A positive scale
keeps the zero pattern, so supports are read off the integer arrays, and
the scales are multiplied in only for the Fraction arrays that
:func:`compute_point_data` and :func:`tns_residuals` return.

One kernel, ``_block``, runs a block of points on the images of the
points, frames, Gram matrices and inverses, stacked on a leading axis.
:func:`integrable_oracle` takes them, one block at a time, from the
sampler in :mod:`killingtensor.models`, which builds them from integers
without a per-point Tensor or
:class:`~killingtensor.models.TangentBasis`; :func:`compute_point_data`
passes its one basis as a stack of one.  The kernel runs batched
``matmul`` products over Python integers:
(1) ``S`` is symmetric in its last two slots, so one product of ``S``,
read as an ``N³ × N`` matrix, with the stacked points gives
``S[j, c, x, d]`` at every point; (2) a second ``x`` gives
``S[i, a, x, x]``, which by the validated pair exchange is
``S[x, x, i, a]``, so ``K`` is its frame image; (3) the frame goes onto
the factors before ``B``, which then meets the ``N × n`` matrix
``P = S[·, e_α, x, x]`` (``n = N − 1``), not ``N × N³`` arrays;
(4) one product ``(PᵀB) Q`` with ``Q = S[·, e_β, x, e_γ]`` gives the
first term ``U[α, β, γ]`` of ``nbar``, and the validated cyclic identity
``S[j, x, a, d] = −S[j, a, x, d] − S[j, d, x, a]`` makes the second
``−U[β, α, γ] − U[β, γ, α]``; (5) with ``Y = G⁻¹(nbar − nbarᵀ)``, last
two slots swapped, the residuals before antisymmetrisation are
``T = F·Y`` for ``F = G, K, K·G⁻¹·K``; (6) each ``T`` is antisymmetric
in its last two slots, so its total antisymmetrisation is exactly twice
its cyclic sum ``T[a,b,c] + T[b,c,a] + T[c,a,b]``, and with the
torsion's 1/2 and the antisymmetriser's 1/6 the scale is 1/6.  ``F`` and
``Y`` are gathered at the three rotations of the wanted indices before
they are multiplied, so the oracle computes ``T`` only at the increasing
triples, where it reads the supports.  :func:`integrable_oracle` runs
``_BLOCK`` points at a time, so its memory is that of one block
whatever the number of points.

The oracle shares no contraction or indexing code with
:mod:`killingtensor.integrability`, so the two verdict routes stay
independent, and a verdict at a sampled point is a proof at that point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from ._util import coerce_rng
from .curvature import CurvatureTensor, SymCurvatureTensor, _as_class
from .errors import InvalidArgument
from .models import (
    ModelPoint,
    ModelSpace,
    TangentBasis,
    _Image,
    _sample_blocks,
    tangent_basis,
)
from .tensor import Tensor

__all__ = [
    "PointFrameData",
    "OracleReport",
    "compute_point_data",
    "tns_residuals",
    "integrable_oracle",
]

# Points per kernel call: the oracle holds one block of arrays at a time.
_BLOCK = 16


def _image(tensor: Tensor) -> _Image:
    """The tensor's integer image in Python ints, and its scale."""
    return tensor._ints.astype(object), tensor._scale


def _model_factors(
    S: "SymCurvatureTensor | CurvatureTensor", model: ModelSpace
) -> tuple[_Image, _Image]:
    """``S`` in the symmetric class and the model's ``B``, rescaled."""
    sym = _as_class(S, SymCurvatureTensor)
    if sym.dim != model.dim:
        raise InvalidArgument("tensor dimension does not match the model")
    return _image(sym.tensor), _image(model.gbar())


def _block(
    s_arr: np.ndarray,
    b_arr: np.ndarray,
    xs: np.ndarray,
    frames: np.ndarray,
    grams: np.ndarray,
    gram_inverses: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``K``, ``nbar`` and the cyclic sums of ``T = F·Y`` at a block of points.

    ``xs``, ``frames``, ``grams`` and ``gram_inverses`` are the points' and
    their frames' integer images stacked on a leading axis, as
    ``models._sample_blocks`` gives them.  The sums
    ``T[a, b, c] + T[b, c, a] + T[c, a, b]`` are computed at the index
    arrays ``a, b, c`` only.  Returns integer arrays of shapes
    ``(P, n, n)``, ``(P, n, n, n)`` and ``(P, 3) + a.shape``.
    """
    points, n, dim = frames.shape
    frames_t = frames.transpose(0, 2, 1)
    # sx[p, j, u, v] = S[j, u, v, x] = S[j, u, x, v].
    sx = (xs @ s_arr.reshape(dim**3, dim).T).reshape(points, dim, dim, dim)
    # P[p, i, α] = S[i, e_α, x, x];  K[p, α, β] = S[e_α, e_β, x, x].
    p_mat = (sx @ xs[:, None, :, None]).reshape(points, dim, dim) @ frames_t
    k = frames @ p_mat
    # U[p, α, β, γ] = P[i, α] B^{ij} S[j, e_β, x, e_γ] is nbar's first term;
    # S[j, x, u, v] = −S[j, u, x, v] − S[j, v, x, u] turns the second into
    # −U[β, α, γ] − U[β, γ, α].
    q = frames[:, None] @ sx @ frames_t[:, None]
    u = (p_mat.transpose(0, 2, 1) @ b_arr) @ q.reshape(points, dim, n * n)
    u = u.reshape(points, n, n, n)
    nbar = u - u.transpose(0, 2, 1, 3) - u.transpose(0, 3, 1, 2)
    y = gram_inverses @ (nbar - nbar.transpose(0, 1, 3, 2)).reshape(points, n, n * n)
    factors = np.stack([grams, k, k @ gram_inverses @ k], axis=1)
    # T[a, b, c] = F[a, d] Y[d, b, c] at the three rotations of (a, b, c).
    rows = factors[:, :, np.stack([a, b, c])]
    cols = y.reshape(points, n, n, n)[:, :, np.stack([b, c, a]), np.stack([c, a, b])]
    return k, nbar, (rows * np.moveaxis(cols, 1, -1)[:, None]).sum(axis=(2, -1))


@dataclass(frozen=True, eq=False)
class PointFrameData:
    """Exact per-point data: Killing matrix, frame metric, and torsion seed.

    All arrays are object arrays of :class:`~fractions.Fraction` indexed
    by frame labels ``0..n−1`` with ``n = N − 1`` the model dimension.
    ``k_image`` and ``nbar_image`` are the integer images ``K`` and
    ``nbar`` were built from; ``residual_ints`` holds the residuals'
    integer arrays, which :func:`tns_residuals` scales.
    """

    x: ModelPoint
    basis: TangentBasis
    K: np.ndarray
    gram: np.ndarray
    gram_inverse: np.ndarray
    nbar: np.ndarray
    k_image: _Image = field(repr=False)
    nbar_image: _Image = field(repr=False)
    residual_ints: np.ndarray = field(repr=False)


def compute_point_data(
    S: "SymCurvatureTensor | CurvatureTensor",
    model: ModelSpace,
    x: "ModelPoint | Tensor | Sequence",
    basis: "TangentBasis | None" = None,
) -> PointFrameData:
    """Evaluate the Killing matrix and torsion seed at one model point.

    ``x`` may be a validated :class:`ModelPoint` or raw coordinates (then
    membership is checked here).  ``basis`` defaults to the canonical
    projected frame at ``x``.
    """
    (s_arr, s_scale), (b_arr, b_scale) = _model_factors(S, model)
    point = x if isinstance(x, ModelPoint) else ModelPoint(model, x)
    if point.model != model:
        raise InvalidArgument("point belongs to a different model space")
    if basis is None:
        basis = tangent_basis(point)
    elif basis.point.x != point.x or basis.point.model != model:
        raise InvalidArgument("basis was built at a different point or model")

    n = model.dim - 1
    images = (basis.frame_image, basis.gram_image, basis.gram_inverse_image)
    k, nbar, sums = _block(
        s_arr, b_arr, point.x._ints.astype(object)[None],
        *(ints[None] for ints, _ in images), *np.indices((n, n, n)),
    )
    x_scale, e_scale = point.x._scale, basis.frame_image[1]
    k_scale = s_scale * x_scale**2 * e_scale**2
    nbar_scale = b_scale * s_scale**2 * x_scale**3 * e_scale**3
    return PointFrameData(
        x=point,
        basis=basis,
        K=k[0] * k_scale,
        gram=np.array(basis.gram, dtype=object),
        gram_inverse=np.array(basis.gram_inverse, dtype=object),
        nbar=nbar[0] * nbar_scale,
        k_image=(k[0], k_scale),
        nbar_image=(nbar[0], nbar_scale),
        residual_ints=sums[0],
    )


def tns_residuals(data: PointFrameData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three pointwise integrability residuals, exact and order-3.

    With the torsion ``N^δ_{βγ}`` (first slot of ``nbar`` raised by the
    inverse Gram matrix, last two slots antisymmetrised), the residuals
    are the total antisymmetrisations over the three free frame slots of
    ``N^δ_{βγ} g_{αδ}``, ``N^δ_{βγ} K_{αδ}`` and
    ``N^δ_{βγ} K_{αε} K^ε_δ``.  The tensor is integrable at this point
    exactly when all three vanish.
    """
    (_, k_scale), (_, n_scale) = data.k_image, data.nbar_image
    (_, g_scale), (_, gi_scale) = data.basis.gram_image, data.basis.gram_inverse_image
    res1, res2, res3 = data.residual_ints
    # The torsion's 1/2, the antisymmetriser's 1/6 and the cyclic sum's 2.
    scale = gi_scale * n_scale / 6
    return (
        res1 * (g_scale * scale),
        res2 * (k_scale * scale),
        res3 * (k_scale**2 * gi_scale * scale),
    )


@dataclass(frozen=True)
class OracleReport:
    """Verdict of the pointwise oracle over a sample of model points.

    ``conditions_pass[c]`` is True when residual ``c+1`` vanished at
    every sampled point; ``witnesses[c]`` is the index of the first
    failing point (into ``points``) or None; ``point_supports[p][c]``
    counts the nonzero canonical residual components of condition
    ``c+1`` at point ``p``.
    """

    model_kind: str
    signature: tuple[int, int]
    dim: int
    num_points: int
    seed: "int | None"
    conditions_pass: tuple[bool, bool, bool]
    witnesses: tuple["int | None", "int | None", "int | None"]
    point_supports: tuple[tuple[int, int, int], ...]
    points: tuple[ModelPoint, ...]

    @property
    def passes(self) -> bool:
        return all(self.conditions_pass)

    def witness_points(self) -> tuple["ModelPoint | None", ...]:
        return tuple(
            self.points[w] if w is not None else None for w in self.witnesses
        )


def integrable_oracle(
    S: "SymCurvatureTensor | CurvatureTensor",
    model: ModelSpace,
    num_points: int = 10,
    seed: "int | random.Random | None" = 0,
    *,
    bound: int = 9,
) -> OracleReport:
    """Sample rational points and test the three pointwise conditions.

    A condition fails as soon as its residual is nonzero at one sampled
    point (an exact counterexample); it passes when it vanished at every
    point.  Per-point sub-seeds are drawn up front from ``seed`` so the
    sampled points do not depend on evaluation order.
    """
    if num_points < 1:
        raise InvalidArgument("num_points must be at least 1")
    (s_arr, _), (b_arr, _) = _model_factors(S, model)
    triples = np.array(list(combinations(range(model.dim - 1), 3)), dtype=np.intp).reshape(-1, 3)
    rng = coerce_rng(seed)
    sub_seeds = [rng.randrange(2**32) for _ in range(num_points)]

    points = []
    supports = []
    for block, *images in _sample_blocks(model, sub_seeds, _BLOCK, bound):
        points.extend(block)
        sums = _block(s_arr, b_arr, *images, *triples.T)[2]
        supports.extend(map(tuple, (sums != 0).sum(axis=-1).tolist()))
    witnesses = [
        next((index for index, row in enumerate(supports) if row[c]), None) for c in range(3)
    ]

    return OracleReport(
        model_kind=model.kind.value,
        signature=(model.signature.p, model.signature.q),
        dim=model.dim,
        num_points=num_points,
        seed=seed if isinstance(seed, int) else None,
        conditions_pass=tuple(w is None for w in witnesses),  # type: ignore[arg-type]
        witnesses=tuple(witnesses),  # type: ignore[arg-type]
        point_supports=tuple(supports),
        points=tuple(points),
    )
