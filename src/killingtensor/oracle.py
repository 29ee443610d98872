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

The arithmetic is exact, with one denominator per array: each factor
(``S``, ``B``, ``x``, the frame, its Gram matrix and the inverse) is the
integer image, Python integers over one positive rational scale, that
its Tensor or :class:`~killingtensor.models.TangentBasis` keeps.  The
formulas run as plain ``np.tensordot`` chains over the integers, with
the scales multiplied alongside; a positive scale keeps the zero
pattern, so residual supports are read straight off the integer arrays.
:func:`compute_point_data` and :func:`tns_residuals` hand back Fraction
arrays.  The oracle shares no contraction or indexing code with
:mod:`killingtensor.integrability`, so the two verdict routes stay
independent, and a verdict at a sampled point is a proof at that point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, permutations
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
    sample_point,
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

_SIGNED_PERMS_3 = tuple(
    (perm, 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1)
    for perm in permutations(range(3))
)


def _image(tensor: Tensor) -> _Image:
    """The tensor's integer image in Python ints, and its scale."""
    return tensor._ints.astype(object), tensor._scale


def _fractions(scaled: _Image) -> np.ndarray:
    arr, scale = scaled
    return arr * scale


def _model_factors(
    S: "SymCurvatureTensor | CurvatureTensor", model: ModelSpace
) -> tuple[_Image, _Image]:
    """``S`` in the symmetric class and the model's ``B``, rescaled."""
    sym = _as_class(S, SymCurvatureTensor)
    if sym.dim != model.dim:
        raise InvalidArgument("tensor dimension does not match the model")
    return _image(sym.tensor), _image(model.gbar())


def _anti3(arr: np.ndarray) -> np.ndarray:
    """Unnormalised total antisymmetrisation of an order-3 array."""
    return sum(sign * arr.transpose(perm) for perm, sign in _SIGNED_PERMS_3)


def _point_ints(s: _Image, b: _Image, x: _Image, frame: _Image) -> tuple[_Image, _Image]:
    """The Killing matrix ``K`` and the torsion seed ``nbar`` at one point."""
    (s_arr, s_scale), (b_arr, b_scale), (x_arr, x_scale), (e_arr, e_scale) = s, b, x, frame

    # K[α, β] = S[a1, a2, b1, b2] x^{a1} x^{a2} (e_α)^{b1} (e_β)^{b2}.
    m_mat = np.tensordot(np.tensordot(s_arr, x_arr, axes=([0], [0])), x_arr, axes=([0], [0]))
    k_mat = np.tensordot(np.tensordot(e_arr, m_mat, axes=([1], [0])), e_arr, axes=([1], [1]))

    # sx2[i, a2] = S[i, a2, b1, b2] x^{b1} x^{b2};
    # sx1[j, c2, d2] = S[j, c2, d1, d2] x^{d1}  (x on slot 2);
    # sx1b[j, a2, d2] = S[j, d1, a2, d2] x^{d1} (x on slot 1).
    sx1 = np.tensordot(s_arr, x_arr, axes=([2], [0]))
    sx2 = np.tensordot(sx1, x_arr, axes=([2], [0]))
    sx1b = np.tensordot(s_arr, x_arr, axes=([1], [0]))

    bsx1 = np.tensordot(b_arr, sx1, axes=([1], [0]))
    bsx1b = np.tensordot(b_arr, sx1b, axes=([1], [0]))
    term1 = np.tensordot(sx2, bsx1, axes=([0], [0]))  # (a2, c2, d2)
    term2_raw = np.tensordot(sx2, bsx1b, axes=([0], [0]))  # (c2, a2, d2)
    ambient = term1 + term2_raw.transpose(1, 0, 2)

    # Chained frame contractions land on (α, β, γ): the second tensordot
    # consumes the c2 axis, the third the d2 axis.
    nbar = np.tensordot(
        np.tensordot(np.tensordot(e_arr, ambient, axes=([1], [0])), e_arr, axes=([1], [1])),
        e_arr,
        axes=([1], [1]),
    )
    return (
        (k_mat, s_scale * x_scale**2 * e_scale**2),
        (nbar, b_scale * s_scale**2 * x_scale**3 * e_scale**3),
    )


def _residual_ints(
    K: _Image, gram: _Image, gram_inverse: _Image, nbar: _Image
) -> tuple[_Image, _Image, _Image]:
    """The three residuals of :func:`tns_residuals` from rescaled point data."""
    (k_arr, k_scale), (g_arr, g_scale), (gi_arr, gi_scale), (n_arr, n_scale) = (
        K, gram, gram_inverse, nbar
    )
    n_up = np.tensordot(gi_arr, n_arr, axes=([1], [0]))
    torsion = n_up - n_up.transpose(0, 2, 1)
    # The torsion's halving and each residual's 1/6 go into the scales.
    scale = gi_scale * n_scale / 12

    res1 = _anti3(np.tensordot(g_arr, torsion, axes=([1], [0])))
    res2 = _anti3(np.tensordot(k_arr, torsion, axes=([1], [0])))
    # K_{αε} K^ε_δ as a matrix is K · g⁻¹ · K (order matters).
    k_sq = np.tensordot(
        np.tensordot(k_arr, gi_arr, axes=([1], [0])), k_arr, axes=([1], [0])
    )
    res3 = _anti3(np.tensordot(k_sq, torsion, axes=([1], [0])))
    return (
        (res1, g_scale * scale),
        (res2, k_scale * scale),
        (res3, k_scale**2 * gi_scale * scale),
    )


@dataclass(frozen=True, eq=False)
class PointFrameData:
    """Exact per-point data: Killing matrix, frame metric, and torsion seed.

    All arrays are object arrays of :class:`~fractions.Fraction` indexed
    by frame labels ``0..n−1`` with ``n = N − 1`` the model dimension.
    ``k_image`` and ``nbar_image`` are the integer images ``K`` and
    ``nbar`` were built from, which :func:`tns_residuals` reads.
    """

    x: ModelPoint
    basis: TangentBasis
    K: np.ndarray
    gram: np.ndarray
    gram_inverse: np.ndarray
    nbar: np.ndarray
    k_image: _Image = field(repr=False)
    nbar_image: _Image = field(repr=False)


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
    s, b = _model_factors(S, model)
    point = x if isinstance(x, ModelPoint) else ModelPoint(model, x)
    if point.model != model:
        raise InvalidArgument("point belongs to a different model space")
    if basis is None:
        basis = tangent_basis(point)
    elif basis.point.x != point.x or basis.point.model != model:
        raise InvalidArgument("basis was built at a different point or model")

    k_mat, nbar = _point_ints(s, b, _image(point.x), basis.frame_image)
    return PointFrameData(
        x=point,
        basis=basis,
        K=_fractions(k_mat),
        gram=np.array(basis.gram, dtype=object),
        gram_inverse=np.array(basis.gram_inverse, dtype=object),
        nbar=_fractions(nbar),
        k_image=k_mat,
        nbar_image=nbar,
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
    basis = data.basis
    residuals = _residual_ints(data.k_image, basis.gram_image, basis.gram_inverse_image, data.nbar_image)
    res1, res2, res3 = (_fractions(res) for res in residuals)
    return res1, res2, res3


def _support(residual: np.ndarray) -> int:
    """Nonzero canonical components of a totally antisymmetric order-3 array."""
    n = residual.shape[0]
    return sum(
        1
        for idx in combinations(range(n), 3)
        if residual[idx] != 0
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
    s, b = _model_factors(S, model)
    rng = coerce_rng(seed)
    sub_seeds = [rng.randrange(2**32) for _ in range(num_points)]

    points = []
    supports = []
    witnesses: list[int | None] = [None, None, None]
    for index, sub_seed in enumerate(sub_seeds):
        point = sample_point(model, random.Random(sub_seed), bound=bound)
        points.append(point)
        basis = tangent_basis(point)
        k_mat, nbar = _point_ints(s, b, _image(point.x), basis.frame_image)
        residuals = _residual_ints(k_mat, basis.gram_image, basis.gram_inverse_image, nbar)
        counts = tuple(_support(res) for res, _ in residuals)
        supports.append(counts)
        for c in range(3):
            if counts[c] and witnesses[c] is None:
                witnesses[c] = index

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
