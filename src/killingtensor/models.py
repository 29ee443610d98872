"""Embedded standard models of constant-curvature spaces with exact points.

A model space lives inside a pseudo-Euclidean ambient space ``R^{p,q}``:

* ``sphere`` — the quadric ``{x : g(x, x) = 1}`` (unit curvature); needs
  at least one plus sign in the signature;
* ``flat`` — the affine hyperplane ``{x : g(x, u) = 1}`` for a fixed
  vector ``u`` with ``g(u, u) = 1`` (Euclidean/pseudo-Euclidean space
  embedded at height one along ``u``).

Both models admit dense sets of rational points, which this module
samples exactly: a rational parameter vector is mapped onto the model by
an explicit rational parametrisation, so membership equations hold as
identities of :class:`~fractions.Fraction` values, never approximately.

The module also evaluates quadratic Killing tensors, Killing vector
fields, and covariant derivatives at model points, and builds exact
tangent frames with their Gram matrices — the raw material for the
point-based integrability oracle.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._fastops import integer_multiples
from ._linalg import inverse_image
from ._util import coerce_rng, random_vector
from .errors import InvalidArgument, SamplingFailure
from .tensor import MetricSignature, Scalar, Tensor, contract_vector, tensor_product

__all__ = [
    "ModelKind",
    "ModelSpace",
    "ModelPoint",
    "TangentBasis",
    "sphere_point_from_parameter",
    "flat_point_from_parameter",
    "sample_point",
    "tangent_basis",
    "tangent_basis_from_vectors",
    "random_tangent_vector",
    "killing_eval",
    "killing_vector_eval",
    "killing_cov_deriv",
]

_MAX_SAMPLING_ATTEMPTS = 200


class ModelKind(Enum):
    """Which embedded standard model a :class:`ModelSpace` describes."""

    SPHERE = "sphere"
    FLAT = "flat"

    @classmethod
    def parse(cls, text: str) -> "ModelKind":
        try:
            return cls(text.strip().lower())
        except ValueError as exc:
            raise InvalidArgument(
                f"unknown model kind {text!r}; expected 'sphere' or 'flat'"
            ) from exc


def _as_vector(value: object, dim: int) -> Tensor:
    vec = value if isinstance(value, Tensor) else Tensor.from_nested(list(value))  # type: ignore[arg-type]
    if vec.order != 1 or vec.dim != dim:
        raise InvalidArgument(f"expected an order-1 tensor of dimension {dim}")
    return vec


def _g_pair(signature: MetricSignature, a: Tensor, b: Tensor) -> Fraction:
    """``g(a, b)``: one dot product of the integer images, then the scales."""
    p = signature.p
    x, y = a._ints.tolist(), b._ints.tolist()
    dot = sum(map(operator.mul, x[:p], y[:p])) - sum(map(operator.mul, x[p:], y[p:]))
    return a._scale * b._scale * dot


@dataclass(frozen=True)
class ModelSpace:
    """An embedded constant-curvature model inside ``R^{p,q}``.

    For the flat model, ``height_vector`` is the vector ``u`` defining the
    hyperplane ``g(x, u) = 1``; it defaults to the first standard basis
    vector and must satisfy ``g(u, u) = 1`` exactly.
    """

    kind: ModelKind
    signature: MetricSignature
    height_vector: Tensor | None = None

    def __post_init__(self) -> None:
        if self.kind is ModelKind.SPHERE:
            if self.signature.p < 1:
                raise InvalidArgument(
                    "sphere model needs at least one plus sign in the signature"
                )
            if self.height_vector is not None:
                raise InvalidArgument("height_vector only applies to the flat model")
        elif self.kind is ModelKind.FLAT:
            u = self.height_vector
            if u is None:
                u = Tensor.basis_vector(self.signature.dim, 0)
                object.__setattr__(self, "height_vector", u)
            else:
                u = _as_vector(u, self.signature.dim)
                object.__setattr__(self, "height_vector", u)
            norm = _g_pair(self.signature, u, u)
            if norm != 1:
                raise InvalidArgument(
                    f"flat model height vector must have unit norm, got g(u,u) = {norm}"
                )
        else:  # pragma: no cover - enum exhausts kinds
            raise InvalidArgument(f"unknown model kind {self.kind!r}")

    # -- basic geometry -----------------------------------------------

    @property
    def dim(self) -> int:
        """Ambient dimension ``N = p + q``."""
        return self.signature.dim

    @property
    def is_flat(self) -> bool:
        return self.kind is ModelKind.FLAT

    def metric(self) -> Tensor:
        return self.signature.metric()

    def inverse_metric(self) -> Tensor:
        return self.signature.inverse_metric()

    def pair(self, a: Tensor, b: Tensor) -> Fraction:
        """Ambient scalar product ``g(a, b)``."""
        return _g_pair(self.signature, _as_vector(a, self.dim), _as_vector(b, self.dim))

    def membership_residual(self, x: Tensor) -> Fraction:
        """``g(x,x) − 1`` on the sphere, ``g(x,u) − 1`` on the flat model."""
        vec = _as_vector(x, self.dim)
        if self.kind is ModelKind.SPHERE:
            return self.pair(vec, vec) - 1
        assert self.height_vector is not None
        return self.pair(vec, self.height_vector) - 1

    def normal_at(self, x: Tensor) -> Tensor:
        """Vector whose ``g``-orthogonal complement is the tangent space at x."""
        if self.kind is ModelKind.SPHERE:
            return _as_vector(x, self.dim)
        assert self.height_vector is not None
        return self.height_vector

    def gbar(self) -> Tensor:
        """Effective inverse metric of the model, in ambient upper indices.

        ``g^{ab}`` on the sphere; the degenerate ``g^{ab} − u^a u^b`` on
        the flat model.  Used as the contraction kernel in the algebraic
        integrability conditions and in the point oracle.
        """
        inverse = self.signature.inverse_metric()
        if self.kind is ModelKind.SPHERE:
            return inverse
        assert self.height_vector is not None
        return inverse - tensor_product(self.height_vector, self.height_vector)

    def __repr__(self) -> str:
        sig = f"({self.signature.p},{self.signature.q})"
        return f"ModelSpace({self.kind.value}, signature={sig})"


@dataclass(frozen=True)
class ModelPoint:
    """An exact rational point on a model space; membership is validated."""

    model: ModelSpace
    x: Tensor

    def __post_init__(self) -> None:
        vec = _as_vector(self.x, self.model.dim)
        object.__setattr__(self, "x", vec)
        residual = self.model.membership_residual(vec)
        if residual != 0:
            raise InvalidArgument(
                f"point is not on the {self.model.kind.value} model: membership residual {residual}"
            )

    def tangency_residual(self, v: Tensor) -> Fraction:
        """``g(normal, v)``; zero exactly when ``v`` is tangent at this point."""
        return self.model.pair(self.model.normal_at(self.x), _as_vector(v, self.model.dim))

    def require_tangent(self, v: Tensor, name: str = "vector") -> Tensor:
        vec = _as_vector(v, self.model.dim)
        residual = self.tangency_residual(vec)
        if residual != 0:
            raise InvalidArgument(
                f"{name} is not tangent at the given point: residual {residual}"
            )
        return vec


# -- exact rational parametrisations ----------------------------------


def sphere_point_from_parameter(model: ModelSpace, parameter: "Sequence[Scalar] | Tensor") -> ModelPoint:
    """Map a rational parameter onto the sphere model.

    With ``e`` the first standard basis vector, a parameter vector ``t``
    with ``t[0] = 0`` and ``g(t, t) ≠ −1`` maps to

        ``x = ((1 − g(t,t)) e + 2 t) / (1 + g(t,t))``,

    which satisfies ``g(x, x) = 1`` identically (inverse stereographic
    projection from ``−e``).  Example (Euclidean, N = 3):
    ``t = (0, 1/2, 0)`` maps to ``x = (3/5, 4/5, 0)``.
    """
    if model.kind is not ModelKind.SPHERE:
        raise InvalidArgument("sphere_point_from_parameter needs a sphere model")
    t = _as_vector(parameter, model.dim)
    if t[(0,)] != 0:
        raise InvalidArgument("sphere parameter must have first component zero")
    tau = model.pair(t, t)
    if tau == -1:
        raise InvalidArgument("sphere parameter has g(t,t) = −1; the map is undefined there")
    e = Tensor.basis_vector(model.dim, 0)
    x = (e * (1 - tau) + t * 2) / (1 + tau)
    return ModelPoint(model, x)


def flat_point_from_parameter(model: ModelSpace, parameter: "Sequence[Scalar] | Tensor") -> ModelPoint:
    """Map a rational parameter onto the flat model.

    The parameter is projected onto the tangent hyperplane,
    ``t = t' − g(t', u) u``, and the point is ``x = u + t`` so that
    ``g(x, u) = 1`` holds identically.
    """
    if model.kind is not ModelKind.FLAT:
        raise InvalidArgument("flat_point_from_parameter needs a flat model")
    u = model.height_vector
    assert u is not None
    t_raw = _as_vector(parameter, model.dim)
    t = t_raw - u * model.pair(t_raw, u)
    return ModelPoint(model, u + t)


def sample_point(
    model: ModelSpace,
    rng: random.Random | int | None = None,
    *,
    bound: int = 9,
) -> ModelPoint:
    """Draw an exact random rational point on the model.

    Parameters are drawn with numerators and denominators up to
    ``bound``.  On the sphere, parameters with ``g(t,t) = −1`` (possible
    in indefinite signature) are redrawn; persistent failure raises
    :class:`~killingtensor.errors.SamplingFailure`.
    """
    generator = coerce_rng(rng)
    if model.kind is ModelKind.FLAT:
        return flat_point_from_parameter(model, random_vector(generator, model.dim, bound))
    for _ in range(_MAX_SAMPLING_ATTEMPTS):
        parameter = Tensor.from_nested([0] + random_vector(generator, model.dim - 1, bound))
        if _g_pair(model.signature, parameter, parameter) != -1:
            return sphere_point_from_parameter(model, parameter)
    raise SamplingFailure(
        f"could not sample a sphere point after {_MAX_SAMPLING_ATTEMPTS} attempts"
    )


# -- tangent frames ----------------------------------------------------

# An integer image: a Python-int object array and one positive scale.
_Image = tuple[np.ndarray, Fraction]


@dataclass(frozen=True)
class TangentBasis:
    """An exact basis of the tangent space at a model point.

    ``vectors`` spans the tangent space.  ``frame_image`` (one row per
    vector), ``gram_image`` (``g(v_i, v_j)``) and ``gram_inverse_image``
    are integer images; ``gram`` and ``gram_inverse`` give the Gram matrix
    and its exact inverse as Fractions (the tangent metric is non-degenerate).
    """

    point: ModelPoint
    vectors: tuple[Tensor, ...]
    frame_image: _Image = field(repr=False, compare=False)
    gram_image: _Image = field(repr=False, compare=False)
    gram_inverse_image: _Image = field(repr=False, compare=False)

    @cached_property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        ints, scale = self.gram_image
        return tuple(map(tuple, ints * scale))

    @cached_property
    def gram_inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        ints, scale = self.gram_inverse_image
        return tuple(map(tuple, ints * scale))


def _basis(point: ModelPoint, vectors: Sequence[Tensor], frame: np.ndarray, scale: Fraction) -> TangentBasis:
    """The frame ``scale * frame`` (one row per vector, content 1) with its
    Gram matrix and inverse, built on integer images; raises
    InvalidArgument if the Gram matrix is singular."""
    gram = frame @ point.model.metric()._ints.astype(object) @ frame.T
    adjugate, det = inverse_image(gram.tolist())
    return TangentBasis(
        point=point,
        vectors=tuple(vectors),
        frame_image=(frame, scale),
        gram_image=(gram, scale * scale),
        gram_inverse_image=(np.array(adjugate, dtype=object), 1 / (det * scale * scale)),
    )


def _stacked(vectors: Sequence[Tensor], dim: int) -> tuple[np.ndarray, Fraction]:
    """The vectors' images as rows over one common scale."""
    multiples, scale = integer_multiples([vec._scale for vec in vectors])
    frame = np.array(
        [[k * v for v in vec._ints.tolist()] for k, vec in zip(multiples, vectors)],
        dtype=object,
    ).reshape(len(vectors), dim)
    return frame, scale


def tangent_basis(point: ModelPoint) -> TangentBasis:
    """Build the canonical tangent frame at a point.

    Drops the standard direction with the largest component of the
    normal vector and projects the remaining standard basis vectors onto
    the tangent space: ``v_k = E_k − g(E_k, ω) ω`` with ω the normal.
    The result is exactly tangent and of full rank ``N − 1``.

    With ``ω = s w`` (integer ``w``) and ``s² = a / d`` in lowest terms,
    ``d v_k = d E_k − a η_k w_k w`` is an integer row (``η_k = ±1``, the
    metric's sign at ``k``), so the frame is one integer matrix over
    ``1 / d``.
    """
    model = point.model
    omega = model.normal_at(point.x)
    w = omega._ints.tolist()
    magnitudes = [abs(v) for v in w]
    dropped = magnitudes.index(max(magnitudes))
    square = omega._scale * omega._scale
    a, d = square.numerator, square.denominator
    rows = []
    for k in range(model.dim):
        if k != dropped:
            c = a * w[k] if k < model.signature.p else -a * w[k]
            rows.append([(d if j == k else 0) - c * v for j, v in enumerate(w)])
    rows = np.array(rows, dtype=object).reshape(model.dim - 1, model.dim)
    content = math.gcd(*rows.flat)
    vectors = [Tensor._from_ints(row, Fraction(1, d), model.dim) for row in rows]
    return _basis(point, vectors, rows // content, Fraction(content, d))


def tangent_basis_from_vectors(point: ModelPoint, vectors: Sequence[Tensor]) -> TangentBasis:
    """Build a frame from user-supplied tangent vectors.

    Each vector must be exactly tangent at ``point`` and the family must
    span the tangent space (``N − 1`` vectors with invertible Gram
    matrix); otherwise :class:`~killingtensor.errors.InvalidArgument`.
    """
    model = point.model
    vecs = tuple(point.require_tangent(v, f"basis vector {i}") for i, v in enumerate(vectors))
    if len(vecs) != model.dim - 1:
        raise InvalidArgument(
            f"a tangent basis needs {model.dim - 1} vectors, got {len(vecs)}"
        )
    try:
        return _basis(point, vecs, *_stacked(vecs, model.dim))
    except InvalidArgument as exc:
        raise InvalidArgument(f"basis vectors do not span the tangent space: {exc}") from exc


def random_tangent_vector(
    point: ModelPoint,
    rng: random.Random | int | None = None,
    *,
    bound: int = 9,
) -> Tensor:
    """Exact random tangent vector at ``point`` (projection of a random vector)."""
    generator = coerce_rng(rng)
    model = point.model
    omega = model.normal_at(point.x)
    raw = Tensor.from_nested(random_vector(generator, model.dim, bound))
    return raw - omega * model.pair(raw, omega)


# -- Killing-tensor evaluation ----------------------------------------


def _symmetric_four_tensor(S: object) -> Tensor:
    tensor = getattr(S, "tensor", S)
    if not isinstance(tensor, Tensor) or tensor.order != 4:
        raise InvalidArgument("expected an order-4 tensor (or wrapper with .tensor)")
    return tensor


def _eval_slots(tensor: Tensor, vectors: Sequence[Tensor]) -> Fraction:
    for vec in vectors:
        tensor = contract_vector(tensor, 1, vec)
    return tensor.item()


def killing_eval(S: object, point: ModelPoint, v: Tensor, w: Tensor) -> Fraction:
    """Value ``K(v, w)`` of the Killing tensor of ``S`` at a model point.

    ``S`` is the symmetric-class order-4 tensor of the Killing tensor
    representation; the value on tangent vectors is the full contraction
    ``S[a1, a2, b1, b2] x^{a1} x^{a2} v^{b1} w^{b2}``.
    """
    tensor = _symmetric_four_tensor(S)
    if tensor.dim != point.model.dim:
        raise InvalidArgument("tensor dimension does not match the model")
    v_t = point.require_tangent(v, "v")
    w_t = point.require_tangent(w, "w")
    return _eval_slots(tensor, [point.x, point.x, v_t, w_t])


def killing_vector_eval(A: Tensor, point: ModelPoint, v: Tensor) -> Fraction:
    """Value ``A[a, b] x^a v^b`` of the Killing vector of a matrix ``A``."""
    if A.order != 2 or A.dim != point.model.dim:
        raise InvalidArgument("A must be an order-2 tensor matching the model dimension")
    v_t = point.require_tangent(v, "v")
    return _eval_slots(A, [point.x, v_t])


def killing_cov_deriv(S: object, point: ModelPoint, c: Tensor, a: Tensor, b: Tensor) -> Fraction:
    """Covariant derivative ``(∇_c K)(a, b)`` at a model point.

    Equals ``2 S[c1, c2, d1, d2] x^{c1} c^{c2} a^{d1} b^{d2}`` on tangent
    vectors; its full symmetrisation over ``(c, a, b)`` vanishes exactly
    when ``S`` has the right symmetry class (the Killing equation).
    """
    tensor = _symmetric_four_tensor(S)
    if tensor.dim != point.model.dim:
        raise InvalidArgument("tensor dimension does not match the model")
    c_t = point.require_tangent(c, "c")
    a_t = point.require_tangent(a, "a")
    b_t = point.require_tangent(b, "b")
    return 2 * _eval_slots(tensor, [point.x, c_t, a_t, b_t])
