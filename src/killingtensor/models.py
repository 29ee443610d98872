"""Embedded standard models of constant-curvature spaces with exact points.

A model space lives inside a pseudo-Euclidean ambient space ``R^{p,q}``:

* ``sphere`` — the quadric ``{x : g(x, x) = 1}`` (unit curvature); needs
  at least one plus sign in the signature;
* ``flat`` — the affine hyperplane ``{x : g(x, u) = 1}`` for a fixed
  vector ``u`` with ``g(u, u) = 1`` (Euclidean/pseudo-Euclidean space
  embedded at height one along ``u``).

Both models admit dense sets of rational points, which this module
samples exactly: a rational parameter vector ``t = T / D`` (integers
``T``, one common denominator ``D``) is mapped onto the model by an
explicit rational parametrisation, written as one closed integer
formula for the point's image, so membership equations hold as
identities, never approximately.  No Fraction or Tensor arithmetic runs
on the way; each point is still checked by :class:`ModelPoint`.

The module also evaluates quadratic Killing tensors, Killing vector
fields, and covariant derivatives at model points, and builds exact
tangent frames with their Gram matrices as integer images — the raw
material for the point-based integrability oracle.  On the flat model
the normal is ``u`` at every point, so one frame serves the whole model.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from ._fastops import integer_array, integer_multiples
from ._linalg import inverse_image
from ._util import coerce_rng, draw as _draw
from .errors import InvalidArgument, SamplingFailure
from .tensor import MetricSignature, Scalar, Tensor, contract_vector

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


def _dot(p: int, x: Sequence[int], y: Sequence[int]) -> int:
    """``g(x, y)`` of two integer vectors, ``p`` being the number of plus signs."""
    return sum(map(operator.mul, x[:p], y[:p])) - sum(map(operator.mul, x[p:], y[p:]))


def _signs(signature: MetricSignature) -> list[int]:
    """The metric's diagonal ``η`` as ints."""
    return [1] * signature.p + [-1] * signature.q


def _g_pair(signature: MetricSignature, a: Tensor, b: Tensor) -> Fraction:
    """``g(a, b)``: one dot product of the integer images, then the scales."""
    return a._scale * b._scale * _dot(signature.p, a._ints.tolist(), b._ints.tolist())


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

    def _contains(self, x: Tensor) -> bool:
        """Membership as one integer comparison on ``x = (n / e) w``:
        ``n² g(w, w) = e²`` on the sphere and, with ``u = (m / k) U``,
        ``n m g(w, U) = e k`` on the flat model."""
        w, n, e = x._ints.tolist(), x._scale.numerator, x._scale.denominator
        if self.kind is ModelKind.SPHERE:
            return n * n * _dot(self.signature.p, w, w) == e * e
        assert self.height_vector is not None
        u, scale = self.height_vector._ints.tolist(), self.height_vector._scale
        return n * scale.numerator * _dot(self.signature.p, w, u) == e * scale.denominator

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
        if self.kind is ModelKind.SPHERE:
            return self.signature.inverse_metric()
        assert self.height_vector is not None
        # With u = (m / k) U: gbar = (k² g⁻¹ − m² U⊗U) / k², one integer image.
        u, scale = self.height_vector._ints.tolist(), self.height_vector._scale
        diagonal = scale.denominator**2
        square = scale.numerator**2
        ints = [
            [(diagonal * sign if i == j else 0) - square * a * b for j, b in enumerate(u)]
            for i, (a, sign) in enumerate(zip(u, _signs(self.signature)))
        ]
        return Tensor._from_ints(np.array(ints, dtype=object), Fraction(1, diagonal), self.dim)

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
        if not self.model._contains(vec):
            raise InvalidArgument(
                f"point is not on the {self.model.kind.value} model: "
                f"membership residual {self.model.membership_residual(vec)}"
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


def _numerators(vector: Tensor) -> tuple[list[int], int]:
    """A rational vector as integer numerators over one denominator."""
    scale = vector._scale
    return [scale.numerator * v for v in vector._ints.tolist()], scale.denominator


def _point(model: ModelSpace, t: list[int], d: int) -> ModelPoint:
    """The model point of the parameter ``t / d`` (``d > 0``).

    Sphere (``t[0] = 0``, ``g(t, t) ≠ −d²``):
    ``x = ((d² − g(t,t)) e + 2d t) / (d² + g(t,t))``.  Flat, with
    ``u = (m / k) U``: ``x = (k² t + (m k d − m² g(t,U)) U) / (d k²)``.
    The scale is kept positive, and the tensor's image is content-reduced,
    so it is the image that Tensor arithmetic on the formula gives.
    """
    p = model.signature.p
    if model.kind is ModelKind.SPHERE:
        norm = _dot(p, t, t)
        image = [2 * d * v for v in t]
        image[0] += d * d - norm
        denominator = d * d + norm
    else:
        assert model.height_vector is not None
        u, scale = model.height_vector._ints.tolist(), model.height_vector._scale
        m, k = scale.numerator, scale.denominator
        shift = m * k * d - m * m * _dot(p, t, u)
        image = [k * k * a + shift * b for a, b in zip(t, u)]
        denominator = d * k * k
    if denominator < 0:
        image, denominator = [-v for v in image], -denominator
    x = Tensor._from_ints(np.array(image, dtype=object), Fraction(1, denominator), model.dim)
    return ModelPoint(model, x)


def sphere_point_from_parameter(model: ModelSpace, parameter: "Sequence[Scalar] | Tensor") -> ModelPoint:
    """Map a rational parameter onto the sphere model.

    With ``e`` the first standard basis vector, a parameter vector ``t``
    with ``t[0] = 0`` and ``g(t, t) ≠ −1`` maps to

        ``x = ((1 − g(t,t)) e + 2 t) / (1 + g(t,t))``,

    which satisfies ``g(x, x) = 1`` identically (inverse stereographic
    projection from ``−e``).  Example (Euclidean, N = 3):
    ``t = (0, 1/2, 0)`` maps to ``x = (3/5, 4/5, 0)``.  With ``t = T / D``
    the image is computed as the integer vector
    ``(D² − g(T,T)) e + 2D T`` over ``D² + g(T,T)``.
    """
    if model.kind is not ModelKind.SPHERE:
        raise InvalidArgument("sphere_point_from_parameter needs a sphere model")
    t = _as_vector(parameter, model.dim)
    if t[(0,)] != 0:
        raise InvalidArgument("sphere parameter must have first component zero")
    ints, d = _numerators(t)
    if _dot(model.signature.p, ints, ints) == -d * d:
        raise InvalidArgument("sphere parameter has g(t,t) = −1; the map is undefined there")
    return _point(model, ints, d)


def flat_point_from_parameter(model: ModelSpace, parameter: "Sequence[Scalar] | Tensor") -> ModelPoint:
    """Map a rational parameter onto the flat model.

    The parameter is projected onto the tangent hyperplane,
    ``t = t' − g(t', u) u``, and the point is ``x = u + t`` so that
    ``g(x, u) = 1`` holds identically.  It is computed as one integer
    vector over the common denominator of ``t'`` and ``u``.
    """
    if model.kind is not ModelKind.FLAT:
        raise InvalidArgument("flat_point_from_parameter needs a flat model")
    return _point(model, *_numerators(_as_vector(parameter, model.dim)))


def sample_point(
    model: ModelSpace,
    rng: random.Random | int | None = None,
    *,
    bound: int = 9,
) -> ModelPoint:
    """Draw an exact random rational point on the model.

    Parameters are drawn with numerators and denominators up to
    ``bound`` by :func:`~killingtensor._util.draw`,
    and mapped by the integer formulas of
    :func:`sphere_point_from_parameter` and :func:`flat_point_from_parameter`.
    On the sphere, parameters with ``g(t,t) = −1`` (possible in indefinite
    signature) are redrawn; persistent failure raises
    :class:`~killingtensor.errors.SamplingFailure`.
    """
    generator = coerce_rng(rng)
    if model.kind is ModelKind.FLAT:
        return _point(model, *_draw(generator, model.dim, bound))
    for _ in range(_MAX_SAMPLING_ATTEMPTS):
        ints, d = _draw(generator, model.dim - 1, bound)
        ints.insert(0, 0)
        if _dot(model.signature.p, ints, ints) != -d * d:
            return _point(model, ints, d)
    raise SamplingFailure(
        f"could not sample a sphere point after {_MAX_SAMPLING_ATTEMPTS} attempts"
    )


# -- tangent frames ----------------------------------------------------

# An integer image: a Python-int object array and one positive scale.
_Image = tuple[np.ndarray, Fraction]
# An integer image as Python-int rows, and its positive scale.
_Rows = tuple[list[list[int]], Fraction]


@dataclass(frozen=True)
class TangentBasis:
    """An exact basis of the tangent space at a model point.

    ``vectors`` spans the tangent space.  ``frame_image`` (one row per
    vector), ``gram_image`` (``g(v_i, v_j)``) and ``gram_inverse_image``
    are integer images; ``gram`` and ``gram_inverse`` give the Gram matrix
    and its exact inverse as Fractions (the tangent metric is non-degenerate).
    ``gram_inverse_image`` is content-reduced: its integers have no common
    factor, so it depends only on the Gram matrix, not on how the basis
    was built.
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


def _content_reduced(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Integer rows divided by their gcd, and the gcd."""
    content = math.gcd(*[math.gcd(*row) for row in rows])
    return [[v // content for v in row] for row in rows], content


def _stacked(vectors: Sequence[Tensor], dim: int) -> tuple[np.ndarray, Fraction]:
    """The vectors' images as rows over one common scale."""
    multiples, scale = integer_multiples([vec._scale for vec in vectors])
    frame = np.array(
        [[k * v for v in vec._ints.tolist()] for k, vec in zip(multiples, vectors)],
        dtype=object,
    ).reshape(len(vectors), dim)
    return frame, scale


def _frame(signature: MetricSignature, normal: Tensor) -> tuple[_Rows, _Rows, _Rows]:
    """The canonical frame orthogonal to a unit normal (see
    :func:`tangent_basis`), its Gram matrix and the Gram matrix's inverse,
    as Python-int rows over positive scales, from closed formulas.

    Write ``ω = s w`` (integer ``w``) with ``s² = a / d`` in lowest terms,
    ``r`` for the dropped index, ``η`` for the metric's signs and
    ``u_k = η_k w_k``.  The rows are ``R_k = d E_k − a u_k w`` (``k ≠ r``),
    and the frame is ``R / c`` over ``c / d``, ``c`` the rows' content.

    * Gram matrix.  ``g(E_k, w) = u_k`` and, ``ω`` being a unit vector,
      ``a g(w, w) = d``, so ``g(R_k, R_l) = d² η_k δ_kl − 2ad u_k u_l
      + a² g(w, w) u_k u_l = d² η_k δ_kl − ad u_k u_l``.  Over ``c²`` this
      is ``frame · η · frameᵀ``, an integer matrix, with scale
      ``(c / d)²``; the Gram matrix is ``G = Λ − (a / d) u uᵀ`` with
      ``Λ = diag(η_k)``, ``k ≠ r``.
    * Inverse.  By Sherman and Morrison (Ann. Math. Statist. 21, 1950),
      ``(Λ − β u uᵀ)⁻¹ = Λ + β Λu uᵀΛ / (1 − β uᵀΛu)``, ``β = a / d``.
      Here ``Λu = w′``, ``w`` without its entry ``r``, and
      ``uᵀΛu = g(w, w) − η_r w_r²``, so ``1 − β uᵀΛu = a η_r w_r² / d``
      and ``G⁻¹ = Λ + η_r w′w′ᵀ / w_r²``; ``w_r ≠ 0``, since ``|w_r|`` is
      the largest entry of a nonzero vector.  The image is
      ``w_r² Λ + η_r w′w′ᵀ`` over ``1 / w_r²``, content-reduced.
    """
    w = normal._ints.tolist()
    if len(w) < 2:
        raise InvalidArgument("a tangent frame needs an ambient dimension of at least 2")
    magnitudes = [abs(v) for v in w]
    r = magnitudes.index(max(magnitudes))
    a, d = normal._scale.numerator ** 2, normal._scale.denominator ** 2
    signs = _signs(signature)
    sign_r, w_r = signs.pop(r), w[r]
    kept = w[:r] + w[r + 1 :]
    u = [sign * w_k for sign, w_k in zip(signs, kept)]
    rows = [[-a * u_k * w_j for w_j in w] for u_k in u]
    gram = [[-a * d * u_k * u_l for u_l in u] for u_k in u]
    inverse = [[sign_r * w_k * w_l for w_l in kept] for w_k in kept]
    # The diagonal terms; row i is the standard direction k = i + (i >= r).
    for i, sign in enumerate(signs):
        rows[i][i + (i >= r)] += d
        gram[i][i] += d * d * sign
        inverse[i][i] += w_r * w_r * sign
    frame, content = _content_reduced(rows)
    gram = [[v // (content * content) for v in row] for row in gram]
    inverse, common = _content_reduced(inverse)
    scale = Fraction(content, d)
    return (frame, scale), (gram, scale * scale), (inverse, Fraction(common, w_r * w_r))


def tangent_basis(point: ModelPoint) -> TangentBasis:
    """Build the canonical tangent frame at a point.

    Drops the standard direction with the largest component of the
    normal vector and projects the remaining standard basis vectors onto
    the tangent space: ``v_k = E_k − g(E_k, ω) ω`` with ω the normal.
    The result is exactly tangent and of full rank ``N − 1``.

    With ``ω = s w`` (integer ``w``) and ``s² = a / d`` in lowest terms,
    ``d v_k = d E_k − a η_k w_k w`` is an integer row (``η_k = ±1``, the
    metric's sign at ``k``), so the frame is one integer matrix over
    ``1 / d``.  Because ``ω`` is a unit vector, the Gram matrix is
    ``Λ − (a / d) u uᵀ`` (``Λ = diag(η_k)``, ``u_k = η_k w_k``, ``k`` not
    the dropped index ``r``) and its inverse is ``Λ + η_r w′w′ᵀ / w_r²``
    (``w′`` is ``w`` without index ``r``): both are closed integer
    formulas, with no matrix product and no elimination (the proof is in
    ``_frame``).  On the flat model the normal is ``u``, so every point
    has the same frame.
    """
    model = point.model
    images = [
        (np.array(ints, dtype=object), scale)
        for ints, scale in _frame(model.signature, model.normal_at(point.x))
    ]
    frame, scale = images[0]
    vectors = [Tensor._from_ints(row, scale, model.dim) for row in frame]
    return TangentBasis(point, tuple(vectors), *images)


def _sample_blocks(
    model: ModelSpace, seeds: Sequence[int], size: int, bound: int
) -> Iterator[tuple[list[ModelPoint], np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The points ``sample_point(model, random.Random(seed), bound=bound)``,
    ``size`` seeds at a time, and each block's images in Python ints,
    stacked on a leading axis of length ``P``: the points ``(P, N)``, the
    frames of :func:`tangent_basis` ``(P, N − 1, N)``, their Gram matrices
    and inverses ``(P, N − 1, N − 1)``.  The scales are left out.  Each
    stack is one ``np.array`` of the points' rows.  The flat model's one
    frame is built once, and broadcast over the block."""
    shared = None
    if model.is_flat:
        assert model.height_vector is not None
        shared = [np.array(ints, dtype=object) for ints, _ in _frame(model.signature, model.height_vector)]
    for start in range(0, len(seeds), size):
        block = seeds[start : start + size]
        points = [sample_point(model, random.Random(seed), bound=bound) for seed in block]
        xs = np.array([point.x._ints.tolist() for point in points], dtype=object)
        if shared is None:
            frames = [_frame(model.signature, point.x) for point in points]
            images = [np.array([frame[i][0] for frame in frames], dtype=object) for i in range(3)]
        else:
            images = [np.broadcast_to(ints, (len(points),) + ints.shape) for ints in shared]
        yield points, xs, *images


def tangent_basis_from_vectors(point: ModelPoint, vectors: Sequence[Tensor]) -> TangentBasis:
    """Build a frame from user-supplied tangent vectors.

    Each vector must be exactly tangent at ``point`` and the family must
    span the tangent space (``N − 1`` vectors with invertible Gram
    matrix); otherwise :class:`~killingtensor.errors.InvalidArgument`.
    The vectors are arbitrary, so the Gram matrix is ``frame · η ·
    frameᵀ`` and its inverse comes from one fraction-free elimination.
    """
    model = point.model
    vecs = tuple(point.require_tangent(v, f"basis vector {i}") for i, v in enumerate(vectors))
    if len(vecs) != model.dim - 1:
        raise InvalidArgument(
            f"a tangent basis needs {model.dim - 1} vectors, got {len(vecs)}"
        )
    frame, scale = _stacked(vecs, model.dim)
    gram = frame * np.array(_signs(model.signature), dtype=object) @ frame.T
    try:
        adjugate, det = inverse_image(gram.tolist())
    except InvalidArgument as exc:
        raise InvalidArgument(f"basis vectors do not span the tangent space: {exc}") from exc
    inverse, content = _content_reduced(adjugate)
    return TangentBasis(
        point, vecs, (frame, scale), (gram, scale * scale),
        (np.array(inverse, dtype=object), content / (det * scale * scale)),
    )


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
    ints, common = _draw(generator, model.dim, bound)
    raw = Tensor._from_ints(integer_array(ints), Fraction(1, common), model.dim)
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
