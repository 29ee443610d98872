"""Algebraic curvature tensors and the representations used as inputs.

Two equivalent encodings of the same irreducible symmetry class are used
side by side and converted into each other:

* :class:`CurvatureTensor` — slots ordered ``(a1, b1, a2, b2)``:
  antisymmetric in each pair, symmetric under pair exchange, cyclic sum
  over the last three slots vanishing;
* :class:`SymCurvatureTensor` — slots ordered ``(a1, a2, b1, b2)``:
  symmetric in each pair, symmetric under pair exchange, cyclic sum over
  the last three slots vanishing.

An order-2 symmetric form ``h`` enters through the Kulkarni–Nomizu
product ``⊘``, and the module builds the standard input families: the
curvature representation of the metric itself, the family attached to an
endomorphism (the structure tensor behind special conformal Killing
tensors), and the three-parameter family ``λ2 h⊘h + λ1 h⊘g + λ0 g⊘g``.

Validation failures raise :class:`~killingtensor.errors.InvalidArgument`
with a message naming the violated symmetry, so command-line diagnostics
can report exactly which constraint an input file broke.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._fastops import integer_array
from ._linalg import determinant
from ._util import coerce_rng, draw
from .errors import InvalidArgument
from .models import ModelKind, ModelSpace
from .symgroup import young_symmetriser
from .tensor import (
    MetricSignature,
    _rearrangement_sum,
    _rearrangements,
    Scalar,
    Tensor,
    as_scalar,
    contract,
    contract_vector,
    tensor_product,
)

__all__ = [
    "SymmetricForm",
    "AntisymmetricForm",
    "CurvatureTensor",
    "SymCurvatureTensor",
    "kulkarni_nomizu",
    "r_to_s",
    "s_to_r",
    "project_to_curvature",
    "metric_rep",
    "benenti_rep",
    "family_rep",
    "scalar_curvature",
    "random_symmetric_form",
    "random_invertible_matrix",
    "random_antisymmetric_matrix",
    "random_curvature",
]

#: Slot map locating tableau labels in the ``(a1, b1, a2, b2)`` slot order.
_CURVATURE_SLOT_OF_LABEL = {1: 1, 2: 3, 3: 2, 4: 4}

#: Adjoint Young symmetriser of the square tableau, built once.
_PROJECTOR_ELEMENT = young_symmetriser([[1, 2], [3, 4]]).adjoint()


def _require_order(tensor: Tensor, order: int, what: str) -> Tensor:
    if not isinstance(tensor, Tensor):
        raise InvalidArgument(f"{what} must be a Tensor, got {type(tensor).__name__}")
    if tensor.order != order:
        raise InvalidArgument(f"{what} must have order {order}, got {tensor.order}")
    return tensor


@dataclass(frozen=True)
class SymmetricForm:
    """An exactly symmetric order-2 tensor (lower indices)."""

    tensor: Tensor

    def __post_init__(self) -> None:
        ints = _require_order(self.tensor, 2, "symmetric form")._ints
        if not np.array_equal(ints, ints.transpose(1, 0)):
            raise InvalidArgument("symmetric form invalid: matrix is not symmetric")

    @property
    def dim(self) -> int:
        return self.tensor.dim


@dataclass(frozen=True)
class AntisymmetricForm:
    """An exactly antisymmetric order-2 tensor (lower indices)."""

    tensor: Tensor

    def __post_init__(self) -> None:
        ints = _require_order(self.tensor, 2, "antisymmetric form")._ints
        if not np.array_equal(ints, -ints.transpose(1, 0)):
            raise InvalidArgument("antisymmetric form invalid: matrix is not antisymmetric")

    @property
    def dim(self) -> int:
        return self.tensor.dim


def _cyclic_last_three(arr: np.ndarray) -> np.ndarray:
    """Sum of the three cyclic rotations of the last three of four axes.

    On the ``int64`` integer image of a tensor every entry is below
    2^62 in magnitude, so the true sum is below 3 * 2^62 < 2^64.  The
    sum numpy computes may wrap, but it equals the true sum modulo 2^64,
    so it is zero exactly when the true sum is: the zero test needs no
    promotion.
    """
    return arr + arr.transpose(0, 2, 3, 1) + arr.transpose(0, 3, 1, 2)


class _FourTensorWrapper:
    """Shared behaviour of the two curvature-class encodings.

    The class symmetries are checked on the tensor's integer image: they
    are linear and homogeneous, and the scale is positive, so they hold
    for the integers exactly when they hold for the Fractions.
    """

    __slots__ = ("_tensor",)

    _CLASS_NAME = "curvature-class tensor"

    def __init__(self, tensor: Tensor) -> None:
        t = _require_order(tensor, 4, self._CLASS_NAME)
        self._validate(t._ints)
        self._tensor = t

    @classmethod
    def _trusted(cls, tensor: Tensor) -> "_FourTensorWrapper":
        """Wrap an order-4 ``tensor`` known to lie in the class, unchecked."""
        wrapper = cls.__new__(cls)
        wrapper._tensor = tensor
        return wrapper

    def _validate(self, arr: np.ndarray) -> None:
        sign, word = self._PAIR_SIGN, self._PAIR_WORD
        checks = (
            (sign * arr.transpose(1, 0, 2, 3), f"not {word} in the first index pair"),
            (sign * arr.transpose(0, 1, 3, 2), f"not {word} in the second index pair"),
            (arr.transpose(2, 3, 0, 1), "index pairs do not exchange symmetrically"),
        )
        for image, failure in checks:
            if not np.array_equal(arr, image):
                raise InvalidArgument(f"{self._INVALID}: {failure}")
        if _cyclic_last_three(arr).any():
            raise InvalidArgument(
                f"{self._INVALID}: cyclic sum over the last three indices does not vanish"
            )

    @property
    def tensor(self) -> Tensor:
        return self._tensor

    @property
    def dim(self) -> int:
        return self._tensor.dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._tensor == other._tensor

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "_FourTensorWrapper") -> "_FourTensorWrapper":
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self._tensor + other.tensor)

    def __sub__(self, other: "_FourTensorWrapper") -> "_FourTensorWrapper":
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self._tensor - other.tensor)

    def __neg__(self) -> "_FourTensorWrapper":
        return type(self)(-self._tensor)

    def __mul__(self, scalar: object) -> "_FourTensorWrapper":
        return type(self)(self._tensor * as_scalar(scalar))  # type: ignore[arg-type]

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self._tensor.is_zero()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, nonzero={self._tensor.nonzero_count()})"


class CurvatureTensor(_FourTensorWrapper):
    """Curvature-class tensor in the slot order ``(a1, b1, a2, b2)``.

    Validated symmetries: antisymmetry within each index pair, symmetry
    under exchanging the pairs, and the vanishing cyclic sum over the
    last three slots.
    """

    _CLASS_NAME = "curvature tensor"
    _INVALID = "curvature tensor invalid"
    _PAIR_SIGN, _PAIR_WORD = -1, "antisymmetric"


class SymCurvatureTensor(_FourTensorWrapper):
    """Curvature-class tensor in the slot order ``(a1, a2, b1, b2)``.

    Validated symmetries: symmetry within each index pair, symmetry
    under exchanging the pairs, and the vanishing cyclic sum over the
    last three slots.
    """

    _CLASS_NAME = "symmetric-class curvature tensor"
    _INVALID = "symmetric-class tensor invalid"
    _PAIR_SIGN, _PAIR_WORD = 1, "symmetric"


# -- products and conversions -----------------------------------------

# The slot rearrangements of kulkarni_nomizu, r_to_s and s_to_r, with
# product[a, b, c, d] = h[a, b] k[c, d] in kulkarni_nomizu:
# result[i1,i2,i3,i4] = product[i1,i3,i2,i4] − product[i1,i4,i2,i3]
#                     − product[i2,i3,i1,i4] + product[i2,i4,i1,i3]
_KULKARNI_NOMIZU = _rearrangements(
    [(1, (0, 2, 1, 3)), (-1, (0, 2, 3, 1)), (-1, (2, 0, 1, 3)), (1, (2, 0, 3, 1))]
)
_R_TO_S = _rearrangements([(1, (0, 2, 1, 3)), (1, (0, 2, 3, 1))])
_S_TO_R = _rearrangements([(Fraction(1, 3), (0, 2, 1, 3)), (Fraction(-1, 3), (0, 2, 3, 1))])


def _form_tensor(form: SymmetricForm | Tensor, what: str) -> Tensor:
    tensor = form.tensor if isinstance(form, SymmetricForm) else form
    return _require_order(tensor, 2, what)


def kulkarni_nomizu(h: SymmetricForm | Tensor, k: SymmetricForm | Tensor) -> CurvatureTensor:
    """Kulkarni–Nomizu product ``h ⊘ k`` in the ``(a1, b1, a2, b2)`` slot order.

    ``(h ⊘ k)[a1, b1, a2, b2] = h[a1, a2] k[b1, b2] − h[a1, b2] k[b1, a2]
    − h[b1, a2] k[a1, b2] + h[b1, b2] k[a1, a2]``.
    """
    ht = _form_tensor(h, "left factor of the Kulkarni–Nomizu product")
    kt = _form_tensor(k, "right factor of the Kulkarni–Nomizu product")
    if ht.dim != kt.dim:
        raise InvalidArgument("Kulkarni–Nomizu factors must share a dimension")
    product = tensor_product(ht, kt)  # product[a, b, c, d] = h[a, b] k[c, d]
    return CurvatureTensor(_rearrangement_sum(product, _KULKARNI_NOMIZU))


def r_to_s(R: CurvatureTensor) -> SymCurvatureTensor:
    """Pass from the ``(a1, b1, a2, b2)`` encoding to ``(a1, a2, b1, b2)``.

    ``S[a1, a2, b1, b2] = R[a1, b1, a2, b2] + R[a1, b2, a2, b1]``.

    The result is built without validation: ``S`` lies in the symmetric
    class whenever ``R`` lies in its class.  Writing the symmetries of
    ``R`` as (A) antisymmetry in each pair and (X) pair exchange:

    * ``S[a2, a1, b1, b2] = R[a2, b1, a1, b2] + R[a2, b2, a1, b1]``, which
      is ``R[a1, b2, a2, b1] + R[a1, b1, a2, b2] = S`` by (X);
    * ``S[a1, a2, b2, b1]`` lists the two terms of ``S`` swapped;
    * ``S[b1, b2, a1, a2] = R[b1, a1, b2, a2] + R[b1, a2, b2, a1]``, which
      is ``R[a1, b1, a2, b2] + R[a1, b2, a2, b1] = S`` by (A) twice and
      then (X) on the second term;
    * the cyclic sum ``S[a, b, c, d] + S[a, c, d, b] + S[a, d, b, c]`` is
      ``R[a, c, b, d] + R[a, d, b, c] + R[a, d, c, b] + R[a, b, c, d] +
      R[a, b, d, c] + R[a, c, d, b]``: three pairs that cancel by (A) in
      the second pair.

    Each step is an identity of integer images (the map is linear and the
    scale positive), so it holds for Python-int images as well.
    """
    return SymCurvatureTensor._trusted(_rearrangement_sum(R.tensor, _R_TO_S))


def s_to_r(S: SymCurvatureTensor) -> CurvatureTensor:
    """Inverse of :func:`r_to_s`:
    ``R[a1, b1, a2, b2] = (S[a1, a2, b1, b2] − S[a1, b2, b1, a2]) / 3``.

    The result is built without validation: ``R`` lies in the curvature
    class whenever ``S`` lies in its class.  Writing the symmetries of
    ``S`` as (P) symmetry in each pair and (X) pair exchange, and leaving
    out the factor 1/3:

    * ``R[b1, a1, a2, b2] = S[b1, a2, a1, b2] − S[b1, b2, a1, a2]``, which
      is ``S[a1, b2, b1, a2] − S[a1, a2, b1, b2] = −R`` by (X);
    * ``R[a1, b1, b2, a2] = S[a1, b2, b1, a2] − S[a1, a2, b1, b2] = −R``;
    * ``R[a2, b2, a1, b1] = S[a2, a1, b2, b1] − S[a2, b1, b2, a1]``, which
      is ``S[a1, a2, b1, b2] − S[a1, b2, b1, a2] = R`` by (P), with (X)
      on the second term;
    * the cyclic sum ``R[a, b, c, d] + R[a, c, d, b] + R[a, d, b, c]`` is
      ``S[a, c, b, d] − S[a, d, b, c] + S[a, d, c, b] − S[a, b, c, d] +
      S[a, b, d, c] − S[a, c, d, b]``: three pairs that cancel by (P) in
      the second pair.

    As for :func:`r_to_s`, the steps hold on any integer image.
    """
    return CurvatureTensor._trusted(_rearrangement_sum(S.tensor, _S_TO_R))


def _as_class(K: object, cls: type) -> "CurvatureTensor | SymCurvatureTensor":
    """``K`` in the curvature class ``cls``, converting from the other one."""
    if isinstance(K, cls):
        return K
    if isinstance(K, CurvatureTensor):
        return r_to_s(K)
    if isinstance(K, SymCurvatureTensor):
        return s_to_r(K)
    raise InvalidArgument(
        "expected a CurvatureTensor or SymCurvatureTensor, got " + type(K).__name__
    )


def project_to_curvature(tensor: Tensor) -> CurvatureTensor:
    """Project an arbitrary order-4 tensor onto the curvature class.

    Applies the adjoint Young symmetriser of the square tableau, with
    labels located at slots ``(a1, b1, a2, b2)``, scaled by ``1/12``.
    Tensors already in the class are reproduced unchanged.
    """
    t = _require_order(tensor, 4, "projection input")
    projected = _PROJECTOR_ELEMENT.apply(t, _CURVATURE_SLOT_OF_LABEL) * Fraction(1, 12)
    return CurvatureTensor(projected)


def scalar_curvature(R: CurvatureTensor, signature: MetricSignature | None = None) -> Fraction:
    """Full trace ``g^{a1 a2} g^{b1 b2} R[a1, b1, a2, b2]``."""
    sig = signature if signature is not None else MetricSignature.euclidean(R.dim)
    if sig.dim != R.dim:
        raise InvalidArgument("signature dimension does not match the tensor")
    ginv = sig.inverse_metric()
    first = contract(R.tensor, 1, 3, ginv)  # slots (b1, b2)
    return contract(first, 1, 2, ginv).item()


# -- standard representations -----------------------------------------


def _lower_vector(signature: MetricSignature, vector: Tensor) -> Tensor:
    return contract_vector(signature.metric(), 2, vector)


def metric_rep(model: ModelSpace) -> CurvatureTensor:
    """Curvature representation of the metric Killing tensor ``g`` itself.

    On the sphere this is ``(1/2) g ⊘ g`` (the constant-curvature
    tensor).  On the flat model it is ``(u♭ ⊗ u♭) ⊘ g`` with
    ``u♭ = g·u`` the lowered height vector, which reproduces the metric
    under point evaluation on the hyperplane.
    """
    g = model.metric()
    if model.kind is ModelKind.SPHERE:
        return kulkarni_nomizu(g, g) * Fraction(1, 2)
    u = model.height_vector
    assert u is not None
    u_flat = _lower_vector(model.signature, u)
    return kulkarni_nomizu(tensor_product(u_flat, u_flat), g)


def benenti_rep(model: ModelSpace, A: Tensor) -> CurvatureTensor:
    """Curvature representation of the Killing tensor attached to an
    endomorphism ``A`` (special conformal / Benenti family).

    With ``m = AᵀgA`` the pull-back of the metric along ``A`` (as a
    matrix of lower indices, ``m[a,b] = g[c,d] A[c,a] A[d,b]``):

    * sphere: ``(1/2) m ⊘ m``;
    * flat model: ``(φ ⊗ φ) ⊘ m`` where ``φ[a] = u♭[c] A[c,a]``.
    """
    At = _require_order(A, 2, "endomorphism A")
    if At.dim != model.dim:
        raise InvalidArgument("endomorphism dimension does not match the model")
    # (A ⊗ A)[c, a, d, b] = A[c, a] A[d, b], paired with g over (c, d).
    m = contract(tensor_product(At, At), 1, 3, model.metric())
    if model.kind is ModelKind.SPHERE:
        return kulkarni_nomizu(m, m) * Fraction(1, 2)
    u = model.height_vector
    assert u is not None
    u_flat = _lower_vector(model.signature, u)
    phi = contract_vector(At, 1, u_flat)
    return kulkarni_nomizu(tensor_product(phi, phi), m)


def family_rep(
    h: SymmetricForm | Tensor,
    lam0: Scalar | int | str,
    lam1: Scalar | int | str,
    lam2: Scalar | int | str,
    signature: MetricSignature | None = None,
) -> CurvatureTensor:
    """The three-parameter family ``λ2 h⊘h + λ1 h⊘g + λ0 g⊘g``.

    ``g`` is the ambient metric of ``signature`` (Euclidean by default).
    Every member is integrable on the sphere models, in either signature;
    this family is the main structured positive-control input there.  It
    is not integrable on every model: on the flat model at N ≥ 4, where
    the contraction tensor ``g − u♭⊗u♭`` is degenerate, generic members
    fail both conditions, and the pointwise oracle agrees.
    """
    ht = _form_tensor(h, "symmetric form h")
    sig = signature if signature is not None else MetricSignature.euclidean(ht.dim)
    if sig.dim != ht.dim:
        raise InvalidArgument("signature dimension does not match h")
    g = sig.metric()
    l0, l1, l2 = as_scalar(lam0), as_scalar(lam1), as_scalar(lam2)
    total = (
        kulkarni_nomizu(ht, ht) * l2
        + kulkarni_nomizu(ht, g) * l1
        + kulkarni_nomizu(g, g) * l0
    )
    return total


# -- random generators ------------------------------------------------


def _drawn(generator: random.Random, dim: int, count: int, bound: int) -> tuple[np.ndarray, Fraction]:
    """``count`` rationals drawn by :func:`~killingtensor._util.draw` as one
    flat integer image, for a generator of dimension ``dim``.  Nothing is
    drawn, and ``bound`` is not read, when ``count`` is 0."""
    if dim < 1:
        raise InvalidArgument(f"dimension must be positive, got {dim}")
    ints, common = draw(generator, count, bound) if count else ([], 1)
    return integer_array(ints), Fraction(1, common)


def random_symmetric_form(
    dim: int,
    rng: random.Random | int | None = None,
    *,
    bound: int = 9,
) -> SymmetricForm:
    """Random exactly symmetric order-2 tensor with small rational entries."""
    values, scale = _drawn(coerce_rng(rng), dim, dim * (dim + 1) // 2, bound)
    upper, ints = np.triu_indices(dim), np.zeros((dim, dim), dtype=values.dtype)
    ints[upper] = ints.T[upper] = values
    return SymmetricForm(Tensor._from_ints(ints, scale, dim))


def random_antisymmetric_matrix(
    dim: int,
    rng: random.Random | int | None = None,
    *,
    bound: int = 9,
) -> AntisymmetricForm:
    """Random exactly antisymmetric order-2 tensor."""
    values, scale = _drawn(coerce_rng(rng), dim, dim * (dim - 1) // 2, bound)
    upper, ints = np.triu_indices(dim, 1), np.zeros((dim, dim), dtype=values.dtype)
    ints[upper], ints.T[upper] = values, -values
    return AntisymmetricForm(Tensor._from_ints(ints, scale, dim))


def random_invertible_matrix(
    dim: int,
    rng: random.Random | int | None = None,
    *,
    bound: int = 9,
    max_attempts: int = 100,
) -> Tensor:
    """Random order-2 tensor with non-zero determinant (exact check)."""
    generator = coerce_rng(rng)
    for _ in range(max_attempts):
        values, scale = _drawn(generator, dim, dim * dim, bound)
        ints = values.reshape(dim, dim)
        if determinant(ints.tolist()) != 0:
            return Tensor._from_ints(ints, scale, dim)
    raise InvalidArgument(f"failed to draw an invertible matrix in {max_attempts} attempts")


def random_curvature(
    dim: int,
    rng: random.Random | int | None = None,
    *,
    bound: int = 9,
) -> CurvatureTensor:
    """Random member of the curvature class: a random order-4 tensor
    pushed through :func:`project_to_curvature`."""
    values, scale = _drawn(coerce_rng(rng), dim, dim**4, bound)
    return project_to_curvature(Tensor._from_ints(values.reshape((dim,) * 4), scale, dim))
