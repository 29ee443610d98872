"""Dense tensors over exact rational scalars.

This module provides the arithmetic substrate for the whole package: an
immutable dense tensor type with exact rational entries, together with
the functional operations (slot permutation, contraction against a
pairing, unnormalised symmetrisation and antisymmetrisation) used by the
symmetry-group and curvature layers.

Design notes
------------
* All arithmetic is exact.  No floating-point numbers enter at any point,
  so equality tests and zero tests are exact as well.
* A tensor is stored as its *integer image*: an integer array and one
  positive :class:`~fractions.Fraction` scale, with the tensor equal to
  ``scale * array``.  The array is content-reduced (the gcd of its
  entries is 1, or it is all zero and the scale is 1), so the pair is
  unique for each tensor.  It is ``int64`` when every entry is below
  2^62 in magnitude and Python ints otherwise, as ``_fastops`` alone
  decides.  An all-zero array is one broadcast zero, which holds no
  memory at any size; :meth:`Tensor.is_zero` and
  :meth:`Tensor.nonzero_count` read it once.  Every operation here, and
  the package's integer pipelines, work on the pair directly.  Random rationals are drawn only by
  ``_util.draw``; strings are parsed only by :func:`_rational_pair`, and
  slot rearrangements summed only by :func:`_rearrangement_sum`, here.
  Fraction arrays become images in :func:`_rescale` and turn back in
  :func:`_fraction_view`.
* Tensor slots are numbered **1-based** in the public API, matching the
  index conventions of the accompanying documentation (slot 1 is the first
  index).  Internally they map to 0-based ``numpy`` axes.
* ``symmetrise_slots`` and ``antisymmetrise_slots`` are *unnormalised*:
  they sum over all permutations of the chosen slots without dividing by
  the factorial.  Applying either twice therefore multiplies the result
  of a single application by ``len(slots)!``.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from ._fastops import (
    guarded_tensordot,
    integer_array,
    integer_multiples,
    linear_combination,
    normalize_array,
    stored_entries,
    transposed_sum,
    zero_array,
)
from .errors import InvalidArgument

__all__ = [
    "Scalar",
    "as_scalar",
    "MetricSignature",
    "Tensor",
    "tensor_product",
    "permute_slots",
    "contract",
    "contract_vector",
    "symmetrise_slots",
    "antisymmetrise_slots",
]

#: Exact scalar type used throughout the package.
Scalar = Fraction

ScalarLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The string forms as_scalar accepts: "p" or "p/q", with an optional sign.
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def _rational_pair(raw: "str | int | Fraction") -> "tuple[int, int] | None":
    """The reduced (numerator, denominator) of a value :func:`as_scalar`
    accepts, or None where it raises: a string outside ``_RATIONAL``, a
    zero denominator, or a numeral over the interpreter's digit limit."""
    kind = type(raw)
    if kind is int:
        return raw, 1
    if kind is Fraction:
        return raw.numerator, raw.denominator
    # Fraction() alone also takes decimals, exponents and underscores,
    # and "1e999999999" would make it build a billion-digit integer.
    if not _RATIONAL.fullmatch(raw):
        return None
    numerator, _, denominator = raw.strip().partition("/")
    try:
        p, q = int(numerator), int(denominator or 1)
    except ValueError:
        return None
    if not q:
        return None
    g = math.gcd(p, q)
    return p // g, q // g


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce ``value`` to an exact :class:`~fractions.Fraction`.

    Accepts :class:`~fractions.Fraction`, :class:`int`, and strings of the
    form ``"p"`` or ``"p/q"``.  Floats are rejected to keep the pipeline
    exact: silently converting ``0.1`` would introduce a binary rounding
    artefact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        pair = _rational_pair(value)
        if pair is None:
            shown = value if len(value) <= 40 else value[:40] + "..."
            raise InvalidArgument(f"cannot parse rational scalar {shown!r}")
        return Fraction(*pair)
    raise InvalidArgument(
        f"expected an exact rational scalar (Fraction, int, or 'p/q' string), got {type(value).__name__}"
    )


def _cubical_dim(shape: tuple[int, ...], dim: int | None) -> int:
    """The dimension of a cubical array shape, checked against ``dim``."""
    if not shape:
        if dim is None:
            raise InvalidArgument("order-0 Tensor needs an explicit dim")
        size = int(dim)
    else:
        if len(set(shape)) != 1:
            raise InvalidArgument(f"tensor array must be cubical, got shape {shape}")
        size = shape[0]
        if dim is not None and int(dim) != size:
            raise InvalidArgument(f"dim {dim} does not match array shape {shape}")
    if size < 1:
        raise InvalidArgument(f"dimension must be positive, got {size}")
    return size


def _rescale(array: np.ndarray) -> tuple[np.ndarray, Fraction]:
    """Integer array and scale of an object array of exact rationals."""
    flat = array.ravel().tolist()
    try:
        lcm = math.lcm(*{value.denominator for value in flat})
        ints = [int(value.numerator) * (lcm // value.denominator) for value in flat]
    except (AttributeError, TypeError) as exc:
        raise InvalidArgument("Tensor entries must be exact rationals (Fraction or int)") from exc
    return integer_array(ints).reshape(array.shape), Fraction(1, lcm)


def _fraction_view(ints: np.ndarray, scale: Fraction) -> np.ndarray:
    """Read-only object array of the Fractions ``scale * ints``."""
    cache: dict[int, Fraction] = {}
    values = []
    for key in ints.ravel().tolist():
        value = cache.get(key)
        if value is None:
            value = cache[key] = scale * key
        values.append(value)
    out = np.array(values, dtype=object).reshape(ints.shape)
    out.setflags(write=False)
    return out


def _negated(ints: np.ndarray) -> np.ndarray:
    # numpy arithmetic on 0-d arrays gives scalars; keep an array of one dtype.
    return np.asarray(-ints, dtype=ints.dtype)


class Tensor:
    """Immutable dense tensor with exact rational entries.

    A tensor of ``order`` d over a space of dimension ``dim`` has a
    cubical ``dim × … × dim`` (d factors) shape.  Order 0 is a plain
    scalar held in a 0-d array; ``dim`` is still recorded so the ambient
    space stays known.

    The entries are held as the integer image described in the module
    docstring.  The public constructor takes an object array of
    Fractions (or ints) and rescales it once; :attr:`array`,
    ``t[idx]`` and :meth:`item` give Fractions back, the array being
    built on first read and cached.  Instances are immutable: the stored
    arrays are read-only and all operations return fresh tensors.
    """

    __slots__ = ("_ints", "_scale", "_dim", "_order", "_view")

    def __init__(self, array: np.ndarray, *, dim: int | None = None) -> None:
        if not isinstance(array, np.ndarray) or array.dtype != object:
            raise InvalidArgument("Tensor expects a numpy object array of Fractions")
        size = _cubical_dim(array.shape, dim)
        self._store(*normalize_array(*_rescale(array)), size)

    def _store(self, ints: np.ndarray, scale: Fraction, dim: int) -> None:
        ints.setflags(write=False)
        self._ints = ints
        self._scale = scale
        self._dim = dim
        self._order = ints.ndim
        self._view = None

    @classmethod
    def _from_ints(cls, ints: np.ndarray, scale: Fraction, dim: int) -> "Tensor":
        """The tensor ``scale * ints`` for an integer array of either dtype
        (cubical, of dimension ``dim``) and a positive rational scale."""
        return cls._canonical(*normalize_array(ints, scale), dim)

    @classmethod
    def _canonical(cls, ints: np.ndarray, scale: Fraction, dim: int) -> "Tensor":
        """The tensor whose integer image is already ``(ints, scale)``.

        Gathers and signs keep an image canonical.  Let ``ints`` be built
        from a canonical array ``c`` so that every entry of ``ints`` is an
        entry of ``c``, its negative, or zero, and every entry of ``c``
        appears in ``ints`` at least once up to sign.  Then the nonzero
        magnitudes of the two are the same set, so their gcd (1) and their
        largest magnitude are equal, and with it the dtype rule (int64
        below 2^62); an all-zero ``c`` is excluded, as it has the scale 1
        and a broadcast image of its own.  Slot permutations, negation and
        the expansion of a residual's canonical components
        (``integrability._Residual.tensor``) are such maps.
        """
        tensor = cls.__new__(cls)
        tensor._store(ints, scale, dim)
        return tensor

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, order: int) -> "Tensor":
        """All-zero tensor of the given dimension and order."""
        if order < 0:
            raise InvalidArgument(f"order must be non-negative, got {order}")
        size = _cubical_dim((dim,) * order, dim)
        return cls._canonical(zero_array((size,) * order), _ONE, size)

    @classmethod
    def from_entries(
        cls,
        dim: int,
        order: int,
        entries: Iterable[tuple[Sequence[int], ScalarLike]],
    ) -> "Tensor":
        """Build a tensor from sparse ``(index, value)`` pairs.

        Indices are 0-based tuples of length ``order``.  Repeated indices
        overwrite; unset entries are zero.
        """
        arr = np.empty((dim,) * order, dtype=object)
        arr.fill(_ZERO)
        for idx, value in entries:
            key = tuple(int(i) for i in idx)
            if len(key) != order:
                raise InvalidArgument(f"index {key} has length {len(key)}, expected {order}")
            if any(i < 0 or i >= dim for i in key):
                raise InvalidArgument(f"index {key} out of range for dimension {dim}")
            arr[key] = as_scalar(value)
        return cls(arr, dim=dim)

    @classmethod
    def from_nested(cls, nested: object, *, dim: int | None = None) -> "Tensor":
        """Build a tensor from nested sequences of scalar-likes.

        A flat sequence gives an order-1 tensor, a sequence of sequences an
        order-2 tensor, and so on.  A bare scalar gives an order-0 tensor
        (``dim`` must then be supplied).
        """
        if isinstance(nested, Tensor):
            return nested
        if isinstance(nested, (Fraction, int, str)):
            arr = np.empty((), dtype=object)
            arr[()] = as_scalar(nested)
            return cls(arr, dim=dim if dim is not None else 1)

        def shape_of(node: object) -> tuple[int, ...]:
            if isinstance(node, (list, tuple)):
                if not node:
                    raise InvalidArgument("empty sequence in tensor literal")
                inner = shape_of(node[0])
                return (len(node),) + inner
            return ()

        shape = shape_of(nested)
        if not shape:
            raise InvalidArgument("cannot infer tensor shape from input")
        arr = np.empty(shape, dtype=object)

        def fill(node: object, prefix: tuple[int, ...]) -> None:
            if len(prefix) == len(shape):
                arr[prefix] = as_scalar(node)  # type: ignore[arg-type]
                return
            if not isinstance(node, (list, tuple)) or len(node) != shape[len(prefix)]:
                raise InvalidArgument("ragged nested sequence in tensor literal")
            for i, child in enumerate(node):
                fill(child, prefix + (i,))

        fill(nested, ())
        return cls(arr, dim=dim)

    @classmethod
    def basis_vector(cls, dim: int, k: int) -> "Tensor":
        """Standard basis vector ``e_k`` (0-based ``k``) of the given dimension."""
        if not 0 <= k < dim:
            raise InvalidArgument(f"basis index {k} out of range for dimension {dim}")
        ints = np.zeros(dim, dtype=np.int64)
        ints[k] = 1
        return cls._from_ints(ints, _ONE, dim)

    # -- basic accessors ----------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the underlying space."""
        return self._dim

    @property
    def order(self) -> int:
        """Number of tensor slots."""
        return self._order

    @property
    def array(self) -> np.ndarray:
        """Read-only array of the entries (dtype ``object``, entries Fractions)."""
        if self._view is None:
            self._view = _fraction_view(self._ints, self._scale)
        return self._view

    def __getitem__(self, idx) -> Fraction:
        if isinstance(idx, int):
            idx = (idx,)
        value = self._ints[tuple(idx)]
        if isinstance(value, np.ndarray):
            raise InvalidArgument("partial indexing is not supported; give a full index tuple")
        return self._scale * int(value)

    def item(self) -> Fraction:
        """Scalar value of an order-0 tensor."""
        if self._order != 0:
            raise InvalidArgument(f"item() requires order 0, got order {self._order}")
        return self._scale * int(self._ints[()])

    def is_zero(self) -> bool:
        """Exact test for the zero tensor."""
        return not np.count_nonzero(stored_entries(self._ints))

    def nonzero_count(self) -> int:
        """Number of non-zero entries, counting every slot tuple."""
        stored = stored_entries(self._ints)
        return int(np.count_nonzero(stored)) * (self._ints.size // stored.size)

    # -- algebra ------------------------------------------------------

    def _check_compatible(self, other: "Tensor") -> None:
        if self._dim != other._dim or self._order != other._order:
            raise InvalidArgument(
                f"incompatible tensors: dim/order ({self._dim},{self._order}) vs ({other._dim},{other._order})"
            )

    def _combined(self, sign: int, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        # A broadcast zero would be expanded by the sum.
        if other.is_zero():
            return self
        if self.is_zero():
            return other if sign > 0 else -other
        terms = [(self._scale, self._ints), (sign * other._scale, other._ints)]
        return Tensor._from_ints(*linear_combination(terms), self._dim)

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._combined(1, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._combined(-1, other)

    # Negation, positive multiples and slot permutations keep the image
    # canonical: the gcd, the magnitudes and the zero pattern are unchanged.
    def __neg__(self) -> "Tensor":
        if self.is_zero():
            return self  # a broadcast zero stays one
        return Tensor._canonical(_negated(self._ints), self._scale, self._dim)

    def __mul__(self, scalar: ScalarLike) -> "Tensor":
        if isinstance(scalar, Tensor):
            return NotImplemented
        c = as_scalar(scalar)
        if c == 0:
            return Tensor.zeros(self._dim, self._order)
        if self.is_zero():
            return self  # the zero tensor keeps the scale 1
        ints = self._ints if c > 0 else _negated(self._ints)
        return Tensor._canonical(ints, self._scale * abs(c), self._dim)

    __rmul__ = __mul__

    def __truediv__(self, scalar: ScalarLike) -> "Tensor":
        c = as_scalar(scalar)
        if c == 0:
            raise InvalidArgument("division of a tensor by zero")
        return self * (1 / c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        # The integer image is unique, so equal tensors have equal images.
        if (self._dim, self._order, self._scale) != (other._dim, other._order, other._scale):
            return False
        # A broadcast zero would be expanded by the comparison.
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return bool(np.array_equal(self._ints, other._ints))

    __hash__ = None  # type: ignore[assignment]  # mutable-looking container semantics

    def __repr__(self) -> str:
        if self._order == 0:
            return f"Tensor(order=0, dim={self._dim}, value={self.item()})"
        return f"Tensor(order={self._order}, dim={self._dim}, nonzero={self.nonzero_count()})"


# -- functional operations --------------------------------------------


def tensor_product(left: Tensor, right: Tensor) -> Tensor:
    """Outer product; the slots of ``left`` come first."""
    if left.dim != right.dim:
        raise InvalidArgument(f"tensor product needs equal dimensions, got {left.dim} and {right.dim}")
    ints = guarded_tensordot(left._ints, right._ints, (), ())
    return Tensor._from_ints(ints, left._scale * right._scale, left.dim)


def _images_of(perm: object, order: int) -> tuple[int, ...]:
    """Extract a 1-based image tuple from a permutation-like object."""
    images = getattr(perm, "images", perm)
    try:
        result = tuple(int(v) for v in images)  # type: ignore[arg-type]
    except TypeError as exc:
        raise InvalidArgument(f"cannot interpret {perm!r} as a permutation") from exc
    if sorted(result) != list(range(1, order + 1)):
        raise InvalidArgument(
            f"permutation images {result} are not a rearrangement of 1..{order}"
        )
    return result


def _slot_axes(images: Sequence[int]) -> list[int]:
    """``np.transpose`` axes moving the content of slot ``k`` to ``images[k-1]``.

    ``np.transpose(a, axes)[I] = a[I ∘ axes⁻¹]``, so these are the
    inverse images, 0-based.
    """
    axes = [0] * len(images)
    for position, image in enumerate(images):
        axes[image - 1] = position
    return axes


def permute_slots(tensor: Tensor, perm: object) -> Tensor:
    """Rearrange tensor slots by a permutation ``perm`` of ``1..order``.

    ``perm`` may be a :class:`~killingtensor.symgroup.Permutation` or any
    sequence of 1-based images.  The action is the left action of the
    symmetric group on slot positions: writing ``p`` for the permutation,

    ``permute_slots(T, p)[i_1, …, i_d] = T[i_{p(1)}, …, i_{p(d)}]``.

    On decomposable tensors this moves the content of slot ``k`` to slot
    ``p(k)``, and actions compose as a left action:
    ``permute_slots(permute_slots(T, q), p) = permute_slots(T, p∘q)``
    where ``(p∘q)(k) = p(q(k))``.
    """
    images = _images_of(perm, tensor.order)
    if tensor.order == 0:
        return tensor
    return Tensor._canonical(tensor._ints.transpose(_slot_axes(images)), tensor._scale, tensor.dim)


def _check_slot(tensor: Tensor, slot: int, name: str) -> int:
    if not 1 <= slot <= tensor.order:
        raise InvalidArgument(f"{name}={slot} out of range for order-{tensor.order} tensor")
    return slot - 1


def contract(tensor: Tensor, slot_a: int, slot_b: int, pairing: Tensor) -> Tensor:
    """Contract two slots of ``tensor`` against an order-2 ``pairing``.

    Computes ``sum_{x,y} pairing[x, y] * T[…, x at slot_a, …, y at slot_b, …]``
    with 1-based ``slot_a``, ``slot_b``.  The surviving slots keep their
    relative order.  The pairing does not need to be symmetric; its first
    slot pairs with ``slot_a``.
    """
    if pairing.order != 2 or pairing.dim != tensor.dim:
        raise InvalidArgument("pairing must be an order-2 tensor of matching dimension")
    axis_a = _check_slot(tensor, slot_a, "slot_a")
    axis_b = _check_slot(tensor, slot_b, "slot_b")
    if axis_a == axis_b:
        raise InvalidArgument("cannot contract a slot with itself")
    ints = guarded_tensordot(tensor._ints, pairing._ints, (axis_a, axis_b), (0, 1))
    return Tensor._from_ints(np.asarray(ints), tensor._scale * pairing._scale, tensor.dim)


def contract_vector(tensor: Tensor, slot: int, vector: Tensor | Sequence[ScalarLike]) -> Tensor:
    """Contract one slot of ``tensor`` with an order-1 tensor (1-based slot)."""
    vec = vector if isinstance(vector, Tensor) else Tensor.from_nested(list(vector))
    if vec.order != 1 or vec.dim != tensor.dim:
        raise InvalidArgument("vector must be an order-1 tensor of matching dimension")
    axis = _check_slot(tensor, slot, "slot")
    ints = guarded_tensordot(tensor._ints, vec._ints, (axis,), (0,))
    return Tensor._from_ints(np.asarray(ints), tensor._scale * vec._scale, tensor.dim)


def _slot_group(tensor: Tensor, slots: Iterable[int]) -> tuple[int, ...]:
    group = tuple(int(s) for s in slots)
    if len(set(group)) != len(group):
        raise InvalidArgument(f"slot group {group} contains repeats")
    for s in group:
        _check_slot(tensor, s, "slot")
    return group


class _Rearrangements(NamedTuple):
    """A sum of slot rearrangements, built once: term ``i`` is
    ``multiples[i] * scale`` times the tensor transposed by ``axes[i]``
    (``np.transpose`` axes).  See :func:`_rearrangements`."""

    axes: tuple[tuple[int, ...], ...]
    multiples: tuple[int, ...]
    scale: Fraction


def _rearrangements(terms: Iterable[tuple["int | Fraction", Sequence[int]]]) -> _Rearrangements:
    """The table of the ``(c, axes)`` of ``terms`` (at least one): the
    coefficients split once into integer multiples of one common scale
    (:func:`~killingtensor._fastops.integer_multiples`)."""
    coefficients, axes = zip(*terms)
    multiples, scale = integer_multiples(coefficients)
    return _Rearrangements(tuple(tuple(a) for a in axes), tuple(multiples), scale)


def _rearrangement_sum(tensor: Tensor, table: _Rearrangements) -> Tensor:
    """The exact sum of ``c * transpose(axes)`` over the terms of
    ``table``: rearrangements of ``tensor``'s slots added up on the
    integer image with the table's multiples ``k_i`` by
    :func:`~killingtensor._fastops.transposed_sum` (int64 while ``sum
    |k_i| · max|image| < 2^62``, Python ints past it), and the tensor's
    scale multiplied into the table's once.

    This is the sum that splitting every ``c_i · scale`` would give: for
    the positive rational ``scale``, the multiples of the ``c_i · scale``
    are the ``k_i`` and their divisor is the table's scale times
    ``scale`` (:func:`~killingtensor._fastops.integer_multiples`), so the
    multiples, the guard and the result are the same."""
    ints = transposed_sum(tensor._ints, table.axes, table.multiples)
    return Tensor._from_ints(ints, table.scale * tensor._scale, tensor.dim)


def _signed_sum(tensor: Tensor, slots: Iterable[int], signed: bool) -> Tensor:
    """The literal sum of the ``len(slots)!`` rearrangements of the slots,
    each with the sign of its arrangement if ``signed``."""
    group = _slot_group(tensor, slots)
    if len(group) <= 1:
        return tensor
    return _rearrangement_sum(tensor, _signed_table(tensor.order, group, signed))


@functools.lru_cache(maxsize=64)
def _signed_table(order: int, group: tuple[int, ...], signed: bool) -> _Rearrangements:
    """The table of :func:`_signed_sum` on an order-``order`` tensor."""
    terms = []
    # Signs are relative to the listed order, so the identity counts +1.
    for positions in itertools.permutations(range(len(group))):
        odd = sum(a > b for a, b in itertools.combinations(positions, 2)) % 2
        axes = list(range(order))
        for target, source in zip(group, positions):
            axes[target - 1] = group[source] - 1
        terms.append((-1 if signed and odd else 1, axes))
    return _rearrangements(terms)


def symmetrise_slots(tensor: Tensor, slots: Iterable[int]) -> Tensor:
    """Unnormalised symmetrisation over a group of 1-based slots.

    Sums the ``len(slots)!`` rearrangements of the chosen slots; no
    factorial normalisation is applied.
    """
    return _signed_sum(tensor, slots, signed=False)


def antisymmetrise_slots(tensor: Tensor, slots: Iterable[int]) -> Tensor:
    """Unnormalised antisymmetrisation over a group of 1-based slots.

    Sums the signed rearrangements of the chosen slots; no factorial
    normalisation is applied.
    """
    return _signed_sum(tensor, slots, signed=True)


# -- metric signatures ------------------------------------------------


class MetricSignature:
    """Diagonal metric signature ``diag(+1 × p, −1 × q)``.

    Represents the pseudo-Euclidean scalar product with ``p`` plus signs
    followed by ``q`` minus signs.  ``MetricSignature(dim, 0)`` is the
    Euclidean case.
    """

    __slots__ = ("_p", "_q")

    def __init__(self, p: int, q: int = 0) -> None:
        p, q = int(p), int(q)
        if p < 0 or q < 0 or p + q < 1:
            raise InvalidArgument(f"invalid signature ({p},{q})")
        self._p = p
        self._q = q

    @classmethod
    def euclidean(cls, dim: int) -> "MetricSignature":
        return cls(dim, 0)

    @property
    def p(self) -> int:
        return self._p

    @property
    def q(self) -> int:
        return self._q

    @property
    def dim(self) -> int:
        return self._p + self._q

    def diagonal(self) -> tuple[Fraction, ...]:
        """Diagonal entries ``(+1, …, +1, −1, …, −1)`` as Fractions."""
        return tuple([_ONE] * self._p + [Fraction(-1)] * self._q)

    def metric(self) -> Tensor:
        """The metric as an order-2 tensor (lower indices)."""
        diag = np.diag(np.array([1] * self._p + [-1] * self._q, dtype=np.int64))
        return Tensor._from_ints(diag, _ONE, self.dim)

    def inverse_metric(self) -> Tensor:
        """The inverse metric (upper indices); equals ``metric()`` for ±1 diagonals."""
        return self.metric()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricSignature):
            return NotImplemented
        return (self._p, self._q) == (other._p, other._q)

    def __hash__(self) -> int:
        return hash((self._p, self._q))

    def __repr__(self) -> str:
        return f"MetricSignature(p={self._p}, q={self._q})"
