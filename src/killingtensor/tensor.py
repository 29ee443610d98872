"""Dense tensors over exact rational scalars.

This module provides the arithmetic substrate for the whole package: an
immutable dense tensor type whose entries are :class:`fractions.Fraction`
values stored in a ``numpy`` object array, together with the functional
operations (slot permutation, contraction against a pairing, unnormalised
symmetrisation and antisymmetrisation) used by the symmetry-group and
curvature layers.

Design notes
------------
* All arithmetic is exact.  No floating-point numbers enter at any point,
  so equality tests and zero tests are exact as well.
* Tensor slots are numbered **1-based** in the public API, matching the
  index conventions of the accompanying documentation (slot 1 is the first
  index).  Internally they map to 0-based ``numpy`` axes.
* ``symmetrise_slots`` and ``antisymmetrise_slots`` are *unnormalised*:
  they sum over all permutations of the chosen slots without dividing by
  the factorial.  Applying either twice therefore multiplies the result
  of a single application by ``len(slots)!``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

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
        # Fraction() alone also takes decimals, exponents and underscores,
        # and "1e999999999" would make it build a billion-digit integer.
        if _RATIONAL.fullmatch(value):
            try:
                return Fraction(value.strip())
            except (ValueError, ZeroDivisionError):
                pass
        shown = value if len(value) <= 40 else value[:40] + "..."
        raise InvalidArgument(f"cannot parse rational scalar {shown!r}")
    raise InvalidArgument(
        f"expected an exact rational scalar (Fraction, int, or 'p/q' string), got {type(value).__name__}"
    )


def _perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct values."""
    sign = 1
    seen = [False] * len(perm)
    index_of = {v: i for i, v in enumerate(sorted(perm))}
    normalised = [index_of[v] for v in perm]
    for start in range(len(normalised)):
        if seen[start]:
            continue
        length = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = normalised[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class Tensor:
    """Immutable dense tensor with :class:`~fractions.Fraction` entries.

    A tensor of ``order`` d over a space of dimension ``dim`` stores a
    cubical ``dim × … × dim`` (d factors) object array.  Order 0 is a
    plain scalar wrapped in a 0-d array; ``dim`` is still recorded so the
    ambient space stays known.

    Instances are immutable: the backing array is marked read-only and all
    operations return fresh tensors.
    """

    __slots__ = ("_array", "_dim", "_order")

    def __init__(self, array: np.ndarray, *, dim: int | None = None) -> None:
        if not isinstance(array, np.ndarray) or array.dtype != object:
            raise InvalidArgument("Tensor expects a numpy object array of Fractions")
        if array.ndim == 0:
            if dim is None:
                raise InvalidArgument("order-0 Tensor needs an explicit dim")
            self._dim = int(dim)
        else:
            sizes = set(array.shape)
            if len(sizes) != 1:
                raise InvalidArgument(f"tensor array must be cubical, got shape {array.shape}")
            self._dim = array.shape[0]
            if dim is not None and int(dim) != self._dim:
                raise InvalidArgument(f"dim {dim} does not match array shape {array.shape}")
        if self._dim < 1:
            raise InvalidArgument(f"dimension must be positive, got {self._dim}")
        self._order = array.ndim
        arr = array if array.flags.owndata else array.copy()
        arr.setflags(write=False)
        self._array = arr

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, order: int) -> "Tensor":
        """All-zero tensor of the given dimension and order."""
        if order < 0:
            raise InvalidArgument(f"order must be non-negative, got {order}")
        arr = np.empty((dim,) * order, dtype=object)
        arr.fill(_ZERO)
        return cls(arr, dim=dim)

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
        return cls.from_entries(dim, 1, [((k,), 1)])

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
        """Read-only backing array (dtype ``object``, entries Fractions)."""
        return self._array

    def __getitem__(self, idx) -> Fraction:
        if isinstance(idx, int):
            idx = (idx,)
        value = self._array[tuple(idx)]
        if isinstance(value, np.ndarray):
            raise InvalidArgument("partial indexing is not supported; give a full index tuple")
        return value

    def item(self) -> Fraction:
        """Scalar value of an order-0 tensor."""
        if self._order != 0:
            raise InvalidArgument(f"item() requires order 0, got order {self._order}")
        return self._array[()]

    def is_zero(self) -> bool:
        """Exact test for the zero tensor."""
        return all(v == 0 for v in self._array.flat)

    def nonzero_count(self) -> int:
        """Number of non-zero entries, counting every slot tuple."""
        return sum(1 for v in self._array.flat if v != 0)

    # -- algebra ------------------------------------------------------

    def _check_compatible(self, other: "Tensor") -> None:
        if self._dim != other._dim or self._order != other._order:
            raise InvalidArgument(
                f"incompatible tensors: dim/order ({self._dim},{self._order}) vs ({other._dim},{other._order})"
            )

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        self._check_compatible(other)
        return Tensor(self._array + other._array, dim=self._dim)

    def __sub__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        self._check_compatible(other)
        return Tensor(self._array - other._array, dim=self._dim)

    def __neg__(self) -> "Tensor":
        return Tensor(-self._array, dim=self._dim)

    def __mul__(self, scalar: ScalarLike) -> "Tensor":
        if isinstance(scalar, Tensor):
            return NotImplemented
        c = as_scalar(scalar)
        if c == 0:
            return Tensor.zeros(self._dim, self._order)
        return Tensor(self._array * c, dim=self._dim)

    __rmul__ = __mul__

    def __truediv__(self, scalar: ScalarLike) -> "Tensor":
        c = as_scalar(scalar)
        if c == 0:
            raise InvalidArgument("division of a tensor by zero")
        return self * (1 / c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        if self._dim != other._dim or self._order != other._order:
            return False
        return bool(np.array_equal(self._array, other._array))

    __hash__ = None  # type: ignore[assignment]  # mutable-looking container semantics

    def __repr__(self) -> str:
        if self._order == 0:
            return f"Tensor(order=0, dim={self._dim}, value={self._array[()]})"
        return f"Tensor(order={self._order}, dim={self._dim}, nonzero={self.nonzero_count()})"


# -- functional operations --------------------------------------------


def tensor_product(left: Tensor, right: Tensor) -> Tensor:
    """Outer product; the slots of ``left`` come first."""
    if left.dim != right.dim:
        raise InvalidArgument(f"tensor product needs equal dimensions, got {left.dim} and {right.dim}")
    if left.order == 0:
        return right * left.item()
    if right.order == 0:
        return left * right.item()
    arr = np.tensordot(left.array, right.array, axes=0)
    return Tensor(arr, dim=left.dim)


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
    # np.transpose(a, axes)[I] = a[I ∘ axes⁻¹], so pass the inverse images.
    axes = [0] * tensor.order
    for position, image in enumerate(images):
        axes[image - 1] = position
    return Tensor(np.transpose(tensor.array, axes=axes), dim=tensor.dim)


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
    arr = np.tensordot(tensor.array, pairing.array, axes=([axis_a, axis_b], [0, 1]))
    return Tensor(arr if arr.ndim else arr.reshape(()), dim=tensor.dim)


def contract_vector(tensor: Tensor, slot: int, vector: Tensor | Sequence[ScalarLike]) -> Tensor:
    """Contract one slot of ``tensor`` with an order-1 tensor (1-based slot)."""
    vec = vector if isinstance(vector, Tensor) else Tensor.from_nested(list(vector))
    if vec.order != 1 or vec.dim != tensor.dim:
        raise InvalidArgument("vector must be an order-1 tensor of matching dimension")
    axis = _check_slot(tensor, slot, "slot")
    arr = np.tensordot(tensor.array, vec.array, axes=([axis], [0]))
    return Tensor(arr if arr.ndim else arr.reshape(()), dim=tensor.dim)


def _slot_group(tensor: Tensor, slots: Iterable[int]) -> tuple[int, ...]:
    group = tuple(int(s) for s in slots)
    if len(set(group)) != len(group):
        raise InvalidArgument(f"slot group {group} contains repeats")
    for s in group:
        _check_slot(tensor, s, "slot")
    return group

def _rearranged(tensor: Tensor, group: tuple[int, ...], arrangement: tuple[int, ...]) -> np.ndarray:
    axes = list(range(tensor.order))
    for target, source in zip(group, arrangement):
        axes[target - 1] = source - 1
    return np.transpose(tensor.array, axes=axes)


def symmetrise_slots(tensor: Tensor, slots: Iterable[int]) -> Tensor:
    """Unnormalised symmetrisation over a group of 1-based slots.

    Sums the ``len(slots)!`` rearrangements of the chosen slots; no
    factorial normalisation is applied.
    """
    group = _slot_group(tensor, slots)
    if len(group) <= 1:
        return tensor
    total = None
    for arrangement in itertools.permutations(group):
        term = _rearranged(tensor, group, arrangement)
        total = term if total is None else total + term
    return Tensor(total, dim=tensor.dim)


def antisymmetrise_slots(tensor: Tensor, slots: Iterable[int]) -> Tensor:
    """Unnormalised antisymmetrisation over a group of 1-based slots.

    Sums the signed rearrangements of the chosen slots; no factorial
    normalisation is applied.
    """
    group = _slot_group(tensor, slots)
    if len(group) <= 1:
        return tensor
    # Signs are relative to the listed order, so the identity counts +1.
    group_sign = _perm_sign(group)
    total = None
    for arrangement in itertools.permutations(group):
        term = _rearranged(tensor, group, arrangement)
        if _perm_sign(arrangement) != group_sign:
            term = -term
        total = term if total is None else total + term
    return Tensor(total, dim=tensor.dim)


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
        diag = self.diagonal()
        return Tensor.from_entries(self.dim, 2, [((i, i), diag[i]) for i in range(self.dim)])

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
