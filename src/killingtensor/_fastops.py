"""Integer fast paths for the large multilinear contraction pipelines.

The integrability conditions contract three or four order-4 tensors and
then (anti)symmetrise over up to eight slots, on operands with up to
``N^10`` entries.  Every tensor is already held as an integer array and
one exact positive scale (see :mod:`killingtensor.tensor`), so this
module works on ``(integer array, scale)`` pairs only.  It:

* keeps arrays in ``int64`` while provable bounds rule out overflow,
  promoting to arbitrary-precision Python integers (object dtype) the
  moment a bound fails — results are exact in either representation;
* adds scaled integer arrays exactly over one common scale
  (:func:`linear_combination`);
* evaluates every contraction through one engine, :func:`contract`: an
  einsum-style term over ``(integer array, scale)`` operands, contracted
  pairwise along the greedy ``np.einsum_path`` (cached per term and
  dimension), each step through the guarded ``tensordot`` and each
  intermediate content-reduced, so the ``int64`` / Python-int choice is
  made in one place;
* evaluates a final operator made of mutually disjoint symmetrisers and
  antisymmetrisers by :func:`orbit_sum`: one gather over the operand and
  one segmented sum give the residual's *canonical components* (one per
  orbit of index tuples), never the dense (anti)symmetrised array.  The
  gather table is built on first use and cached.  A second sum over the
  high 32-bit limbs of ``int64`` terms tells when a sum may not fit, so
  only the small result vector is ever promoted, never a dense array.
  :func:`orbit_expand` rebuilds the dense array when a caller asks for
  it;
* symmetrises over slot groups that overlap a later operator's in
  ``m−1`` staged passes of pairwise swaps (a left-transversal
  decomposition of the symmetric group), costing ``m(m−1)/2`` array
  additions instead of ``m!`` terms;
* divides out integer content between stages to keep magnitudes small.

Everything here is an internal implementation detail; results are
always exactly equal to the direct Fraction computation.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "linear_combination",
    "contract",
    "guarded_tensordot",
    "staged_symmetrise",
    "normalize_array",
    "orbit_sum",
    "orbit_expand",
]

# Stay well under 2^63 so sums of a few terms cannot wrap.
_INT64_SAFE = 1 << 62


def _max_abs(arr: np.ndarray) -> int:
    """Largest magnitude in an integer array of either dtype (0 if empty)."""
    if arr.size == 0:
        return 0
    return max(int(arr.max()), -int(arr.min()))


def linear_combination(
    terms: Iterable[tuple[Fraction, np.ndarray]],
) -> tuple[np.ndarray, Fraction]:
    """Exact ``sum of c * arr`` over ``(rational c, integer array)`` terms.

    Returns ``(array, scale)`` with the sum equal to ``scale * array``.
    The scale is the largest rational dividing every ``c`` (gcd of the
    numerators over lcm of the denominators, 1 if every ``c`` is zero),
    so term ``i`` adds the integer multiple ``k_i = c_i / scale`` of its
    array.  The sum is ``int64`` when ``sum |k_i| * max|arr_i| < 2^62``
    and every array is ``int64``, and Python ints otherwise.  At least one
    term is needed; the arrays share one shape; the result is not
    content-reduced.
    """
    terms = [(Fraction(c), arr) for c, arr in terms]
    gcd = math.gcd(*(c.numerator for c, _ in terms))
    lcm = math.lcm(*(c.denominator for c, _ in terms))
    scale = Fraction(gcd, lcm) if gcd else Fraction(1)
    multiples = [(c.numerator // gcd) * (lcm // c.denominator) if gcd else 0 for c, _ in terms]
    shape = terms[0][1].shape
    # numpy arithmetic on 0-d arrays gives scalars; sum 1-element arrays.
    arrays = [np.atleast_1d(arr) for _, arr in terms]
    wide = any(arr.dtype == object for arr in arrays)
    if not wide:
        bounds = [abs(k) * _max_abs(arr) for k, arr in zip(multiples, arrays)]
        wide = sum(bounds) >= _INT64_SAFE
        # A zero array adds nothing, and its multiple may not fit in int64.
        multiples = [k if bound else 0 for k, bound in zip(multiples, bounds)]
    if wide:
        arrays = [arr.astype(object, copy=False) for arr in arrays]
    total = multiples[0] * arrays[0]
    for k, arr in zip(multiples[1:], arrays[1:]):
        if k:
            total += k * arr
    return total.reshape(shape), scale


def guarded_tensordot(
    a: np.ndarray,
    b: np.ndarray,
    axes_a: Sequence[int],
    axes_b: Sequence[int],
) -> np.ndarray:
    """``np.tensordot`` with exact integer semantics.

    When both operands are ``int64``, checks the worst-case bound
    ``K · max|a| · max|b|`` (``K`` the contracted volume) and promotes
    to Python-int arrays if it could overflow.
    """
    if a.dtype != object and b.dtype != object:
        volume = 1
        for axis in axes_a:
            volume *= a.shape[axis]
        bound = volume * _max_abs(a) * _max_abs(b)
        if bound >= _INT64_SAFE:
            a = a.astype(object)
            b = b.astype(object)
    elif a.dtype != b.dtype:
        if a.dtype != object:
            a = a.astype(object)
        else:
            b = b.astype(object)
    return np.tensordot(a, b, axes=(list(axes_a), list(axes_b)))


@functools.lru_cache(maxsize=64)
def _contraction_plan(subscripts: str, dim: int) -> tuple[int, tuple, tuple[int, ...]]:
    """Number of factors, pairwise steps and final axis order of one term.

    Operands are numbered in order, and each step's result takes the next
    number.  A step ``(a, b, axes_a, axes_b, order)`` contracts operands
    ``a`` and ``b`` over the given axes and transposes the result so that
    its output indices come in output order, indices a later step sums
    last.  The greedy path gets no memory limit, so that every step is a
    pair (under numpy's default limit it may fall back to one step over
    all remaining factors).
    """
    inputs, output = subscripts.split("->")
    letters = inputs.split(",")
    count = len(letters)
    everything = inputs.replace(",", "") + output
    if count < 2 or any(len(set(f)) != len(f) for f in [*letters, output]) or any(
        everything.count(c) != 2 for c in everything
    ):
        raise ValueError(
            f"{subscripts!r}: needs two or more factors, each index shared by two "
            "of them or an output index"
        )
    rank = {c: output.index(c) if c in output else len(output) for c in everything}
    shapes = [np.broadcast_to(0, (dim,) * len(f)) for f in letters]
    path = np.einsum_path(subscripts, *shapes, optimize=("greedy", sys.maxsize))[0][1:]
    live = list(range(count))  # einsum_path's operand list
    steps = []
    for positions in path:
        a, b = sorted((live[k] for k in positions), key=lambda n: min(map(rank.get, letters[n])))
        live = [n for k, n in enumerate(live) if k not in positions] + [len(letters)]
        shared = [c for c in letters[a] if c in letters[b]]
        free = [c for c in letters[a] + letters[b] if c not in shared]
        result = sorted(free, key=rank.get)
        axes_a = tuple(letters[a].index(c) for c in shared)
        axes_b = tuple(letters[b].index(c) for c in shared)
        steps.append((a, b, axes_a, axes_b, tuple(free.index(c) for c in result)))
        letters.append("".join(result))
    return count, tuple(steps), tuple(letters[-1].index(c) for c in output)


def contract(
    subscripts: str, *operands: tuple[np.ndarray, Fraction]
) -> tuple[np.ndarray, Fraction]:
    """Exact einsum-style contraction of ``scale * array`` operands.

    ``subscripts`` is an explicit einsum term such as
    ``"kl,kabc,ldef->abcdef"`` over cubical operands of one dimension,
    in which every index is either shared by two factors (and summed) or
    an output index of one factor.  Factors are contracted pairwise
    along the greedy ``np.einsum_path``, planned once per term and
    dimension, by :func:`guarded_tensordot`, so each step stays ``int64``
    or promotes to Python ints as its bound requires; intermediates are
    content-reduced by :func:`normalize_array`.  Each intermediate keeps
    its output indices in output order, so a result whose last step
    meets its two halves in order is C-contiguous; otherwise it is a
    transposed view.  Returns ``(array, scale)``.
    """
    count, steps, final = _contraction_plan(subscripts, operands[0][0].shape[0])
    if len(operands) != count:
        raise ValueError(f"{subscripts!r} takes {count} operands, got {len(operands)}")
    arrays = [arr for arr, _ in operands]
    scale = math.prod((s for _, s in operands), start=Fraction(1))
    for k, (a, b, axes_a, axes_b, order) in enumerate(steps):
        arr = guarded_tensordot(arrays[a], arrays[b], axes_a, axes_b).transpose(order)
        arrays[a] = arrays[b] = None  # free each intermediate once it is used
        if k < len(steps) - 1:
            arr, scale = normalize_array(arr, scale)
        arrays.append(arr)
    return arrays[-1].transpose(final), scale


def staged_symmetrise(arr: np.ndarray, axes: Sequence[int], *, sign: int = 1) -> np.ndarray:
    """Unnormalised (anti)symmetrisation over ``axes`` in staged passes.

    ``sign=+1`` symmetrises, ``sign=−1`` antisymmetrises.  Pass ``k``
    multiplies on the left by ``(e ± sum of transpositions into the
    k-th axis)``, which telescopes to the full signed sum over all
    ``m!`` arrangements.  Integer arrays are promoted to object dtype
    whenever a pass could overflow ``int64``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    positions = list(axes)
    current = arr
    for k in range(1, len(positions)):
        if current.dtype != object:
            if (k + 1) * _max_abs(current) >= _INT64_SAFE:
                current = current.astype(object)
        total = current.copy()
        for i in range(k):
            swapped = current.swapaxes(positions[i], positions[k])
            if sign > 0:
                total += swapped
            else:
                total -= swapped
        current = total
    return current


def normalize_array(arr: np.ndarray, scale: Fraction) -> tuple[np.ndarray, Fraction]:
    """The canonical form of ``scale * arr``: content-reduced integers.

    Divides out the gcd of the entries (folding it into ``scale``), takes
    ``int64`` when every entry is below 2^62 in magnitude and Python ints
    otherwise, and gives an all-zero array the scale 1.  The represented
    value ``scale * arr`` is unchanged.
    """
    if arr.size == 0:
        return arr, scale
    if arr.dtype != object:
        gcd = int(np.gcd.reduce(arr, axis=None))
    else:
        gcd = 0
        for value in arr.flat:
            gcd = math.gcd(gcd, value)
            if gcd == 1:
                break
    if gcd == 0:
        return np.zeros(arr.shape, dtype=np.int64), Fraction(1)
    if gcd > 1:
        arr = np.asarray(arr // gcd, dtype=arr.dtype)  # a 0-d quotient is a scalar
        scale = scale * gcd
    if (arr.dtype == object) != (_max_abs(arr) >= _INT64_SAFE):
        arr = arr.astype(np.int64 if arr.dtype == object else object)
    return arr, scale


# ---------------------------------------------------------------------------
# Orbit sums over disjoint slot groups.
#
# Let G be the product of the symmetric groups of some disjoint slot
# groups, each acting with sign +1 (symmetric group) or with the sign of
# the permutation (antisymmetric group).  The unnormalised operator
# T = sum over g in G of sign(g) g.A is fixed by its values at the
# canonical tuples I: weakly increasing along each symmetric group,
# strictly increasing along each antisymmetric one, free elsewhere.
# Every index tuple J lies in the orbit of exactly one canonical I, and
# T[J] = sign(J) * weight(I) * c[I] with the signed orbit sum
# c[I] = sum over J in orbit(I) of sign(J) A[J], where sign(J) is the sign
# of the rearrangement of the antisymmetric groups that sorts J and
# weight(I) = |G| / |orbit(I)| = product of multiplicity! over the
# symmetric groups.  Tuples with a repeated index in an antisymmetric
# group lie in no orbit: T is zero there.
# ---------------------------------------------------------------------------

_SlotGroups = tuple[tuple[int, ...], ...]


class _OrbitTable(NamedTuple):
    perm: np.ndarray  # flat indices of the orbit elements, orbit by orbit
    negate: "np.ndarray | None"  # True where sign(J) = -1; None if never
    starts: np.ndarray  # start of each orbit in ``perm``, canonical tuples in order
    group_order: int  # |G|


def _group_key(groups: Iterable[Sequence[int]]) -> _SlotGroups:
    return tuple(tuple(sorted(int(a) for a in group)) for group in groups)


@functools.lru_cache(maxsize=32)
def _group_orbits(dim: int, size: int, anti: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the index tuples of one slot group of ``size`` slots.

    Returns ``(tuples, odd, starts)``: the ``int8`` tuples orbit by orbit,
    with canonical (sorted) tuples in lexicographic order; whether each is
    an odd rearrangement of its canonical tuple (always False for a
    symmetric group); and the start of each orbit.  An antisymmetric
    group keeps only tuples of distinct indices.
    """
    digits = np.indices((dim,) * size, dtype=np.int8).reshape(size, -1).T
    ordered = np.sort(digits, axis=1)
    odd = np.zeros(len(digits), dtype=bool)
    if anti:
        distinct = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
        digits, ordered, odd = digits[distinct], ordered[distinct], odd[distinct]
        for i in range(size):
            for j in range(i + 1, size):
                odd ^= digits[:, i] > digits[:, j]
    key = ordered.astype(np.int32) @ (dim ** np.arange(size - 1, -1, -1, dtype=np.int32))
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1]))) if key.size else key
    return digits[order], odd[order], starts


def _product(outer: tuple, inner: tuple) -> tuple:
    """Table of two disjoint slot sets, orbits ordered outer-major."""
    off_a, odd_a, starts_a = outer
    off_b, odd_b, starts_b = inner
    if starts_a.size == 0 or starts_b.size == 0:
        return off_a[:0], odd_a[:0], starts_a[:0]
    ends_a = np.append(starts_a[1:], off_a.size)
    offsets, odds, starts = [], [], []
    base = 0
    for start, end in zip(starts_a.tolist(), ends_a.tolist()):
        # Orbit (a, b) holds every pair of an element of a and one of b.
        offsets.append((off_b[:, None] + off_a[None, start:end]).ravel())
        odds.append((odd_b[:, None] ^ odd_a[None, start:end]).ravel())
        starts.append(base + starts_b * (end - start))
        base += off_b.size * (end - start)
    return np.concatenate(offsets), np.concatenate(odds), np.concatenate(starts)


def _flat(arr: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The entries of ``arr`` as a flat array, and the step along each axis.

    An axis permutation of a C-contiguous array, as a transposed
    contraction result is, is read in place rather than copied.
    """
    base = arr.transpose(np.argsort(arr.strides)[::-1])
    if not base.flags.c_contiguous:
        arr = base = np.ascontiguousarray(arr)
    return base.reshape(-1), tuple(stride // arr.itemsize for stride in arr.strides)


@functools.lru_cache(maxsize=16)
def _orbit_table(
    dim: int, order: int, sym_groups: _SlotGroups, anti_groups: _SlotGroups, steps: tuple[int, ...]
) -> _OrbitTable:
    """Orbit table whose ``perm`` indexes a flat array with these axis steps."""
    used = [axis for group in sym_groups + anti_groups for axis in group]
    if len(set(used)) != len(used) or any(a < 0 or a >= order for a in used):
        raise ValueError("slot groups must partition a subset of the axes")
    index = np.int32 if dim**order < 2**31 else np.int64
    strides = np.array(steps, dtype=np.int64)
    factors = []
    group_order = 1
    for group, anti in [(g, False) for g in sym_groups] + [(g, True) for g in anti_groups]:
        tuples, odd, starts = _group_orbits(dim, len(group), anti)
        factors.append(((tuples @ strides[list(group)]).astype(index), odd, starts))
        group_order *= math.factorial(len(group))
    for axis in sorted(set(range(order)) - set(used)):
        offsets = (np.arange(dim) * strides[axis]).astype(index)
        factors.append((offsets, np.zeros(dim, dtype=bool), np.arange(dim)))
    table = factors[-1]
    for factor in reversed(factors[:-1]):
        table = _product(factor, table)
    perm, odd, starts = table
    for cached in table:  # shared by every caller
        cached.flags.writeable = False
    return _OrbitTable(perm, odd if odd.any() else None, starts, group_order)


def orbit_sum(
    arr: np.ndarray,
    sym_groups: Iterable[Sequence[int]] = (),
    anti_groups: Iterable[Sequence[int]] = (),
) -> np.ndarray:
    """Signed orbit sums of ``arr`` at its canonical index tuples.

    The groups are disjoint 0-based axis groups of the cubical integer
    array ``arr``; the result is the vector ``c`` of the comment above,
    one entry per canonical tuple.  It is zero exactly when the
    (anti)symmetrisation of ``arr`` over the groups is, and it is empty
    when an antisymmetric group is longer than the dimension.  ``int64``
    input (entries below 2^62 in magnitude, as the guards here keep them)
    is also summed by its high 32-bit limbs, which tells when a sum may
    reach 2^62; the result is ``int64`` unless it may, and then object
    dtype, as is the result for object input.
    """
    if arr.dtype != object:
        arr = arr.astype(np.int64, copy=False)
    flat, steps = _flat(arr)
    table = _orbit_table(arr.shape[0], arr.ndim, _group_key(sym_groups), _group_key(anti_groups), steps)
    if table.starts.size == 0:
        return np.zeros(0, dtype=arr.dtype)
    terms = flat[table.perm]
    if table.negate is not None:
        np.negative(terms, out=terms, where=table.negate)
    if terms.dtype == object:
        return np.add.reduceat(terms, table.starts)
    # With v = high * 2^32 + low per term (0 <= low < 2^32) and at most
    # |G| < 2^29 terms an orbit (up to order 12), the limb sums satisfy
    # |high sum| < 2^60 and 0 <= low sum < 2^61.  The plain int64 sum is
    # exact modulo 2^64: it is the true sum while |high sum| < 2^29, and
    # otherwise it gives the low sum back exactly.
    total = np.add.reduceat(terms, table.starts)
    terms >>= 32
    high = np.add.reduceat(terms, table.starts)
    if _max_abs(high) < 1 << 29:
        return total
    low = total - (high << 32)
    return np.array(
        [(h << 32) + l for h, l in zip(high.tolist(), low.tolist())], dtype=object
    )


def orbit_expand(
    values: np.ndarray,
    dim: int,
    order: int,
    sym_groups: Iterable[Sequence[int]] = (),
    anti_groups: Iterable[Sequence[int]] = (),
) -> np.ndarray:
    """Dense order-``order`` array with canonical orbit sums ``values``.

    Writes ``sign(J) * weight(I) * values[I]`` at every element ``J`` of
    the orbit of each canonical tuple ``I``, so that
    ``orbit_expand(orbit_sum(A, ...), ...)`` is the unnormalised
    (anti)symmetrisation of ``A`` over the groups.
    """
    steps = tuple(dim**k for k in range(order - 1, -1, -1))
    table = _orbit_table(dim, order, _group_key(sym_groups), _group_key(anti_groups), steps)
    out_dtype = object if values.dtype == object else np.int64
    out = np.zeros(dim**order, dtype=out_dtype)
    if table.starts.size:
        sizes = np.diff(np.append(table.starts, table.perm.size))
        weights = table.group_order // sizes
        if out_dtype is not object and _max_abs(values) * int(weights.max()) >= _INT64_SAFE:
            values = values.astype(object)
            out = out.astype(object)
        terms = np.repeat(values * weights, sizes)
        if table.negate is not None:
            np.negative(terms, out=terms, where=table.negate)
        out[table.perm] = terms
    return out.reshape((dim,) * order)
