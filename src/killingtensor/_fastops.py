"""Exact integer engine for the integrability residuals.

The residuals contract three or four order-4 tensors and (anti)symmetrise
the result over disjoint slot groups.  Every tensor is held as an
integer array and one exact positive scale (see :mod:`killingtensor.tensor`),
so this module works on ``(integer array, scale)`` pairs.  Arrays stay
``int64`` while a provable bound rules out overflow and become Python
integers (object dtype) the moment it fails; results are exact either way.

Polarisation.  A tensor symmetric over a group of ``d`` slots is the same
data as the degree-``d`` polynomial obtained by putting one vector ``x``
into every slot of the group: the coefficient of ``x^α`` is the sum of
the entries over the index tuples with multiset ``α``, the group's orbit
sum.  A polarised array carries its coefficients on one leading
*monomial axis*, over the degree-``d`` monomials in the lexicographic
order of their sorted index tuples (size 1 in degree 0).  The one
contraction engine, :func:`contract`, multiplies such factors pairwise: a
batched ``matmul`` over their index axes, one batch per pair of
monomials, then a gather and a segmented sum over a cached table that
maps each pair to its product monomial.  Antisymmetric groups stay index
axes, read only at increasing tuples (:func:`alternating_sums`), and
:func:`expand_axis` rebuilds a dense slot group from canonical components.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "linear_combination",
    "contract",
    "guarded_tensordot",
    "polarise",
    "polynomial_tensordot",
    "alternating_sums",
    "expand_axis",
    "normalize_array",
]

# Stay well under 2^63 so sums of a few terms cannot wrap.
_INT64_SAFE = 1 << 62


def _max_abs(arr: np.ndarray) -> int:
    """Largest magnitude in an integer array of either dtype (0 if empty)."""
    if arr.size == 0:
        return 0
    return max(int(arr.max()), -int(arr.min()))


def _widened(arr: np.ndarray, terms: int) -> np.ndarray:
    """``arr``, as Python ints if a sum of ``terms`` of its entries may reach 2^62."""
    if arr.dtype != object and terms * _max_abs(arr) >= _INT64_SAFE:
        return arr.astype(object)
    return arr


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
# Monomial and alternating tables, built on first use and cached.
# ---------------------------------------------------------------------------


class _Merge(NamedTuple):
    rank: np.ndarray  # product monomial of each tuple of factor monomials
    perm: np.ndarray  # those tuples grouped by product monomial
    starts: np.ndarray  # start of each product monomial's group in ``perm``
    pairs: int  # the largest group
    weight: np.ndarray  # alpha! (product of exponent factorials) of each tuple


@functools.lru_cache(maxsize=128)
def _merge(dim: int, degrees: tuple[int, ...]) -> _Merge:
    """Table multiplying one monomial of each of ``degrees`` (C order over
    their tuples) into a monomial of the total degree."""
    monomials = functools.partial(itertools.combinations_with_replacement, range(dim))
    rank_of = {m: r for r, m in enumerate(monomials(sum(degrees)))}
    products = [tuple(sorted(sum(parts, ()))) for parts in itertools.product(*map(monomials, degrees))]
    rank = np.array([rank_of[p] for p in products], dtype=np.intp)
    weight = [math.prod(math.factorial(p.count(v)) for v in set(p)) for p in products]
    counts = np.bincount(rank)
    table = _Merge(
        rank,
        np.argsort(rank, kind="stable"),
        np.concatenate(([0], np.cumsum(counts)[:-1])),
        int(counts.max()),
        np.array(weight, dtype=np.int64),
    )
    for cached in table[:3] + table[4:]:  # shared by every caller
        cached.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def _alternating(dim: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables of one antisymmetric group of ``size`` slots.

    Returns ``(rows, odd, index, sign)``: the flat positions of the
    rearrangements of each strictly increasing tuple (in lexicographic
    order), one row per tuple; which rearrangements are odd; and, for
    every tuple in C order, the position of its sorted tuple (the tuple
    count where an index repeats) and the sign of the sorting
    rearrangement (0 where an index repeats).
    """
    arrangements = list(itertools.permutations(range(size)))
    odd = np.array([sum(i > j for i, j in itertools.combinations(p, 2)) % 2 for p in arrangements], dtype=bool)
    combos = list(itertools.combinations(range(dim), size))
    combos = np.array(combos, dtype=np.intp).reshape(len(combos), size)
    powers = dim ** np.arange(size - 1, -1, -1, dtype=np.intp)
    rows = combos[:, arrangements] @ powers
    index = np.full(dim**size, len(combos), dtype=np.intp)
    sign = np.zeros(dim**size, dtype=np.int64)
    index[rows] = np.arange(len(combos))[:, None]
    sign[rows] = np.where(odd, -1, 1)
    for cached in (rows, odd, index, sign):
        cached.flags.writeable = False
    return rows, odd, index, sign


# ---------------------------------------------------------------------------
# Polynomial-valued arrays: one monomial axis, then index axes.
# ---------------------------------------------------------------------------


def polarise(arr: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``arr`` with one vector ``x`` in each of ``axes``.

    The result starts with a monomial axis of degree ``len(axes)`` and
    keeps the other axes in order; each coefficient sums the entries over
    the index tuples of its monomial.
    """
    axes = list(axes)
    rest = [axis for axis in range(arr.ndim) if axis not in axes]
    arr = arr.transpose(axes + rest)
    flat = arr.reshape((-1,) + arr.shape[len(axes):])
    if len(axes) < 2:
        return flat
    table = _merge(arr.shape[0], (1,) * len(axes))
    return np.add.reduceat(_widened(flat, table.pairs)[table.perm], table.starts, axis=0)


def polynomial_tensordot(
    a: np.ndarray,
    b: np.ndarray,
    axes_a: Sequence[int],
    axes_b: Sequence[int],
    dim: int,
    degree_a: int,
    degree_b: int,
) -> np.ndarray:
    """Contract two polynomial-valued arrays over index axes.

    ``a`` and ``b`` start with monomial axes of the given degrees in
    ``dim`` variables; ``axes_a`` / ``axes_b`` are index axes (never 0).
    The result starts with the monomial axis of the product polynomials,
    then has the free index axes of ``a``, then those of ``b``.  Every
    pair of monomials is one batch of a ``matmul``; the pairs are then
    added up per product monomial.  Guarded by
    ``pairs per monomial · contracted volume · max|a| · max|b|``.
    """
    table = _merge(dim, (degree_a, degree_b)) if degree_a and degree_b else None
    pairs = table.pairs if table else 1
    free_a = [axis for axis in range(1, a.ndim) if axis not in axes_a]
    free_b = [axis for axis in range(1, b.ndim) if axis not in axes_b]
    shape = [a.shape[k] for k in free_a] + [b.shape[k] for k in free_b]
    volume = math.prod(a.shape[k] for k in axes_a)
    a = a.transpose([0, *free_a, *axes_a]).reshape(len(a), 1, -1, volume)
    b = b.transpose([0, *axes_b, *free_b]).reshape(1, len(b), volume, -1)
    wide = a.dtype == object or b.dtype == object
    if wide or pairs * volume * _max_abs(a) * _max_abs(b) >= _INT64_SAFE:
        a, b = a.astype(object, copy=False), b.astype(object, copy=False)
    out = np.matmul(a, b).reshape([-1] + shape)
    if table is None:
        return out
    return np.add.reduceat(out[table.perm], table.starts, axis=0)


def guarded_tensordot(
    a: np.ndarray, b: np.ndarray, axes_a: Sequence[int], axes_b: Sequence[int]
) -> np.ndarray:
    """``np.tensordot`` with exact integer semantics: the product of two
    degree-0 polynomial arrays, guarded by ``K · max|a| · max|b|``."""
    shifted_a, shifted_b = [k + 1 for k in axes_a], [k + 1 for k in axes_b]
    return polynomial_tensordot(a[None], b[None], shifted_a, shifted_b, 0, 0, 0)[0, ...]


def alternating_sums(arr: np.ndarray, size: int) -> np.ndarray:
    """Signed sums over ``size`` index axes at increasing tuples.

    Axes ``1 .. size`` of ``arr`` (axis 0 is its monomial axis) become one
    axis over the strictly increasing index tuples ``I`` (lexicographic
    order), holding ``sum over rearrangements J of I of sign(J) arr[:, J]``:
    the antisymmetrisation of ``arr`` over those axes, read at ``I``.
    Empty when ``size`` exceeds the dimension.
    """
    if not size:
        return arr
    rows, odd, _, _ = _alternating(arr.shape[1], size)
    flat = _widened(arr.reshape(arr.shape[:1] + (-1,) + arr.shape[size + 1:]), len(odd))
    signs = np.where(odd, -1, 1).astype(flat.dtype).reshape((-1,) + (1,) * (flat.ndim - 2))
    return (flat[:, rows] * signs).sum(axis=2)


def expand_axis(values: np.ndarray, axis: int, dim: int, size: int, anti: bool) -> np.ndarray:
    """Rebuild one slot group from its canonical axis.

    Axis ``axis`` of ``values`` runs over the canonical tuples of a group
    of ``size`` slots: monomials for a symmetric group, strictly
    increasing tuples for an antisymmetric one.  It becomes an axis over
    all ``dim^size`` tuples ``J`` in C order, holding the value at the
    canonical tuple of ``J`` times ``alpha!`` (symmetric) or the sign of
    the sorting rearrangement, zero on a repeated index (antisymmetric).
    """
    values = np.moveaxis(values, axis, -1)
    if anti:
        _, _, index, weight = _alternating(dim, size)
        zero = np.zeros(values.shape[:-1] + (1,), dtype=values.dtype)
        values = np.concatenate([values, zero], axis=-1)
    else:
        table = _merge(dim, (1,) * size)
        index, weight = table.rank, table.weight
    values = _widened(values, int(weight.max()) if weight.size else 1)
    return np.moveaxis(values[..., index] * weight.astype(values.dtype), -1, axis)


# ---------------------------------------------------------------------------
# The contraction engine.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _contraction_plan(subscripts: str, dim: int) -> tuple[tuple[str, ...], tuple, str, tuple]:
    """Index letters and polarised axes of each factor, output, pairwise path.

    A step ``(a, b)`` contracts operands ``a`` and ``b``; each step's
    result takes the next number.  The greedy path sees index axes only
    and gets no memory limit, so that every step is a pair (under
    numpy's default limit it may fall back to one step over all
    remaining factors).
    """
    inputs, output = subscripts.split("->")
    factors = inputs.split(",")
    letters = [f.replace("*", "") for f in factors]
    everything = "".join(letters) + output
    if len(factors) < 2 or any(len(set(f)) != len(f) for f in [*letters, output]) or any(
        everything.count(c) != 2 for c in everything
    ):
        raise ValueError(
            f"{subscripts!r}: needs two or more factors, each index shared by two "
            "of them or an output index"
        )
    shapes = [np.broadcast_to(0, (dim,) * len(f)) for f in letters]
    reduced = ",".join(letters) + "->" + output
    path = np.einsum_path(reduced, *shapes, optimize=("greedy", sys.maxsize))[0][1:]
    live = list(range(len(factors)))  # einsum_path's operand list
    steps = []
    for positions in path:
        steps.append(tuple(live[k] for k in positions))
        live = [n for k, n in enumerate(live) if k not in positions] + [len(factors) + len(steps) - 1]
    x_axes = tuple(tuple(k for k, c in enumerate(f) if c == "*") for f in factors)
    return tuple(letters), x_axes, output, tuple(steps)


def contract(
    subscripts: str, *operands: tuple[np.ndarray, Fraction], memo: "dict | None" = None
) -> tuple[np.ndarray, Fraction]:
    """Exact einsum-style contraction of ``scale * array`` operands.

    ``subscripts`` is an explicit einsum term such as
    ``"kl,kabc,ldef->abcdef"`` over cubical operands of one dimension, in
    which every index is shared by two factors (and summed) or is an
    output index.  A ``*`` in place of a factor's index puts ``x`` into
    that slot (:func:`polarise`), and the result then starts with a
    monomial axis of the total degree.  Factors are multiplied pairwise
    by :func:`polynomial_tensordot` along the greedy ``np.einsum_path``
    of the index letters, so each step stays ``int64`` or promotes as its
    bound requires; intermediates are content-reduced.

    Polarised factors and intermediates are kept in ``memo`` under keys
    naming the operand arrays, their polarised axes and each step's
    contracted axes, so calls sharing a ``memo`` (which keeps their
    operands alive) compute equal sub-contractions once.  Returns a
    C-contiguous ``(array, scale)``.
    """
    dim = operands[0][0].shape[0]
    letters, x_axes, output, steps = _contraction_plan(subscripts, dim)
    if len(operands) != len(letters):
        raise ValueError(f"{subscripts!r} takes {len(letters)} operands, got {len(operands)}")
    memo = {} if memo is None else memo
    nodes = []  # (array, scale, memo key, index letters, degree)
    for (arr, scale), names, axes in zip(operands, letters, x_axes):
        key = f"{id(arr)}:{scale}:{axes}"
        if key not in memo:
            memo[key] = (polarise(arr, axes), scale, arr)  # keeps id(arr) taken
        nodes.append((*memo[key][:2], key, names, len(axes)))
    for a, b in steps:
        first, second = sorted((nodes[a], nodes[b]), key=lambda node: node[2])
        nodes[a] = nodes[b] = None  # free each intermediate once it is used
        shared = [c for c in first[3] if c in second[3]]
        axes_a = tuple(first[3].index(c) + 1 for c in shared)
        axes_b = tuple(second[3].index(c) + 1 for c in shared)
        key = f"({first[2]}|{axes_a}|{second[2]}|{axes_b})"
        if key not in memo:
            arr = polynomial_tensordot(first[0], second[0], axes_a, axes_b, dim, first[4], second[4])
            memo[key] = normalize_array(arr, first[1] * second[1])
        names = "".join(c for c in first[3] + second[3] if c not in shared)
        nodes.append((*memo[key], key, names, first[4] + second[4]))
    arr, scale, _, names, _ = nodes[-1]
    arr = arr.transpose([0] + [names.index(c) + 1 for c in output])
    if "*" not in subscripts:
        arr = arr[0, ...]
    return (arr if arr.flags.c_contiguous else arr.copy()), scale
