"""Exact integer engine for the integrability residuals.

The residuals contract three or four order-4 tensors and (anti)symmetrise
the result over disjoint slot groups.  Every tensor is held as an
integer array and one exact positive scale (see :mod:`killingtensor.tensor`),
so this module works on ``(integer array, scale)`` pairs.  Arrays stay
``int64`` while a provable bound rules out overflow.  Past the first
bound that fails, the general helpers (:func:`linear_combination`,
:func:`guarded_tensordot`) switch to Python integers (object dtype),
while a residual (:func:`contract_terms`) continues as
:class:`Residues`: the same ``int64`` steps modulo primes, one prime at
a time, with as many primes as an a-priori bound on the result needs.
Results are exact either way.  In a residual, a product keeps the
integers its step made and an integer-pair scale; its content is
divided out only where a bound fails on it, and the bound is read again
before the residual goes modular (:func:`_step`).

Polarisation.  A tensor symmetric over a group of ``d`` slots is the same
data as the degree-``d`` polynomial obtained by putting one vector ``x``
into every slot of the group: the coefficient of ``x^α`` is the sum of
the entries over the index tuples with multiset ``α``, the group's orbit
sum.  A polarised array carries its coefficients on one leading
*monomial axis*, over the degree-``d`` monomials in the lexicographic
order of their sorted index tuples (size 1 in degree 0).

The one contraction engine, :func:`contract_terms`, multiplies such
factors pairwise along a plan that is built once per term, dimension
and group (:func:`_contraction_plan`).  The plan compiles each step once
(:class:`_Step`): its two operands, how each factor is read, the table
that adds up monomial pairs per product monomial, the output shape and
the guard factor ``size! · pairs · volume``.  One kernel,
:func:`_alternated`, runs every step: a batched ``matmul`` over the
contracted index axes, one batch per pair of monomials, then a gather
and a segmented sum over that table.  An antisymmetric group stays
index axes and is alternated inside the last product of each term, only
at the group's increasing tuples: each factor is alternated over its own
share of the group, and the two are paired at the shuffles of each
tuple (the shuffle formula of the exterior product), not at all its
rearrangements; a plain product is the case of an empty group.
:func:`expand_axis` rebuilds a dense slot group from canonical
components by a gather, after :func:`weigh_monomials` has applied a
symmetric group's ``alpha!`` weights.

An all-zero integer image is one read-only broadcast of a single int64
zero (:func:`zero_array`), whatever its shape, and the reductions over an
image read each zero-stride axis once (:func:`stored_entries`).  In the
engine a factor or product whose bound is 0 is exactly zero, and it ends
its branch of the contraction: every product built on it is a zero
image at once, with nothing multiplied (:func:`_step`), a zero term is
left out of its sum, and no zero is reduced modulo a prime.  A factor
too wide for int64 is polarised in Python ints, so its bound is its
exact maximum and a zero one is known too (:func:`_factor`).  Such
zeros come from the operands: a zero tensor, or a valid curvature tensor
polarised in three slots, which the cyclic identity makes zero.

A group of free slots that an earlier operator spans, and that shares
one slot with a final group, is read off one contraction: after the sum,
:func:`contract_terms` moves the shared slot's index, a derivative from
the monomial axis into the tuple axis, a product with ``x`` back.  Each
column of the move is compiled once per key to the sum's row and a
signed weight at every output entry (:func:`_moves`), so a move is one
gather per column (:func:`_moved`).  The sum and the move pass one
guard together, so a residual's values leave the engine through one
int64-or-primes decision, and content is divided out of them only by
:func:`_reduce`, where that guard fails.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "linear_combination",
    "transposed_sum",
    "integer_multiples",
    "contract_terms",
    "Residues",
    "nonzero",
    "integers",
    "guarded_tensordot",
    "expand_axis",
    "weigh_monomials",
    "normalize_array",
    "zero_array",
    "stored_entries",
    "integer_array",
]

# Stay well under 2^63 so sums of a few terms cannot wrap.
_INT64_SAFE = 1 << 62


# The one stored entry of every zero_array: immutable, so they are read-only.
_ZERO = bytes(np.dtype(np.int64).itemsize)


def zero_array(shape: Sequence[int]) -> np.ndarray:
    """The all-zero int64 array of ``shape``: a read-only broadcast of one
    stored zero (every stride 0), so it holds no memory at any size.
    Built directly, as ``np.broadcast_to`` costs about five times more."""
    shape = tuple(shape)
    return np.ndarray(shape, np.int64, _ZERO, strides=(0,) * len(shape))


def stored_entries(arr: np.ndarray) -> np.ndarray:
    """``arr`` with each zero-stride axis cut to its first entry.

    Along a zero-stride axis every entry is the same stored one, so the
    view holds each distinct entry of ``arr`` and is as large as what
    ``arr`` stores: one entry for a :func:`zero_array`.  Its maximum,
    minimum, gcd and zero test are those of ``arr``."""
    if 0 not in arr.strides:
        return arr
    return arr[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in arr.strides)]


def _max_abs(arr: np.ndarray) -> int:
    """Largest magnitude in an integer array of either dtype (0 if empty)."""
    if arr.size == 0:
        return 0
    arr = stored_entries(arr)
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
    multiples, scale = integer_multiples([c for c, _ in terms])
    arrays = [arr for _, arr in terms]
    peaks = None if any(arr.dtype == object for arr in arrays) else [_max_abs(arr) for arr in arrays]
    return _combination(multiples, arrays, peaks), scale


def transposed_sum(arr: np.ndarray, axes: Sequence[Sequence[int]], multiples: Sequence[int]) -> np.ndarray:
    """``sum of k_i * arr.transpose(axes[i])`` over the integer
    ``multiples`` ``k_i``: int64 when ``arr`` is int64 and ``sum |k_i| *
    max|arr| < 2^62``, and Python ints otherwise.  ``max|arr|`` bounds
    every view, so it is taken once."""
    peaks = None if arr.dtype == object else [_max_abs(arr)] * len(axes)
    return _combination(multiples, [arr.transpose(a) for a in axes], peaks)


def _combination(
    multiples: Sequence[int], arrays: Sequence[np.ndarray], peaks: "Sequence[int] | None"
) -> np.ndarray:
    """``sum of k_i * arrays[i]``: int64 when ``peaks`` (``max|arrays[i]|``,
    None when some array holds Python ints) give ``sum |k_i| * peak_i <
    2^62``, and Python ints otherwise."""
    shape = arrays[0].shape
    # numpy arithmetic on 0-d arrays gives scalars; sum 1-element arrays.
    if not shape:
        arrays = [np.atleast_1d(arr) for arr in arrays]
    wide = peaks is None
    if not wide:
        bounds = [abs(k) * peak for k, peak in zip(multiples, peaks)]
        wide = sum(bounds) >= _INT64_SAFE
        # A zero array adds nothing, and its multiple may not fit in int64.
        multiples = [k if bound else 0 for k, bound in zip(multiples, bounds)]
    if wide:
        arrays = [arr.astype(object, copy=False) for arr in arrays]
    return _weighted_sum(multiples, arrays).reshape(shape)


def _weighted_sum(multiples: Sequence[int], arrays: Sequence[np.ndarray]) -> np.ndarray:
    # A C-ordered sum of transposed views reshapes without another copy.
    total = np.multiply(multiples[0], arrays[0], order="C")
    for k, arr in zip(multiples[1:], arrays[1:]):
        # A multiple of ±1 is added in place, with no temporary k * arr.
        if k == 1:
            np.add(total, arr, out=total)
        elif k == -1:
            np.subtract(total, arr, out=total)
        elif k:
            total += k * arr
    return total


def integer_multiples(coefficients: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """Each coefficient's integer multiple of their largest common divisor,
    and that divisor (gcd of the numerators over lcm of the denominators;
    1, with every multiple 0, when every coefficient is zero).

    Unless every coefficient is zero, the multiples ``(p_i / G) · (L /
    q_i)`` of the reduced ``p_i / q_i`` (``G`` the gcd, ``L`` the lcm) have
    gcd 1.  A prime dividing them all would divide ``p_i / G``, so ``p_i``,
    for an ``i`` whose ``q_i`` holds all its powers in ``L``; so it divides
    no ``q_i``, nor ``L``, and it divides every ``p_j / G``, whose gcd is 1.
    And the divisor is the only positive rational that splits the
    coefficients into coprime integer multiples: if ``c_i = k_i d = k'_i
    d'`` with both sets coprime and ``d / d' = a / b`` in lowest terms,
    then ``b k'_i = a k_i``, so ``a`` divides every ``k'_i`` and ``b``
    every ``k_i``, and ``a = b = 1``.  Hence, for a positive rational
    ``s``, the multiples of the ``c_i · s`` are those of the ``c_i``, and
    their divisor is ``d · s``."""
    gcd = math.gcd(*(c.numerator for c in coefficients))
    if not gcd:
        return [0] * len(coefficients), Fraction(1)
    lcm = math.lcm(*(c.denominator for c in coefficients))
    return [(c.numerator // gcd) * (lcm // c.denominator) for c in coefficients], Fraction(gcd, lcm)


def normalize_array(arr: np.ndarray, scale: Fraction) -> tuple[np.ndarray, Fraction]:
    """The canonical form of ``scale * arr``: content-reduced integers.

    Divides out the gcd of the entries (folding it into ``scale``), takes
    ``int64`` when every entry is below 2^62 in magnitude and Python ints
    otherwise, and gives an all-zero array the scale 1 and the image
    :func:`zero_array`.  The represented value ``scale * arr`` is unchanged.
    """
    if arr.size == 0:
        return arr, scale
    gcd = _content(arr)
    if gcd == 0:
        return zero_array(arr.shape), Fraction(1)
    if gcd > 1:
        arr = np.asarray(arr // gcd, dtype=arr.dtype)  # a 0-d quotient is a scalar
        scale = scale * gcd
    if (arr.dtype == object) != (_max_abs(arr) >= _INT64_SAFE):
        arr = arr.astype(np.int64 if arr.dtype == object else object)
    return arr, scale


def integer_array(values: Sequence[int], peak: "int | None" = None) -> np.ndarray:
    """The ints ``values`` as a 1-D array: ``int64`` when every magnitude
    (at most ``peak``, when given) is below 2^62, Python ints otherwise."""
    if peak is None:
        peak = max(map(abs, values), default=0)
    if peak < _INT64_SAFE:
        return np.fromiter(values, np.int64, len(values))
    return np.array(values, dtype=object)


def _content(arr: np.ndarray) -> int:
    """The gcd of the entries of an integer array of either dtype (0 when
    every entry is zero or there is none)."""
    entries = stored_entries(arr)
    if arr.dtype != object:
        return int(np.gcd.reduce(entries, axis=None))
    gcd = 0
    for value in entries.flat:
        gcd = math.gcd(gcd, value)
        if gcd == 1:
            break
    return gcd


# ---------------------------------------------------------------------------
# Monomial and alternating tables, built on first use and cached.
# ---------------------------------------------------------------------------


class _Merge(NamedTuple):
    rank: np.ndarray  # product monomial of each tuple of factor monomials
    perm: np.ndarray  # those tuples grouped by product monomial
    starts: np.ndarray  # start of each product monomial's group in ``perm``
    pairs: int  # the largest group


@functools.lru_cache(maxsize=128)
def _merge(dim: int, degrees: tuple[int, ...]) -> _Merge:
    """Table multiplying one monomial of each of ``degrees`` (C order over
    their tuples) into a monomial of the total degree."""
    monomials = functools.partial(itertools.combinations_with_replacement, range(dim))
    rank_of = {m: r for r, m in enumerate(monomials(sum(degrees)))}
    products = [tuple(sorted(sum(parts, ()))) for parts in itertools.product(*map(monomials, degrees))]
    rank = np.array([rank_of[p] for p in products], dtype=np.intp)
    counts = np.bincount(rank)
    table = _Merge(
        rank,
        np.argsort(rank, kind="stable"),
        np.concatenate(([0], np.cumsum(counts)[:-1])),
        int(counts.max()),
    )
    for cached in table[:3]:  # shared by every caller
        cached.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def _monomial_weights(dim: int, size: int) -> np.ndarray:
    """``alpha!`` (the product of the exponent factorials) of each monomial
    of degree ``size`` in ``dim`` variables, in lexicographic order."""
    monomials = itertools.combinations_with_replacement(range(dim), size)
    weights = [math.prod(math.factorial(m.count(v)) for v in set(m)) for m in monomials]
    table = np.array(weights, dtype=np.int64)
    table.flags.writeable = False  # shared by every caller
    return table


@functools.lru_cache(maxsize=32)
def _alternating(dim: int, size: int) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Tables of one antisymmetric group of ``size`` slots.

    Returns ``(digits, signs, index, sign)``: the rearrangements of each
    strictly increasing tuple (in lexicographic order), as one index
    array per slot with a row per tuple and a column per rearrangement;
    the rearrangements' signs as a row, over their negatives as a second
    row; and, for every tuple in C order, the position of its sorted
    tuple (the tuple count where an index repeats) and the sign of the
    sorting rearrangement (0 where an index repeats).
    """
    arrangements = list(itertools.permutations(range(size)))
    odd = np.array([sum(i > j for i, j in itertools.combinations(p, 2)) % 2 for p in arrangements], dtype=bool)
    combos = list(itertools.combinations(range(dim), size))
    combos = np.array(combos, dtype=np.intp).reshape(len(combos), size)
    tuples = combos[:, np.array(arrangements, dtype=np.intp).reshape(len(arrangements), size)]
    rows = tuples @ dim ** np.arange(size - 1, -1, -1, dtype=np.intp)
    digits = tuple(np.ascontiguousarray(tuples[..., s]) for s in range(size))
    signs = np.where(odd, -1, 1) * np.array([[1], [-1]])
    index = np.full(dim**size, len(combos), dtype=np.intp)
    sign = np.zeros(dim**size, dtype=np.int64)
    index[rows] = np.arange(len(combos))[:, None]
    sign[rows] = signs[0]
    for cached in (*digits, signs, index, sign):
        cached.flags.writeable = False
    return digits, signs, index, sign


@functools.lru_cache(maxsize=64)
def _shuffled(dim: int, size: int, slots: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Tables pairing two share-alternated factors over one antisymmetric
    group of ``size`` slots, the first factor holding ``slots`` (in order)
    and the second the rest.

    Returns ``(first, second)``.  Row ``I`` runs over the strictly
    increasing ``size``-tuples (lexicographic), column ``S`` over the
    shuffles: the ``C(size, len(slots))`` choices of positions of ``I``,
    in lexicographic order.  The shuffle's sign is that of the
    rearrangement putting ``I[S]`` into ``slots`` and the rest of ``I``
    into the other slots, each part in order.  ``second[I, S]`` is the
    position of the rest of ``I`` among the second share's increasing
    tuples.  ``first[I, S]`` is twice the position of ``I[S]`` among the
    first share's, plus 1 where the shuffle is odd: its place among the
    first factor's share-alternated entries interleaved with their
    negatives (:func:`_share`).
    """
    others = tuple(s for s in range(size) if s not in slots)
    chosen = list(itertools.combinations(range(size), len(slots)))
    rest = [tuple(k for k in range(size) if k not in part) for part in chosen]
    combos = list(itertools.combinations(range(dim), size))
    combos = np.array(combos, dtype=np.intp).reshape(len(combos), size)

    def ranks(parts: list[tuple[int, ...]]) -> np.ndarray:
        # Every tuple's entries at each shuffle's positions, ranked.
        width = len(parts[0])
        positions = np.array(parts, dtype=np.intp).reshape(len(parts), width)
        return _alternating(dim, width)[2][combos[:, positions] @ dim ** np.arange(width - 1, -1, -1)]

    odd = []
    for part, other in zip(chosen, rest):
        image = dict(zip(slots + others, part + other))
        odd.append(sum(image[i] > image[j] for i, j in itertools.combinations(range(size), 2)) % 2)
    first, second = 2 * ranks(chosen) + np.array(odd, dtype=np.intp), ranks(rest)
    for cached in (first, second):
        cached.flags.writeable = False
    return first, second


class _Moves(NamedTuple):
    """Tables of the move of :func:`contract_terms` onto ``M`` monomials
    and ``T`` increasing tuples, through ``W`` columns."""

    weight: np.ndarray  # (M, dim): the source monomial's coefficient at (alpha, v), 0 where there is none
    variable: np.ndarray  # (T, W): the variable v that each column moves at I
    rows: np.ndarray  # (W, M, T): the flat source row, source monomial · source tuples + source tuple
    coefficients: np.ndarray  # (W, M, T): that row's weight times the column's sign
    load: int  # the largest sum of |coefficient| over one output entry


# The most entries a move's table may hold to be kept in intp and int64
# (see _moves): every library key up to N = 5 (at most 14 850 entries),
# and all but the quartic hook key (77 220) at N = 6.
_WIDE_MOVES = 1 << 15


@functools.lru_cache(maxsize=32)
def _moves(dim: int, degree: int, size: int, pivot: int, free: int) -> _Moves:
    """Tables moving one index between the monomial axis and the tuple
    axis, onto monomials of ``degree`` and increasing ``size``-tuples,
    from a sum over monomials of ``degree + free`` and increasing
    ``(size - free)``-tuples.

    With ``free`` +1 (a derivative) the source is ``x^(alpha + e_v)``
    with weight ``alpha_v + 1`` at ``I`` less ``v``, for each ``v`` in
    ``I`` (a column per position of ``I``).  With ``free`` -1 (a product
    with x) it is ``x^(alpha - e_v)``, weight 1 where ``alpha_v >= 1``
    and 0 elsewhere, at ``I`` with ``v`` added, for each ``v`` not in
    ``I`` (a column per place in the complement).  Either way the sign
    is that of sorting the tuple of the larger group with ``v`` at
    position ``pivot`` and the smaller tuple in order around it.

    Each column is compiled to the sum's flat row and the signed weight
    at every output entry, ``W · M · T`` entries per table.  Tables of at
    most ``_WIDE_MOVES`` entries are kept in intp and int64, which numpy
    reads without a cast; larger ones (49.9 M entries for the quartic
    hook key at N = 12) in the narrowest signed dtypes that hold them.
    """
    combos = list(itertools.combinations(range(dim), size))
    combos = np.array(combos, dtype=np.intp).reshape(len(combos), size)
    count = len(_monomial_weights(dim, degree))
    if free > 0:
        monomial = _merge(dim, (degree, 1)).rank.reshape(count, dim)
        weight = _monomial_weights(dim, degree + 1)[monomial] // _monomial_weights(dim, degree)[:, None]
        variable = combos
        smaller = [np.delete(combos, k, axis=1) for k in range(size)]
    else:
        up = _merge(dim, (degree - 1, 1)).rank.reshape(-1, dim)
        monomial, weight = np.zeros((count, dim), np.intp), np.zeros((count, dim), np.int64)
        monomial[up, np.arange(dim)] = np.arange(len(up))[:, None]
        weight[up, np.arange(dim)] = 1
        outside = np.ones((len(combos), dim), dtype=bool)
        outside[np.arange(len(combos))[:, None], combos] = False
        variable = np.nonzero(outside)[1].reshape(len(combos), dim - size)
        smaller = [combos] * (dim - size)
    _, _, index, sign = _alternating(dim, size + (free < 0))
    source = index if free < 0 else _alternating(dim, size - 1)[2]
    codes = lambda tuples: tuples @ dim ** np.arange(tuples.shape[1] - 1, -1, -1, dtype=np.intp)  # noqa: E731
    # The sum has this many tuples per monomial, and this many rows.
    tuples = math.comb(dim, size - free)
    sources = math.comb(dim + degree + free - 1, degree + free) * tuples
    shape = (variable.shape[1], count, len(combos))
    wide = math.prod(shape) <= _WIDE_MOVES
    rows = np.empty(shape, np.intp if wide else _narrow(sources))
    coefficients = np.empty(shape, np.int64 if wide else _narrow(int(weight.max(initial=0))))
    for column, (v, rest) in enumerate(zip(variable.T, smaller)):
        arranged = codes(np.insert(rest, pivot, v, axis=1))
        rows[column] = monomial[:, v] * tuples + source[arranged if free < 0 else codes(rest)]
        coefficients[column] = weight[:, v] * sign[arranged]
    incidence = np.zeros((dim, len(combos)), dtype=np.int64)
    incidence[variable, np.arange(len(combos))[:, None]] = 1
    load = int(np.max(weight @ incidence, initial=0))
    moves = _Moves(weight, variable, rows, coefficients, load)
    for cached in moves[:4]:  # cached, so shared by every caller
        cached.flags.writeable = False
    return moves


def _narrow(peak: int) -> np.dtype:
    """The narrowest signed integer dtype that holds magnitudes up to ``peak``."""
    return np.min_scalar_type(-peak - 1)


# ---------------------------------------------------------------------------
# Polynomial-valued arrays: one monomial axis, then index axes.
# ---------------------------------------------------------------------------


def polarise(arr: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``arr`` with one vector ``x`` in each of ``axes``.

    The result starts with a monomial axis of degree ``len(axes)`` and
    keeps the other axes in order; each coefficient sums the entries over
    the index tuples of its monomial, at most ``pairs`` of them, in
    ``arr``'s dtype: int64 callers keep ``pairs · max|arr|`` below 2^62.
    """
    axes = list(axes)
    rest = [axis for axis in range(arr.ndim) if axis not in axes]
    arr = arr.transpose(axes + rest)
    flat = arr.reshape((-1,) + arr.shape[len(axes):])
    if len(axes) < 2:
        return flat
    table = _merge(arr.shape[0], (1,) * len(axes))
    return np.add.reduceat(flat.take(table.perm, axis=0), table.starts, axis=0)


class _Reading(NamedTuple):
    """How :func:`_alternated` reads one factor."""

    axes: tuple[int, ...]  # transpose into (monomial, share, contracted, free)
    index: tuple  # the share's rearrangements (_alternating), after the monomial axis
    signs: "np.ndarray | None"  # their signs; None when nothing is alternated
    gathered: tuple[int, int, int]  # (share tuples, rearrangements, contracted · free)
    alternated: tuple[int, int, int]  # (share entries, contracted, free) after _share
    at: "np.ndarray | None"  # shuffle table (_shuffled); None for one shuffle
    shuffled: tuple[int, int, int]  # (tuples, shuffles · contracted, free) read at it


class _Step(NamedTuple):
    """One pairwise product of a plan, compiled once (:func:`_compile`)."""

    a: int  # the operand numbers of the two factors
    b: int
    key: tuple  # (axes_a, axes_b, dim, degree_a, degree_b, group_a, group_b)
    read_a: _Reading
    read_b: _Reading
    merge: "_Merge | None"  # adds up the monomial pairs; None when no two meet
    shape: tuple[int, ...]  # the result's shape, monomial axis first
    load: int  # size! · pairs · volume: most products of two entries in one entry


def _compile(a: int, b: int, ndim_a: int, ndim_b: int, key: tuple) -> _Step:
    """The step multiplying operand ``a`` (``ndim_a`` axes) by operand
    ``b`` (``ndim_b`` axes) by :func:`_alternated`, every index axis
    ``dim`` long, with ``key = (axes_a, axes_b, dim, degree_a, degree_b,
    group_a, group_b)``.

    Both factors start with a monomial axis of the given degree in
    ``dim`` variables; ``axes_a`` / ``axes_b`` are the contracted index
    axes (never 0).  Slot ``s`` of the antisymmetric group (empty for a
    plain product) is axis ``group_a[s]`` of ``a``, or, where that is 0,
    axis ``group_b[s]`` of ``b``.  The result's shape is the monomials
    of the degrees' sum, the group's increasing tuples when there is a
    group, then the free index axes of ``a``, then those of ``b``.  The
    first factor is signed when the shuffles carry signs.  ``load``
    counts the products an entry adds up: ``pairs`` monomial pairs meet
    in one product monomial, ``volume`` is the contracted index volume,
    and ``size!`` the rearrangements of a group of ``size`` slots.
    """
    axes_a, axes_b, dim, degree_a, degree_b, group_a, group_b = key
    slots = tuple(s for s, axis in enumerate(group_a) if axis)
    at_a, at_b = _shuffled(dim, len(group_a), slots)
    tuples, shuffles = at_a.shape
    volume, degree, readings = dim ** len(axes_a), degree_a + degree_b, []
    shape = (math.comb(dim + degree - 1, degree),) + ((tuples,) if group_a else ())
    for ndim, axes, share, at, signed in (
        (ndim_a, axes_a, [group_a[s] for s in slots], at_a, shuffles > 1),
        (ndim_b, axes_b, [axis for axis in group_b if axis], at_b, False),
    ):
        free = [axis for axis in range(1, ndim) if axis not in axes and axis not in share]
        rest, increasing = dim ** len(free), math.comb(dim, len(share))
        digits, signs, _, _ = _alternating(dim, len(share))
        if signed:
            entries = 2 * increasing
        elif len(share) > 1:
            signs, entries = signs[:1], increasing
        else:
            signs, entries = None, dim ** len(share)
        gathered = (increasing, math.factorial(len(share)), volume * rest)
        readings.append(_Reading(
            (0, *share, *axes, *free), (slice(None), *digits), signs, gathered, (entries, volume, rest),
            at if shuffles > 1 else None, (tuples, shuffles * volume, rest),
        ))
        shape += (dim,) * len(free)
    merge = _merge(dim, (degree_a, degree_b))
    load = math.factorial(len(group_a)) * merge.pairs * volume
    return _Step(a, b, key, *readings, merge if merge.pairs > 1 else None, shape, load)


def _alternated(a: np.ndarray, b: np.ndarray, step: _Step) -> np.ndarray:
    """The product of two polynomial-valued arrays by ``step``
    (:func:`_compile`): contracted over index axes, and alternated over
    the step's antisymmetric group of free slots, if any.

    With a group, axis 1 of the result runs over its strictly increasing
    tuples ``I`` (lexicographic order), holding the sum over the
    rearrangements ``J`` of ``I`` of ``sign(J)`` times the plain product
    read at ``J``.  By the shuffle formula of the exterior product this
    is a sum over shuffles.  Each factor is first alternated over its own
    share of the group (:func:`_share`), at that share's increasing
    tuples.  Then, at each ``I``, the factors are paired at the ``C(size,
    p)`` shuffles of ``I`` (:func:`_shuffled`; ``p`` the size of ``a``'s
    share): ``a`` is read at the shuffle's sign from its entries and
    their negatives, and the shuffles join the contracted axis.  When one
    factor holds the whole group, or there is no group, there is one
    shuffle, with sign +1.  Either way it is one batched ``matmul``, a
    batch per pair of monomials; the pairs are then added up per product
    monomial (the step's ``merge``).  Each entry sums at most ``C(size,
    p) · pairs · volume`` products of share-alternated entries, each a
    signed sum of ``p! · (size - p)!`` products of an entry of each
    factor: ``step.load`` such products in all.  In the factors' dtype,
    unguarded.
    """
    read_a, read_b = step.read_a, step.read_b
    a, b = _share(a, read_a), _share(b, read_b)
    if read_a.at is not None:  # the shuffles join the contracted axis
        a = a.take(read_a.at, axis=1).reshape(len(a), *read_a.shuffled)
        b = b.take(read_b.at, axis=1).reshape(len(b), *read_b.shuffled)
    # a enters the product as a transposed view.
    out = np.matmul(a.swapaxes(2, 3)[:, None], b[None]).reshape((-1,) + step.shape[1:])
    if step.merge is None:
        return out
    # The gathered copy takes the product's place before the sum is made.
    out = out.take(step.merge.perm, axis=0)
    return np.add.reduceat(out, step.merge.starts, axis=0)


def _share(x: np.ndarray, reading: _Reading) -> np.ndarray:
    """The factor ``x`` alternated over its share of an antisymmetric group.

    Read as (monomial, share, contracted, free), the share's axes become
    one axis over the share's strictly increasing tuples, each holding
    the signed sum of ``x`` at the tuple's rearrangements (a share of at
    most one slot is already alternated), and the contracted and free
    axes are flattened to one each.  A signed reading follows each
    alternated entry with its negative.  In ``x``'s dtype, unguarded.
    """
    x = x.transpose(reading.axes)
    if reading.signs is None:
        return x.reshape(len(x), *reading.alternated)
    gathered = x[reading.index].reshape(len(x), *reading.gathered)
    return np.matmul(reading.signs, gathered).reshape(len(x), *reading.alternated)


def guarded_tensordot(
    a: np.ndarray, b: np.ndarray, axes_a: Sequence[int], axes_b: Sequence[int]
) -> np.ndarray:
    """``np.tensordot`` with exact integer semantics: ``int64`` when both
    arrays are and ``K · max|a| · max|b| < 2^62``, with ``K`` the
    contracted volume, and Python ints otherwise."""
    volume = math.prod(a.shape[k] for k in axes_a)
    if a.dtype == object or b.dtype == object or volume * _max_abs(a) * _max_abs(b) >= _INT64_SAFE:
        a, b = a.astype(object, copy=False), b.astype(object, copy=False)
    return np.tensordot(a, b, axes=(list(axes_a), list(axes_b)))


def expand_axis(values: np.ndarray, axis: int, dim: int, size: int, anti: bool) -> np.ndarray:
    """Rebuild one slot group from its canonical axis, by a gather.

    Axis ``axis`` of ``values`` runs over the canonical tuples of a group
    of ``size`` slots: monomials for a symmetric group, strictly
    increasing tuples for an antisymmetric one.  It becomes an axis over
    all ``dim^size`` tuples ``J`` in C order, holding the value at the
    canonical tuple of ``J``, times the sign of the sorting rearrangement
    (zero on a repeated index) for an antisymmetric group.  The values
    are only read and signed, so the magnitudes do not grow; a symmetric
    group's ``alpha!`` weights are :func:`weigh_monomials`'.
    """
    if not anti:
        return np.take(values, _merge(dim, (1,) * size).rank, axis=axis)
    _, _, index, sign = _alternating(dim, size)
    # A repeated index points past the last tuple; its sign 0 clears it.
    out = np.take(values, index, axis=axis, mode="clip")
    out *= sign.reshape((-1,) + (1,) * (out.ndim - axis - 1))
    return out


def weigh_monomials(values: np.ndarray, dim: int, size: int) -> np.ndarray:
    """``values`` times ``alpha!`` along axis 0, which runs over the
    degree-``size`` monomials in ``dim`` variables: int64 while ``max
    alpha! · max|values| < 2^62``, Python ints otherwise.  Not
    content-reduced."""
    weights = _monomial_weights(dim, size)
    if values.dtype == object or int(weights.max()) * _max_abs(values) >= _INT64_SAFE:
        values = values.astype(object)
    return values * weights.astype(values.dtype).reshape((-1,) + (1,) * (values.ndim - 1))


# ---------------------------------------------------------------------------
# The contraction engine.
# ---------------------------------------------------------------------------


class _Plan(NamedTuple):
    factors: tuple[tuple[tuple[int, ...], int], ...]  # polarised axes of each factor, and its pairs
    steps: tuple[_Step, ...]  # the pairwise products, in order
    order: tuple[int, ...]  # transpose of the last product into output order
    load: int  # the largest of the factors' pairs and the steps' loads


@functools.lru_cache(maxsize=128)
def _contraction_plan(subscripts: str, dim: int, alternate: int) -> _Plan:
    """Polarised axes of each factor, the compiled steps, output order.

    A factor's ``pairs`` is the most index tuples that polarisation adds
    up into one coefficient.  A step (:func:`_compile`) contracts two
    operands; its result takes the next operand number.  The greedy path
    sees index axes only and gets no memory limit, so that every step is
    a pair (under numpy's default limit it may fall back to one step over
    all remaining factors).  The last step alternates over the first
    ``alternate`` output letters.
    """
    inputs, output = subscripts.split("->")
    factors = inputs.split(",")
    names = [f.replace("*", "") for f in factors]  # index letters of each operand
    everything = "".join(names) + output
    if len(factors) < 2 or any(len(set(f)) != len(f) for f in [*names, output]) or any(
        everything.count(c) != 2 for c in everything
    ):
        raise ValueError(
            f"{subscripts!r}: needs two or more factors, each index shared by two "
            "of them or an output index"
        )
    shapes = [np.broadcast_to(0, (dim,) * len(f)) for f in names]
    reduced = ",".join(names) + "->" + output
    path = np.einsum_path(reduced, *shapes, optimize=("greedy", sys.maxsize))[0][1:]
    x_axes = [tuple(k for k, c in enumerate(f) if c == "*") for f in factors]
    pairs = [_merge(dim, (1,) * len(axes)).pairs for axes in x_axes]
    degrees = [len(axes) for axes in x_axes]
    # The axes of ``letters`` in operand k, after its monomial axis (0 if absent).
    at = lambda k, letters: tuple(names[k].find(c) + 1 for c in letters)  # noqa: E731
    live = list(range(len(factors)))  # einsum_path's operand list
    steps = []
    for n, positions in enumerate(path, 1 - len(path)):
        a, b = (live[k] for k in positions)
        live = [m for k, m in enumerate(live) if k not in positions] + [len(names)]
        shared = [c for c in names[a] if c in names[b]]
        group = "" if n else output[:alternate]
        key = (at(a, shared), at(b, shared), dim, degrees[a], degrees[b], at(a, group), at(b, group))
        steps.append(_compile(a, b, len(names[a]) + 1, len(names[b]) + 1, key))
        names.append("".join(c for c in names[a] + names[b] if c not in shared and c not in group))
        degrees.append(degrees[a] + degrees[b])
    lead = 2 if alternate else 1  # the monomial axis, then the increasing tuples
    order = tuple(range(lead)) + tuple(names[-1].index(c) + lead for c in output[alternate:])
    load = max(pairs + [step.load for step in steps])
    return _Plan(tuple(zip(x_axes, pairs)), tuple(steps), order, load)


@dataclass(eq=False, slots=True)
class _Node:
    """A polarised factor or a product in :func:`contract_terms`'s memo.

    ``arr`` is its integer image at ``scale``, an integer pair
    ``(numerator, denominator)`` not in lowest terms, and ``bound`` is
    max|arr|.  A factor is as polarised: int64 within its guard, and past
    it in Python ints, so its bound is exact there too.  An int64
    product is as its step made it, and ``loose`` while its content (the
    gcd of its entries) has not been divided out; :func:`_reduce` divides
    it out in place, where a guard fails (:func:`_step`).  A product past
    its guard has no image: ``arr`` is None, ``scale`` the product of the
    factors' scales and ``bound`` a bound on the entries of the integer
    image at that scale.  So bound 0 holds only for a node that is
    exactly zero, and such a node is :func:`zero_array` at scale 1.
    ``source`` is empty for a factor and, for a product, its two factor
    nodes and the :class:`_Step`, which rebuild it modulo a prime.
    """

    arr: "np.ndarray | None"
    scale: tuple[int, int]
    bound: int
    source: tuple
    loose: bool = False


def _factor(arr: np.ndarray, scale: Fraction, axes: tuple[int, ...], pairs: int) -> _Node:
    """The operand ``scale * arr`` with x in ``axes``, each coefficient a
    sum of at most ``pairs`` entries: polarised in int64 while ``pairs ·
    max|arr| < 2^62``, and otherwise in Python ints, so that its bound is
    the exact maximum (0 for a zero factor).  The image is int64 when
    that maximum is below 2^62, and stays in Python ints otherwise."""
    peak = _max_abs(arr)
    poly = polarise(arr.astype(np.int64 if pairs * peak < _INT64_SAFE else object, copy=False), axes)
    if pairs > 1:  # with one entry per coefficient, poly holds arr's entries
        peak = _max_abs(poly)
    poly = poly.astype(np.int64 if peak < _INT64_SAFE else object, copy=False)
    return _Node(poly, (scale.numerator, scale.denominator), peak, ())


def _step(a: _Node, b: _Node, step: _Step) -> _Node:
    """The product of nodes ``a`` and ``b`` by :func:`_alternated`.

    A factor with bound 0 is exactly zero, so the product is too: it is
    :func:`zero_array` of the step's shape at scale 1 and bound 0, with
    nothing multiplied, whatever the other factor holds.  No library row
    polarises a valid curvature tensor in three slots of one factor, so
    this serves zero operands only: on a zero curvature tensor, ``check``,
    ``condition3_residual`` and every form multiply nothing.  Otherwise the
    product is int64 when ``load · max|a| · max|b| < 2^62``
    (:class:`_Step`), and the share-alternated entries inside stay below
    that bound too.  It is the kernel's array, at the product of the
    scales (multiplied componentwise), and its bound is its maximum: its
    content is not divided out.  When the guard fails, each operand that
    is a loose product is content-reduced in place (:func:`_reduce`), so
    the memo and every later step read the reduced node, and the guard is
    tried again.  Only if it fails again is the product left to the
    primes.  A factor is never reduced.  The bounds alone decide: a
    factor with no int64 image has a bound of at least 2^62, so the
    product fails the guard.

    Routes are those of reducing every product as it is made.  Call the
    node that scheme makes at a step canonical.  By induction over the
    plan's steps, each node here reduces to its canonical node: a factor
    is the same in both; a product whose operands are ``c_a`` and
    ``c_b`` times their canonical images (at scales divided by ``c_a``
    and ``c_b``) is, the kernel being bilinear, ``c_a · c_b`` times the
    canonical operands' product at the scale divided by ``c_a · c_b``,
    and dividing out its content gives the canonical image and scale.  A
    guard on loose operands reads at least the canonical bounds, so it
    passes only where the canonical guard passes; one that fails reads
    the canonical bounds after the reduction.  Every int64/modular
    decision is therefore the canonical one, and so are a modular
    node's bound and scale, every :class:`Residues` bound built on it,
    and the number of primes read.
    """
    source = (a, b, step)
    if not (a.bound and b.bound):
        return _Node(zero_array(step.shape), (1, 1), 0, source)
    if step.load * a.bound * b.bound >= _INT64_SAFE:
        _reduce(a)
        _reduce(b)
    scale, bound = (a.scale[0] * b.scale[0], a.scale[1] * b.scale[1]), step.load * a.bound * b.bound
    if bound >= _INT64_SAFE:
        return _Node(None, scale, bound, source)
    arr = _alternated(a.arr, b.arr, step)
    peak = _max_abs(arr)
    if not peak:
        return _Node(zero_array(step.shape), (1, 1), 0, source)
    return _Node(arr, scale, peak, source, True)


def _reduce(node: _Node) -> None:
    """Divide a loose product's content out of its image, in place, into
    its scale; a factor, a reduced product and a product with no image
    are left as they are.  The value ``scale · arr`` is unchanged."""
    if node.loose:
        gcd = _content(node.arr)
        if gcd > 1:
            node.arr //= gcd
            node.scale = (node.scale[0] * gcd, node.scale[1])
            node.bound //= gcd
        node.loose = False


def _residue(node: _Node, p: int, cache: dict) -> np.ndarray:
    """``node`` modulo the prime ``p``, in [0, p), as int64: its image
    reduced, int64 or Python ints alike, or, for a product with no
    image, its step rerun on its factors' residues.  ``cache`` holds
    this prime's residues by node, so a shared node is reduced once."""
    key = id(node)
    if key not in cache:
        if node.arr is not None:
            cache[key] = np.asarray(node.arr % p, dtype=np.int64)
        else:
            a, b, step = node.source
            cache[key] = _alternated(_residue(a, p, cache), _residue(b, p, cache), step) % p
    return cache[key]


def _term(
    subscripts: str, operands: Sequence[tuple[np.ndarray, Fraction]], memo: dict, alternate: int = 0
) -> tuple[_Node, _Plan]:
    """One einsum term through ``memo``: its last node and its plan.
    With ``alternate``, the first ``alternate`` output letters are read
    as one axis over their increasing tuples, alternated inside the last
    product (:func:`_alternated`).  A factor is keyed by its operand's
    array and scale objects, a product by its two nodes and its step's
    key, so no lookup hashes a rational."""
    dim = operands[0][0].shape[0]
    plan = _contraction_plan(subscripts, dim, alternate)
    if len(operands) != len(plan.factors):
        raise ValueError(f"{subscripts!r} takes {len(plan.factors)} operands, got {len(operands)}")
    nodes = []
    for (arr, scale), (axes, pairs) in zip(operands, plan.factors):
        key = (id(arr), id(scale), axes)
        if (node := memo.get(key)) is None:
            node = memo[key] = _factor(arr, scale, axes, pairs)
        nodes.append(node)
    for step in plan.steps:
        key = (id(nodes[step.a]), id(nodes[step.b]), step.key)
        if (node := memo.get(key)) is None:
            node = memo[key] = _step(nodes[step.a], nodes[step.b], step)
        nodes.append(node)
    return node, plan


def _read(node: _Node, plan: _Plan) -> tuple["np.ndarray | Residues", Fraction, int]:
    """A term's last node as ``(values, scale, bound)``: the monomial axis
    first (size 1 when no slot is polarised), ``values`` the int64 image
    or, for a node past its guard, :class:`Residues` continuing from the
    last int64 steps, and ``scale`` the term's one :class:`Fraction`."""
    scale = Fraction(*node.scale)
    if node.arr is not None:
        return node.arr.transpose(plan.order), scale, node.bound
    residue = lambda p, cache: _residue(node, p, cache).transpose(plan.order)  # noqa: E731
    return Residues(node.bound, plan.load, residue), scale, node.bound


# ---------------------------------------------------------------------------
# Residuals past int64: residues modulo primes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Residues:
    """An integer array known through its residues modulo primes.

    ``residue(p, cache)`` is the array modulo a prime ``p`` as int64 in
    [0, p); ``cache`` holds the residues of shared intermediates for that
    one prime and is dropped after it, so one prime's arrays are alive at
    a time.  Every entry has magnitude at most ``bound``.  No step adds
    up more than ``load`` products of two residues, and the primes lie
    below 2^((62 - bit_length(load)) // 2), so every such sum stays below
    2^62 without a guard (proof below).

    Why ``bound`` holds: a polarised coefficient sums at most ``pairs``
    entries of its operand; an entry of a product sums at most
    ``pairs · volume`` products of an entry of each factor, and an entry
    of a last product alternated over ``size`` slots (:func:`_alternated`)
    at most ``size! · pairs · volume`` such products, each with a sign
    (its ``C(size, r)`` shuffles of share-alternated entries, for ``r``
    slots of the group in the first factor, expand to ``r! · (size -
    r)!`` products each); a sum with integer multiples ``k_i`` is at
    most ``Σ |k_i| · B_i``.  A polarised factor enters with its exact
    maximum, and an int64 product with its own maximum as it stands when
    the modular step is built: content-reduced, since a guard that fails
    reduces its product operands first (:func:`_step`).  It is exactly
    ``scale · arr`` either way, and a bound on the integers built on it
    holds at the product of the scales they carry.

    Why no step overflows: a plan's ``load`` counts ``pairs · volume``
    for each product and ``size! · pairs · volume`` for an alternated
    one.  Modulo ``p`` a factor enters with entries in [0, p), so an
    unalternated product adds up at most ``load`` products below ``p²``.
    In an alternated one each factor is first alternated over its share
    of the group (:func:`_share`).  With ``r`` of the ``size`` slots in
    the first factor, its entries become sums of ``r!`` signed residues,
    below ``r! · p`` in magnitude, and the second's below ``(size - r)! ·
    p``; a shuffle's sign keeps these bounds.  An entry of the product
    then adds up ``C(size, r) · pairs · volume`` products below ``r! ·
    (size - r)! · p²``, so every partial sum stays below ``size! · pairs
    · volume · p² <= load · p²``.  With ``p < 2^e``, ``e = (62 -
    bit_length(load)) // 2``, and ``load < 2^bit_length(load)``, every
    sum stays below ``load · p² < 2^62``.

    Why the residues decide: the primes are distinct, so an entry ``x``
    with zero residues is divisible by their product ``M``, and
    ``M > bound >= |x|`` forces ``x = 0`` (:func:`nonzero`); with
    ``M > 2 · bound`` the residues fix ``x`` in ``(-M/2, M/2]``
    (:func:`integers`).
    """

    bound: int
    load: int
    residue: Callable[[int, dict], np.ndarray]

    def primes(self, bound: int) -> Iterator[int]:
        """Primes for this array, largest first, until their product exceeds
        ``bound`` (at least one)."""
        prime, product = 1 << ((62 - self.load.bit_length()) // 2), 1
        while True:
            prime = _prime_below(prime)
            yield prime
            product *= prime
            if product > bound:
                return


def _modulo(values: "np.ndarray | Residues", p: int, cache: dict) -> np.ndarray:
    return values.residue(p, cache) if isinstance(values, Residues) else values % p


@functools.cache
def _prime_below(n: int) -> int:
    """The largest prime below ``n``, for 64 < n <= 2^32."""
    candidate = n - 1 - n % 2
    while not _is_prime(candidate):
        candidate -= 2
    return candidate


def _is_prime(n: int) -> bool:
    """Miller-Rabin on an odd ``n`` with the bases 2, 7 and 61, exact for
    61 < n < 4 759 123 141 (G. Jaeschke, Math. Comp. 61, 1993)."""
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def contract_terms(
    terms: Iterable[tuple[Fraction, str, Sequence[tuple[np.ndarray, Fraction]]]],
    memo: "dict | None" = None,
    alternate: int = 0,
    move: "tuple[int, int, int, int, int] | None" = None,
) -> tuple["np.ndarray | Residues", Fraction]:
    """Exact ``sum of c * term(*operands)`` over ``(rational c, einsum
    term, operands)``, each term keeping its monomial axis, with one
    index then moved by ``move``, if given.

    A term such as ``"kl,kabc,ldef->abcdef"`` runs over cubical
    ``(integer array, scale)`` operands of one dimension; every index is
    shared by two factors (and summed) or is an output index.  A ``*`` in
    place of a factor's index puts ``x`` into that slot (:func:`polarise`),
    and the monomial axis has the term's total degree (size 1 when no
    slot is polarised).  Factors are multiplied pairwise along the greedy
    ``np.einsum_path`` of the index letters, each step compiled once in
    the term's plan (:func:`_contraction_plan`) and run by
    :func:`_alternated`.  Each step stays ``int64`` while its guard
    passes, content-reducing its operands only where the guard fails
    on them as they are (:func:`_step`); from the first step whose guard
    fails on reduced operands the term is computed modulo primes.  A
    step's bookkeeping is in integers: scales are integer pairs, and a
    term's scale becomes one :class:`Fraction` when it is read
    (:func:`_read`).  A polarised factor too wide for int64 is polarised
    once in Python ints, so a zero one is known as zero.  A factor or
    product with bound 0 is exactly zero: each product built on it is a
    zero image without any array pass, and a term ending in one is left
    out of the sum and of the common scale, so a sum of zero terms is
    :func:`zero_array` at scale 1.

    Polarised factors and products are kept in ``memo`` as nodes
    (:class:`_Node`): a factor under the identities of its operand array
    and scale and its polarised axes, a product under the identities of
    its two factor nodes and the step's key (:class:`_Step`).  Terms and
    calls sharing a ``memo`` (whose callers keep their operands alive)
    compute a product once when they contract the same nodes over the
    same axes in the same order; written with its factors swapped, it is
    another node.

    With ``alternate``, the first ``alternate`` output letters of every term
    form one antisymmetric group: they become one axis (after the
    monomial axis) over the strictly increasing index tuples ``I`` in
    lexicographic order, holding the sum over the rearrangements ``J`` of
    ``I`` of ``sign(J)`` times the term at ``J``.  Each term computes it
    inside its last product (:func:`_alternated`), only at those tuples.

    ``move`` is None or the key ``(dim, degree, size, pivot, free)`` of
    :func:`_moves`: one index then moves between the sum's monomial and
    tuple axes (:func:`_moved`).  The result has monomials of ``degree``
    and increasing ``size``-tuples, and at ``(alpha, I)`` the sum over
    the tables' columns of ``sign · weight · sum[source monomial, source
    tuple]``: with ``free`` +1 the coefficient of ``x^alpha`` in the
    derivative of the sum along ``e_v`` put at position ``pivot`` of
    ``I``, alternated; with ``free`` -1 the product with ``x``, whose
    index ``v`` takes position ``pivot`` of the larger tuple (see
    :func:`~killingtensor.integrability._polar`).  An entry adds up at
    most ``move_load`` entries of the sum (the tables' largest sum of
    ``|weight|``; 1 without a move).  A zero sum gives
    :func:`zero_array` of the moved shape.

    One guard decides the read-out.  With the multiples ``k_i`` and scale
    of :func:`linear_combination` over the nonzero terms, the result is
    int64 when every such term is and ``move_load · sum |k_i| ·
    max|term_i| < 2^62``, which bounds every partial sum.  That guard is
    read first on the terms as their last steps made them; where it
    fails, each term's last node is content-reduced (:func:`_reduce`)
    and it is read again, and only then is the result
    :class:`Residues`: the sum, then the move, modulo each prime, with
    that reading as its bound and ``max(2, move_load, the terms' loads)``
    as its load.  Reducing the terms divides the guard's reading by a
    positive integer: the reduced terms' scale ``S`` is a multiple of
    the loose terms' ``S'`` in :func:`integer_multiples`' sense, and
    each ``|k_i| · max|term_i|`` shrinks by ``S / S'``.  So the result
    goes modular exactly where it would on reduced terms, with their
    bound.  Returns ``(values, scale)``, not content-reduced.

    Routes are those of summing, then moving under a guard of the move's
    own that reads the sum's exact maximum and divides the sum's content
    out where it fails.  A library row with a move has one term, at
    multiple 1 (``c = 1``, a positive scale), so its bound ``B`` is the
    sum's exact maximum, and the sum's own guard ``B < 2^62`` passes on
    an int64 node: the one guard reads ``move_load · max|sum|``, and
    reducing the node divides out the sum's content, as the move did; so
    the bound, the load and every prime read are the move's.  With
    several terms and a move (no library row has this), ``sum |k_i| ·
    B_i >= max|sum|`` keeps the guard sound.
    """
    memo = {} if memo is None else memo
    parts = [(c, *_term(subscripts, operands, memo, alternate)) for c, subscripts, operands in terms]
    moves = None if move is None else _moves(*move)
    move_load = 1 if moves is None else moves.load
    # A zero term (bound 0) adds nothing: it enters neither sum nor scale.
    live = [(c, node, plan) for c, node, plan in parts if node.bound]
    if not live:
        _, node, plan = parts[0]
        shape = node.arr.transpose(plan.order).shape
        if moves is not None:
            shape = moves.rows.shape[1:] + shape[2:]
        return zero_array(shape), Fraction(1)
    while True:
        read = [(c, *_read(node, plan)) for c, node, plan in live]
        multiples, scale = integer_multiples([Fraction(c) * s for c, _, s, _ in read])
        values = [v for _, v, _, _ in read]
        wide = [v for v in values if isinstance(v, Residues)]
        bound = move_load * sum(abs(k) * b for k, (_, _, _, b) in zip(multiples, read))
        if not wide and bound < _INT64_SAFE:
            total = _weighted_sum(multiples, values)
            return (total if moves is None else _moved(total, moves)), scale
        loose = [node for _, node, _ in live if node.loose]
        if not loose:
            break
        for node in loose:
            _reduce(node)

    def residue(p: int, cache: dict) -> np.ndarray:
        total = 0
        for k, v in zip(multiples, values):
            total = (total + k % p * _modulo(v, p, cache)) % p
        return total if moves is None else _moved(total, moves) % p

    return Residues(bound, max([2, move_load] + [v.load for v in wide]), residue), scale


def _moved(values: np.ndarray, moves: _Moves) -> np.ndarray:
    """The move of :func:`contract_terms` on an int64 array, unguarded.

    The sum is read as rows over (source monomial, source tuple).  Each
    column of the move gathers its compiled rows at every output entry
    (``np.take``), weighs them in place and adds them to the result.
    Besides the result and one column's gather, ``take`` makes an intp
    copy of the column's rows (they are read-only, or narrower past
    ``_WIDE_MOVES`` entries), so at most three output-sized arrays exist
    at once.
    """
    rows = values.reshape((-1,) + values.shape[2:])
    trailing = (1,) * (values.ndim - 2)
    out = None
    for row, coefficient in zip(moves.rows, moves.coefficients):
        term = rows.take(row, axis=0)
        term *= coefficient.reshape(coefficient.shape + trailing)
        out = term if out is None else np.add(out, term, out=out)
        del term  # before the next column's gather
    if out is None:  # no column: every entry is zero
        return np.zeros(moves.rows.shape[1:] + values.shape[2:], dtype=np.int64)
    return out


def nonzero(
    values: "np.ndarray | Residues", stop: Callable[[np.ndarray], bool] = np.all
) -> np.ndarray:
    """Which entries are nonzero, as a boolean array.

    An entry of :class:`Residues` is nonzero iff some prime leaves a
    nonzero residue.  Primes are read one at a time until their product
    exceeds the bound, or until ``stop(mask)`` holds: ``np.all`` stops
    once every entry is nonzero, ``np.any`` at the first nonzero entry.
    """
    if not isinstance(values, Residues):
        return values != 0
    mask = False
    for p in values.primes(values.bound):
        mask = mask | (values.residue(p, {}) != 0)
        if stop(mask):
            break
    return mask


def integers(values: "np.ndarray | Residues") -> np.ndarray:
    """The exact integer array: int64 as it is, :class:`Residues` by Garner's
    mixed-radix Chinese remaindering.  Its steps are int64; the digits are
    put together in Python ints only when the primes' product reaches
    2^62, and the result is int64 when every entry is below 2^62."""
    if not isinstance(values, Residues):
        return values
    primes = list(values.primes(2 * values.bound))
    digits = []  # x = d_0 + d_1 p_0 + d_2 p_0 p_1 + ..., each d_k in [0, p_k)
    for p in primes:
        known, radix = 0, 1  # the digits so far, and their next place value, modulo p
        for q, digit in zip(primes, digits):
            known = (known + digit * radix) % p
            radix = radix * q % p
        digits.append((values.residue(p, {}) - known) * pow(radix, -1, p) % p)
    modulus = math.prod(primes)
    wide = modulus >= _INT64_SAFE
    x = digits[-1].astype(object) if wide else digits[-1]
    for q, digit in zip(primes[-2::-1], digits[-2::-1]):
        x = x * q + digit
    x = np.where(x > modulus // 2, x - modulus, x)
    return x.astype(np.int64) if wide and _max_abs(x) < _INT64_SAFE else x
