"""Algebraic integrability conditions on curvature-class tensors.

A valence-two Killing tensor on a constant-sectional-curvature model is
encoded by an algebraic curvature tensor ``R`` (or its symmetric-class
companion ``S``).  Integrability of the Killing tensor is equivalent to
two purely algebraic conditions on that tensor:

* the *first* condition is quadratic: a symmetry operator annihilates
  the contraction ``gbar^{kl} S_{k a2 b1 b2} S_{l c2 d1 d2}`` (or its
  ``R``-counterpart);
* the *second* condition is cubic: a symmetry operator annihilates a
  double contraction of three copies of the tensor.

Each condition admits several operator forms with a common kernel
(:class:`ConditionForm1`, :class:`ConditionForm2`).  The quartic third
residual (:func:`condition3_residual`) vanishes whenever the first two
conditions hold, and :func:`verify_identity_suite` checks a family of
operator identities that hold for *every* valid symmetric-class tensor,
independent of integrability — a failure there signals an
implementation bug, never bad data.

All arithmetic is exact: every operand is a sum of einsum terms over the
integer images the tensors hold, contracted by one guarded engine, and
the final symmetry operator is evaluated only at the residual's
canonical components (orbit sums, with overflow guards).  A residual
has one symmetric and one antisymmetric slot group, either possibly
empty, and its compiled row owns that layout (:class:`_Polar`).  Free
slots spanned by an earlier operator are the group of the kind the
final one lacks, read off the same one contraction, whose shared slot's
index the engine moves (:func:`~killingtensor._fastops.contract_terms`).
A residual that outgrows int64 is carried as residues modulo primes:
verdicts and supports are read from the residues, and only a residual
tensor is rebuilt from them (see :class:`~killingtensor._fastops.Residues`).
"""

from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from ._fastops import (
    Residues,
    contract_terms,
    expand_axis,
    integers,
    nonzero,
    normalize_array,
    transposed_sum,
    weigh_monomials,
    zero_array,
)
from ._linalg import determinant
from .curvature import CurvatureTensor, SymCurvatureTensor, _as_class
from .errors import IdentityViolation, InvalidArgument, UnsupportedForm
from .models import ModelSpace
from .symgroup import GroupAlgebraElement, young_symmetriser
from .tensor import Tensor, _rearrangements

__all__ = [
    "ConditionForm1",
    "ConditionForm2",
    "IntegrabilityReport",
    "condition1_residual",
    "condition2_residual",
    "condition3_residual",
    "verify_identity_suite",
    "check",
]

KillingInput = Union[CurvatureTensor, SymCurvatureTensor]
GbarLike = Union[ModelSpace, Tensor]


class ConditionForm1(enum.Enum):
    """Equivalent operator forms of the first (quadratic) condition.

    All forms share one kernel; they differ in operand layout and in the
    symmetry operator applied:

    * ``MAIN1`` — antisymmetrise the ``R``-quadratic in its four
      second-pair slots.
    * ``YOUNG_A`` — adjoint hook operator (symmetrise three slots, then
      antisymmetrise four overlapping slots) on the ``S``-quadratic.
    * ``SPLIT_B`` — the split variant: symmetriser and antisymmetriser
      on disjoint slot sets.
    * ``ANTI_C`` — the four-slot antisymmetriser alone.
    * ``HOOK_D`` — the hook operator (antisymmetrise first, then
      symmetrise) on the ``S``-quadratic.
    * ``OMEGA`` — vanishing of the wedge square of the curvature
      2-form; defined only when ``gbar`` is non-degenerate (non-flat
      models).
    """

    MAIN1 = "main1"
    YOUNG_A = "young-a"
    SPLIT_B = "split-b"
    ANTI_C = "anti-c"
    HOOK_D = "hook-d"
    OMEGA = "omega"

    @classmethod
    def parse(cls, value: "ConditionForm1 | str") -> "ConditionForm1":
        return _parse_form(cls, value)


class ConditionForm2(enum.Enum):
    """Equivalent operator forms of the second (cubic) condition.

    * ``MAIN2`` — symmetrise the four first-pair slots and
      antisymmetrise the four second-pair slots of the ``R``-cubic.
    * ``KS2_HOOK_YIN`` — adjoint hook operator (five-slot symmetriser,
      then overlapping four-slot antisymmetriser) on the ``S``-cubic.
    * ``KS2_44_BOTH`` — disjoint four-slot symmetriser and four-slot
      antisymmetriser on the ``S``-cubic.

    The equivalence of these forms is guaranteed only for inputs that
    already satisfy the first condition.
    """

    MAIN2 = "main2"
    KS2_HOOK_YIN = "ks2-hook-yin"
    KS2_44_BOTH = "ks2-44-both"

    @classmethod
    def parse(cls, value: "ConditionForm2 | str") -> "ConditionForm2":
        return _parse_form(cls, value)


def _parse_form(cls, value):
    if isinstance(value, cls):
        return value
    if isinstance(value, str):
        key = value.strip().lower().replace("_", "-")
        for member in cls:
            if key == member.value or key == member.name.lower().replace("_", "-"):
                return member
    raise InvalidArgument(
        f"unknown {cls.__name__} {value!r}; expected one of "
        + ", ".join(m.value for m in cls)
    )


def _resolve_gbar(gbar: GbarLike, dim: int) -> Tensor:
    """Accept a model space or an explicit order-2 contraction tensor."""
    if isinstance(gbar, ModelSpace):
        tensor = gbar.gbar()
    elif isinstance(gbar, Tensor):
        tensor = gbar
    else:
        raise InvalidArgument(
            "gbar must be a ModelSpace or an order-2 Tensor, got "
            + type(gbar).__name__
        )
    if tensor.order != 2:
        raise InvalidArgument(f"gbar tensor must have order 2, got {tensor.order}")
    if tensor.dim != dim:
        raise InvalidArgument(
            f"dimension mismatch: input tensor has dim {dim}, gbar has {tensor.dim}"
        )
    return tensor


# ---------------------------------------------------------------------------
# Contraction terms and operator tables.
#
# Each operand is a sum of contraction terms, each an einsum term for
# ``contract_terms``: a two-letter factor is gbar, a four-letter
# factor the input tensor in the form's curvature class.  The comments
# name the output slots after the indices of the defining contraction.
#
# Each form is a row: the curvature class of its four-letter factors,
# its terms, and the sequence of slot operations applied to the operand
# in order: (+1, axes) is an unnormalised symmetrisation over the 0-based
# axes, (−1, axes) an unnormalised antisymmetrisation.  The trailing run
# of operations on mutually disjoint slot groups, at most one of each
# kind, is the residual's support: the finished residual is
# (anti)symmetric over exactly those groups, and only its canonical
# components are computed (``_polar``).
# ---------------------------------------------------------------------------

# gbar^{kl} K_{k b1 a2 b2} K_{l d1 c2 d2}: (b1, a2, b2, d1, c2, d2) for R,
# (a2, b1, b2, c2, d1, d2) for S.
_QUADRATIC = "kl,kabc,ldef->abcdef"
# Wedge square of the curvature 2-form, R_{a}{}^{m}{}_{ij} R_{m b k l} =
# R_{a x i j} gbar^{x m} R_{m b k l} over (a, i, j, b, k, l); defined only
# for a non-degenerate gbar.
_OMEGA = "axbc,xm,mdef->abcdef"
# gbar^{mn} gbar^{pq} R_{m b1 a2 b2} R_{n a1 p c1} R_{q d1 c2 d2}
# over (a1, b1, c1, d1, a2, b2, c2, d2).
_CUBIC_R = "mn,pq,mbef,napc,qdgh->abcdefgh"
# gbar^{mn} gbar^{pq} S_{m c2 d1 d2} S_{n b1 p b2} S_{q f2 e1 e2}
# over (c2, d1, d2, b1, b2, f2, e1, e2); the ks2-* forms and the cubic
# "yang" hook identity.
_CUBIC_S = "mn,pq,mabc,ndpe,qfgh->abcdefgh"
# The variant with the first factor contracted on its outer pair:
# gbar^{mn} gbar^{pq} S_{m p b1 b2} S_{n c2 d1 d2} S_{q f2 e1 e2}
# over (b1, b2, c2, d1, d2, f2, e1, e2).
_CUBIC_S_YIN = "mn,pq,mpab,ncde,qfgh->abcdefgh"
# gbar^{ij} gbar^{kl} gbar^{mn} S_{i k b1 b2} S_{j c2 d1 d2} S_{m f2 e1 e2}
# S_{n l g1 g2} over (b1, b2, c2, d1, d2, f2, e1, e2, g1, g2), and the
# variant with the first pair of factors S_{i c2 b1 b2} S_{j d1 k d2}.
# Both greedy paths build gbar^{kl} gbar^{mn} S_{m f2 e1 e2} S_{n l g1 g2}
# the same way, so the two terms share that polarised product.
_QUARTIC_YIN = "pq,rs,tu,prab,qcde,tfgh,usij->abcdefghij"
_QUARTIC_YANG = "pq,rs,tu,pcab,qdre,usij,tfgh->abcdefghij"

_Ops = tuple[tuple[int, tuple[int, ...]], ...]
_Scaled = tuple[np.ndarray, Fraction]

# Each row: (curvature class of the four-letter factors, terms, slot
# operations).
_Form = tuple[type, tuple[str, ...], _Ops]
_R, _S = CurvatureTensor, SymCurvatureTensor
_COND1_FORMS = {
    ConditionForm1.MAIN1: (_R, (_QUADRATIC,), ((-1, (1, 2, 4, 5)),)),
    # The four form slots (i, j, k, l).
    ConditionForm1.OMEGA: (_R, (_OMEGA,), ((-1, (1, 2, 4, 5)),)),
    ConditionForm1.YOUNG_A: (_S, (_QUADRATIC,), ((1, (2, 1, 4)), (-1, (2, 3, 5, 0)))),
    ConditionForm1.SPLIT_B: (_S, (_QUADRATIC,), ((1, (2, 1, 4)), (-1, (3, 5, 0)))),
    ConditionForm1.ANTI_C: (_S, (_QUADRATIC,), ((-1, (2, 3, 5, 0)),)),
    ConditionForm1.HOOK_D: (_S, (_QUADRATIC,), ((-1, (2, 3, 5, 0)), (1, (2, 1, 4)))),
}
_COND2_FORMS = {
    ConditionForm2.MAIN2: (_R, (_CUBIC_R,), ((-1, (4, 5, 6, 7)), (1, (0, 1, 2, 3)))),
    ConditionForm2.KS2_HOOK_YIN: (_S, (_CUBIC_S,), ((1, (4, 3, 1, 6, 7)), (-1, (4, 0, 2, 5)))),
    # The same operand read as (c2, d1, d2, e1, e2, f2, b1, b2).
    ConditionForm2.KS2_44_BOTH: (_S, (_CUBIC_S,), ((1, (6, 1, 3, 4)), (-1, (7, 0, 2, 5)))),
}
_COND3_FORM = (_S, (_QUARTIC_YIN, _QUARTIC_YANG), ((1, (1, 0, 3, 6, 7, 8, 9)), (-1, (2, 4, 5))))


class _Polar(NamedTuple):
    """A row compiled to polarised terms (see :func:`_polar`), and its
    residual's layout: the residual is symmetric over ``sym`` and
    antisymmetric over ``anti`` (sorted axes, either possibly empty), and
    ``free`` is the sign of the group that holds the free slots, if one
    does.  Then ``pivot`` is the shared slot's position in the larger of
    its two groups; the engine moves that slot's index after the sum."""

    terms: tuple[tuple[str, tuple[int, ...]], ...]  # (term, operand per factor)
    sym: tuple[int, ...]
    anti: tuple[int, ...]
    free: int  # +1 (sym), -1 (anti) or 0
    pivot: int
    order: int
    longest_anti: int  # the most slots an operator of the row antisymmetrises

    @property
    def slots(self) -> tuple[int, ...]:
        """The axes in layout order: ``sym``, ``anti``, then the others."""
        return self.sym + self.anti + tuple(a for a in range(self.order) if a not in self.sym + self.anti)

    def shape(self, dim: int) -> tuple[int, ...]:
        """The canonical components' shape: ``sym``'s monomials, ``anti``'s
        increasing tuples (size 1 for an empty group), ``dim`` per other slot."""
        s, a = len(self.sym), len(self.anti)
        return (math.comb(dim + s - 1, s), math.comb(dim, a)) + (dim,) * (self.order - s - a)


@dataclass(frozen=True)
class _Residual:
    """Canonical components of ``scale *`` the residual of ``polar``, laid
    out as :meth:`_Polar.shape` says: an int64 array, or :class:`Residues`
    once the residual outgrew int64.  A group of free slots is weighed and
    expanded as a final group is; only :meth:`support` counts each of its
    components at every index tuple of the group, as the dense residual
    holds it there.
    """

    contracted: "np.ndarray | Residues"
    scale: Fraction
    dim: int
    polar: _Polar

    def support(self) -> int:
        """Number of nonzero components: one for each canonical tuple of
        the final group and index tuple of the other slots."""
        mask, polar = nonzero(self.contracted), self.polar
        # An all-zero mask, possibly empty, counts 0 without the gather.
        if polar.free and mask.any():
            anti = polar.free < 0
            mask = mask.reshape(polar.shape(self.dim)).astype(np.int8)
            mask = expand_axis(mask, int(anti), self.dim, len(polar.anti if anti else polar.sym), anti=anti)
        return int(np.count_nonzero(mask))

    def is_zero(self) -> bool:
        return not nonzero(self.contracted, np.any).any()

    def tensor(self) -> Tensor:
        """The dense residual: ``sign(J) * alpha! * value`` at each index
        tuple ``J`` of every canonical tuple.

        The weighted components are content-reduced before they are
        expanded, and the expansion only gathers and signs them, which
        keeps the image canonical (:meth:`Tensor._canonical`).  A zero
        residual is :meth:`Tensor.zeros`, which holds no array.
        """
        polar, dim = self.polar, self.dim
        values = integers(self.contracted)
        if not np.count_nonzero(values):
            return Tensor.zeros(dim, polar.order)
        arr = weigh_monomials(values.reshape(polar.shape(dim)), dim, len(polar.sym))
        arr, scale = normalize_array(arr, self.scale)
        arr = expand_axis(arr, 0, dim, len(polar.sym), anti=False)
        arr = expand_axis(arr, 1, dim, len(polar.anti), anti=True)
        arr = arr.reshape((dim,) * polar.order).transpose(np.argsort(polar.slots))
        return Tensor._canonical(arr, scale, dim)


@functools.lru_cache(maxsize=64)
def _polar(terms: tuple[str, ...], ops: _Ops) -> _Polar:
    """Compile a row's operator into one contraction per term.

    The final groups, at most one symmetric group G and one
    antisymmetric group F, are read polarised: x goes into every slot of
    G, and F's slots stay indices, read at increasing tuples.  The
    coefficient of x^alpha at F's tuple I is the residual's canonical
    component there (its orbit sum).  A row with two final groups of one
    kind is refused (``ValueError``).  At most one earlier operator P may
    share one slot s with a final group; the other slots of P are then
    exactly the residual's free slots, and they become the residual's
    group of the kind the final groups lack.  Each term is then
    contracted once, and the engine moves the index at s between the
    monomial axis and the tuple axis of the sum (``contract_terms``).

    * P symmetric, s in F (young-a, ks2-hook-yin).  The residual is
      symmetric in P - {s}, so x goes there too.  Contract g with x in
      all of P and F - {s} alternated.  Sym_P A with index i at s and x
      in the rest of P is (|P| - 1)! times the sum over t in P of A with
      i at t and x in the others, and the component is that sum, the
      repeats divided out.  The sum is the derivative of g along e_i,
      whose coefficient of x^alpha is (alpha_i + 1) g[alpha + e_i].
      Alternating over F
      puts each I_k of the tuple I at s, with the sign (-1)^(k - pivot)
      of moving it to s's position ``pivot`` in F: the component at
      (alpha, I) is the sum over k of that sign times (alpha_{I_k} + 1)
      g[alpha + e_{I_k}, I - {I_k}].
    * P antisymmetric, s in G (hook-d and the hook checks).  Contract h
      with x in G - {s} and all of P alternated, P read with s at its
      position ``pivot``.  Anti_P A with x at s and I on P - {s} is h
      times x: putting x = sum over v of x_v e_v into s, the component
      at (alpha, I) is the sum over the v not in I with alpha_v >= 1 of
      h[alpha - e_v, I + {v}], signed as the sorting of P's tuple with v
      at s and I in the other slots (zero where v lies in I).

      So a component whose monomial x^alpha uses only indices of I has
      no term of the sum: it is zero for every input (hook-d at N = 4:
      40 of its 80 components).

    A compiled term names the operand of each factor: 0 (gbar) for two
    letters, 1 (curvature) for four.
    """
    order = len(terms[0].split("->")[1])
    start, used = len(ops), set()
    while start and used.isdisjoint(ops[start - 1][1]):
        start -= 1
        used.update(ops[start][1])
    sym, anti = ([tuple(sorted(axes)) for sign, axes in ops[start:] if sign == kind] for kind in (1, -1))
    if len(sym) > 1 or len(anti) > 1:
        raise ValueError(f"unsupported operator sequence {ops}: two final groups of one kind")
    (sym,), (anti,), free = sym or [()], anti or [()], 0
    x, group, pivot = sym, anti, 0  # the slots each term polarises and alternates
    if start:
        ((free, axes),) = ops[:start]
        (s,) = used.intersection(axes)
        rest = tuple(axis for axis in range(order) if axis not in used)
        if sorted(set(axes) - {s}) != list(rest) or bool(sym) == bool(anti) or (free > 0) != bool(anti):
            raise ValueError(f"unsupported operator sequence {ops}")
        if free > 0:
            sym, x, group, pivot = rest, tuple(sorted(axes)), tuple(a for a in anti if a != s), anti.index(s)
        else:
            anti, x, group = rest, tuple(a for a in sym if a != s), tuple(sorted(axes))
            pivot = group.index(s)
    longest = max((len(axes) for sign, axes in ops if sign < 0), default=0)
    index = group + tuple(axis for axis in range(order) if axis not in x + group)
    compiled = []
    for term in terms:
        inputs, output = term.split("->")
        marked = {output[axis] for axis in x}
        factors = "".join("*" if c in marked else c for c in inputs)
        operands = tuple(int(len(factor) == 4) for factor in inputs.split(","))
        compiled.append((factors + "->" + "".join(output[a] for a in index), operands))
    return _Polar(tuple(compiled), sym, anti, free, pivot, order, longest)


def _image(tensor: Tensor) -> _Scaled:
    return tensor._ints, tensor._scale


def _residual(polar: _Polar, gbar: _Scaled, curvature: _Scaled, memo: dict) -> _Residual:
    """Canonical components of a compiled row on these integer images."""
    dim = gbar[0].shape[0]
    if polar.longest_anti > dim:
        # An antisymmetriser over more slots than the dimension is zero.
        return _Residual(zero_array(polar.shape(dim)), Fraction(1), dim, polar)
    operands = (gbar, curvature)
    terms = [(1, term, [operands[k] for k in picks]) for term, picks in polar.terms]
    # The terms alternate anti less the shared slot (free +1) or with it
    # (free -1), whose index the engine then moves.
    move = (dim, len(polar.sym), len(polar.anti), polar.pivot, polar.free) if polar.free else None
    values, scale = contract_terms(terms, memo, len(polar.anti) - polar.free, move)
    return _Residual(values, scale, dim, polar)


def _evaluate(K: KillingInput, gbar: GbarLike, *forms: _Form) -> list[_Residual]:
    """Residuals of ``forms``, contracted over the integer images of gbar
    and of ``K`` in each curvature class the forms use."""
    curvature = {}
    for cls, _, _ in forms:
        if cls not in curvature:
            curvature[cls] = _image(_as_class(K, cls).tensor)
    g = _resolve_gbar(gbar, K.dim)
    g_scaled = _image(g)
    residuals = []
    memo: dict = {}
    for cls, terms, ops in forms:
        if _OMEGA in terms and determinant(g._ints.tolist()) == 0:
            raise UnsupportedForm(
                "the wedge-square form requires a non-degenerate gbar "
                "(it is unavailable on flat models)"
            )
        residuals.append(_residual(_polar(terms, ops), g_scaled, curvature[cls], memo))
    return residuals


# ---------------------------------------------------------------------------
# Public residuals.
# ---------------------------------------------------------------------------


def condition1_residual(
    K: KillingInput,
    gbar: GbarLike,
    form: "ConditionForm1 | str" = ConditionForm1.MAIN1,
) -> Tensor:
    """Exact residual of the first integrability condition.

    ``K`` may be given in either curvature class; ``gbar`` is a model
    space or the order-2 contraction tensor itself.  The returned tensor
    is zero exactly when the condition holds in the requested ``form``.

    Raises :class:`UnsupportedForm` if ``form`` is ``OMEGA`` and
    ``gbar`` is degenerate (flat model).
    """
    return _evaluate(K, gbar, _COND1_FORMS[ConditionForm1.parse(form)])[0].tensor()


def condition2_residual(
    K: KillingInput,
    gbar: GbarLike,
    form: "ConditionForm2 | str" = ConditionForm2.MAIN2,
) -> Tensor:
    """Exact residual of the second integrability condition.

    The different forms are guaranteed to share their kernel only on
    inputs that already satisfy the first condition; :func:`check`
    attaches a warning to its report in the contrary case.
    """
    return _evaluate(K, gbar, _COND2_FORMS[ConditionForm2.parse(form)])[0].tensor()


def condition3_residual(K: KillingInput, gbar: GbarLike) -> Tensor:
    """Exact residual of the quartic third condition.

    The residual has ten free slots: a seven-slot symmetriser and a
    disjoint three-slot antisymmetriser act on a two-term contraction of
    four copies of the symmetric-class tensor.  It vanishes on every
    input satisfying the first two conditions.
    """
    return _evaluate(K, gbar, _COND3_FORM)[0].tensor()


def condition3_holds(K: KillingInput, gbar: GbarLike) -> bool:
    """Whether the third condition's residual vanishes, read from its
    canonical components: the dense residual is never built."""
    return _evaluate(K, gbar, _COND3_FORM)[0].is_zero()


# ---------------------------------------------------------------------------
# Unconditional identity suite.
# ---------------------------------------------------------------------------

# Hook operators with a shared slot annihilate every quadratic, cubic and
# quartic operand of a valid S: (name, term, operator sequence).
_QUARTIC_HOOK: _Ops = ((-1, (2, 4, 5)), (1, (2, 1, 0, 3, 6, 7, 8, 9)))
_HOOK_CHECKS: tuple[tuple[str, str, _Ops], ...] = (
    # (a2, b1, b2, c2, d1, d2): Anti(c2, d2, a2), then Sym(c2, b2, b1, d1).
    ("hook_4_1_1_on_quadratic", _QUADRATIC, ((-1, (3, 5, 0)), (1, (3, 2, 1, 4)))),
    ("hook_6_1_1_on_cubic_yin", _CUBIC_S_YIN, ((-1, (2, 4, 5)), (1, (2, 1, 0, 3, 6, 7)))),
    # (c2, b1, b2, d1, d2, f2, e1, e2)
    ("hook_6_1_1_on_cubic_yang", _CUBIC_S, ((-1, (0, 4, 5)), (1, (0, 2, 1, 3, 6, 7)))),
    ("hook_8_1_1_on_quartic_yin", _QUARTIC_YIN, _QUARTIC_HOOK),
    ("hook_8_1_1_on_quartic_yang", _QUARTIC_YANG, _QUARTIC_HOOK),
)
_IDENTITY_CHECKS = (
    "symmetrised_bianchi",
    *(name for name, _, _ in _HOOK_CHECKS),
    "projector_decomposition",
)


# Symmetrising the cyclic-sum identity in the last two slots:
# Sym_{23}(S_{i a2 b1 b2} + 2 S_{i b1 b2 a2}) = 0, as np.transpose axes.
_BIANCHI = _rearrangements(((1, (0, 1, 2, 3)), (1, (0, 1, 3, 2)), (2, (0, 3, 1, 2)), (2, (0, 3, 2, 1))))


@functools.cache
def _projector_sum() -> GroupAlgebraElement:
    """The two-projector resolution of (antisymmetriser x symmetriser).

    With labels 1..6 on slots (a2, b1, b2, c2, d1, d2):
    ``288 * Anti(c2,d2,a2) Sym(b2,b1,d1) = t1 t1* + t2* t2`` where
    ``t1`` is the Young symmetriser of the hook tableau with row
    (b2, b1, d1) and column (b2, c2, d2, a2), and ``t2`` the one with
    row (c2, b2, b1, d1) and column (c2, d2, a2).  The equality holds
    term for term in the group algebra of S_6, so for every N and every
    tensor, and the identity suite compares it there with
    :func:`_projector_product`.
    """
    t1 = young_symmetriser([[3, 2, 5], [4], [6], [1]])
    t2 = young_symmetriser([[4, 3, 2, 5], [6], [1]])
    return t1.multiply(t1.adjoint()) + t2.adjoint().multiply(t2)


@functools.cache
def _projector_product() -> GroupAlgebraElement:
    """``288 * Anti(c2,d2,a2) Sym(b2,b1,d1)``, the left side of
    :func:`_projector_sum`'s resolution, with the same labels."""
    anti = GroupAlgebraElement.antisymmetriser_over((1, 4, 6), 6)
    return 288 * anti.multiply(GroupAlgebraElement.symmetriser_over((2, 3, 5), 6))


def verify_identity_suite(
    S: "SymCurvatureTensor | Tensor",
    gbar: GbarLike,
    *,
    rng=0,
) -> tuple[str, ...]:
    """Check operator identities that hold for every valid ``S``.

    Runs, in order: the symmetrised cyclic-sum identity; the vanishing
    of the overlapping hook operators on the quadratic, cubic (both
    variants) and quartic (both terms) contractions; and the projector
    decomposition of (antisymmetriser x symmetriser).  The cyclic-sum
    check zero-tests the integer sum of ``S``'s rearranged image.  The
    projector decomposition is an identity in the group algebra of S_6
    with no input, so it is compared there, term for term
    (:func:`_projector_sum`, :func:`_projector_product`).  A tensor
    sample cannot certify it: S_6 acts faithfully on order-6 tensors
    only from N = 6 on, and on a sample of the operator's own symmetry
    type both sides of the right identity are fixed multiples of the
    sample, so such a check sees one weighted sum of coefficients.
    ``rng`` is kept so that existing callers work; the suite draws
    nothing from it.

    Each hook check is one contraction, with ``x`` in its symmetric
    group less the slot it shares with the antisymmetriser, times ``x``
    (:func:`_polar`); the five share their polarised factors and common
    sub-products through one memo, 13 contraction steps in all at every
    N from 3 on.  No compiled factor holds ``x`` in three slots of one
    ``S``, which the cyclic identity would make zero.

    Returns the tuple of passed check names.  Raises
    :class:`IdentityViolation` naming the first failing check — such a
    failure indicates an implementation bug, not bad input data.
    Invalid ``S`` (symmetry or cyclic-sum violations) raises
    :class:`InvalidArgument` before any identity runs.
    """
    tensor = S.tensor if isinstance(S, SymCurvatureTensor) else S
    if not isinstance(tensor, Tensor) or tensor.order != 4:
        raise InvalidArgument("identity suite requires an order-4 tensor")
    S = SymCurvatureTensor(tensor)  # precondition gate, re-validates
    g = _resolve_gbar(gbar, S.dim)

    def require(name: str, ok: bool) -> None:
        if not ok:
            raise IdentityViolation(f"identity check failed: {name}")

    # The sum is zero exactly when its integer image is: no Tensor is built.
    bianchi = transposed_sum(S.tensor._ints, _BIANCHI.axes, _BIANCHI.multiples)
    require("symmetrised_bianchi", not np.count_nonzero(bianchi))

    # The hook checks share their polarised factors and common sub-products.
    s_scaled, g_scaled = _image(S.tensor), _image(g)
    memo: dict = {}
    for name, term, ops in _HOOK_CHECKS:
        require(name, _residual(_polar((term,), ops), g_scaled, s_scaled, memo).is_zero())

    # Compared on every call, so that a faulty projector sum still fails.
    require("projector_decomposition", _projector_sum() == _projector_product())

    return _IDENTITY_CHECKS


# ---------------------------------------------------------------------------
# Verdict report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrabilityReport:
    """Exact verdicts and residual supports for one input tensor."""

    model_kind: str
    signature: "tuple[int, int] | None"
    dim: int
    cond1_zero: bool
    cond2_zero: bool
    cond1_support: int
    cond2_support: int
    forms_used: tuple[str, str]
    warnings: tuple[str, ...]
    elapsed_seconds: float

    @property
    def integrable(self) -> bool:
        return self.cond1_zero and self.cond2_zero

    @property
    def residual_supports(self) -> dict[str, int]:
        """Nonzero canonical components per condition."""
        return {"condition1": self.cond1_support, "condition2": self.cond2_support}


def check(
    K: KillingInput,
    model: GbarLike,
    form1: "ConditionForm1 | str" = ConditionForm1.MAIN1,
    form2: "ConditionForm2 | str" = ConditionForm2.MAIN2,
) -> IntegrabilityReport:
    """Decide integrability of the Killing tensor encoded by ``K``.

    Evaluates the first- and second-condition residuals in the requested
    forms against the model's contraction tensor.  The verdict
    ``report.integrable`` is exact.  When the first condition fails, a
    warning records that the second-condition forms are then not
    guaranteed to agree with each other.
    """
    form1 = ConditionForm1.parse(form1)
    form2 = ConditionForm2.parse(form2)
    start = time.perf_counter()
    res1, res2 = _evaluate(K, model, _COND1_FORMS[form1], _COND2_FORMS[form2])
    cond1_support, cond2_support = res1.support(), res2.support()
    elapsed = time.perf_counter() - start

    dim = K.dim
    cond1_zero = cond1_support == 0
    cond2_zero = cond2_support == 0
    warnings: tuple[str, ...] = ()
    if not cond1_zero:
        warnings = (
            "first condition residual is nonzero; the second-condition "
            "forms are only guaranteed equivalent when the first "
            "condition holds",
        )

    if isinstance(model, ModelSpace):
        model_kind = model.kind.value
        signature = (model.signature.p, model.signature.q)
    else:
        model_kind = "custom"
        signature = None

    return IntegrabilityReport(
        model_kind=model_kind,
        signature=signature,
        dim=dim,
        cond1_zero=cond1_zero,
        cond2_zero=cond2_zero,
        cond1_support=cond1_support,
        cond2_support=cond2_support,
        forms_used=(form1.value, form2.value),
        warnings=warnings,
        elapsed_seconds=elapsed,
    )
