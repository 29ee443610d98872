"""Symmetric-group machinery: permutations, group algebra, Young calculus.

This module implements the representation-theoretic toolkit used to build
and manipulate index-symmetry operators:

* :class:`Permutation` — permutations of ``{1, …, d}`` with the left
  composition convention ``(a ∘ b)(k) = a(b(k))``;
* :class:`GroupAlgebraElement` — finite rational linear combinations of
  permutations, with convolution product, adjoint, and an action on
  tensor slots;
* :class:`YoungFrame` / :class:`YoungTableau` — integer partitions and
  bijective fillings, hook lengths, and irreducible dimensions for both
  the symmetric and general linear groups;
* :func:`young_symmetriser` — the unnormalised row-symmetrise /
  column-antisymmetrise projector attached to a tableau;
* :func:`lr_decompose` — Littlewood–Richardson multiplicities, computed
  by counting lattice-word skew fillings strip by strip.

Whenever an element acts on a tensor, the **rightmost** factor of a
product acts first: ``a.multiply(b).apply(T) == a.apply(b.apply(T))``.
"""

from __future__ import annotations

import ast
import itertools
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._fastops import integer_multiples
from .errors import InvalidArgument
from .tensor import Tensor, _rearrangement_sum, _rearrangements, _slot_axes, as_scalar

__all__ = [
    "Permutation",
    "GroupAlgebraElement",
    "YoungFrame",
    "YoungTableau",
    "young_symmetriser",
    "partitions",
    "lr_decompose",
]


class Permutation:
    """A permutation of ``{1, …, d}`` stored by its image tuple.

    ``images[k-1]`` is the image of ``k``.  Composition is function
    composition, ``(a ∘ b)(k) = a(b(k))``, so in a product the right
    factor is applied first — matching how products of group-algebra
    elements act on tensors.
    """

    __slots__ = ("_images",)

    def __init__(self, images: Sequence[int]) -> None:
        imgs = tuple(int(v) for v in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise InvalidArgument(f"images {imgs} are not a rearrangement of 1..{len(imgs)}")
        self._images = imgs

    @classmethod
    def _of(cls, images: tuple[int, ...]) -> "Permutation":
        """The permutation with these images, known to be a rearrangement."""
        perm = cls.__new__(cls)
        perm._images = images
        return perm

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(1, degree + 1)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles; ``(a, b, c)`` maps a→b, b→c, c→a."""
        images = list(range(1, degree + 1))
        touched: set[int] = set()
        for cycle in cycles:
            cyc = [int(v) for v in cycle]
            if any(v < 1 or v > degree for v in cyc):
                raise InvalidArgument(f"cycle {cyc} exceeds degree {degree}")
            if touched.intersection(cyc) or len(set(cyc)) != len(cyc):
                raise InvalidArgument(f"cycles are not disjoint at {cyc}")
            touched.update(cyc)
            for i, v in enumerate(cyc):
                images[v - 1] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    def __call__(self, k: int) -> int:
        if not 1 <= k <= self.degree:
            raise InvalidArgument(f"{k} outside 1..{self.degree}")
        return self._images[k - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition ``self ∘ other`` (``other`` applied first)."""
        if self.degree != other.degree:
            raise InvalidArgument("cannot compose permutations of different degrees")
        return Permutation._of(tuple(self._images[v - 1] for v in other._images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for k, v in enumerate(self._images, start=1):
            inv[v - 1] = k
        return Permutation._of(tuple(inv))

    def sign(self) -> int:
        """Parity: ``+1`` for even permutations, ``−1`` for odd."""
        # A cycle of length L is L - 1 transpositions.
        return -1 if sum(len(cycle) - 1 for cycle in self.cycles()) % 2 else 1

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self._images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, fixed points omitted, each led by its smallest element."""
        seen: set[int] = set()
        result: list[tuple[int, ...]] = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            node = self(start)
            while node != start:
                cycle.append(node)
                seen.add(node)
                node = self(node)
            if len(cycle) > 1:
                result.append(tuple(cycle))
        return tuple(result)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return f"Permutation.identity({self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
        return f"Permutation[{text}]"


class GroupAlgebraElement:
    """A finite rational linear combination of permutations of fixed degree.

    The ``terms`` mapping sends permutations to non-zero
    :class:`~fractions.Fraction` coefficients.  The product is the group
    convolution; under :meth:`apply`, the right factor of a product acts
    on the tensor first.
    """

    # _applied: the table of the last apply and its key (see apply).
    __slots__ = ("_degree", "_terms", "_applied")

    def __init__(self, degree: int, terms: Mapping[Permutation, object] | None = None) -> None:
        if degree < 1:
            raise InvalidArgument(f"degree must be positive, got {degree}")
        self._degree = int(degree)
        clean: dict[Permutation, Fraction] = {}
        for perm, coeff in (terms or {}).items():
            if perm.degree != self._degree:
                raise InvalidArgument(
                    f"term degree {perm.degree} does not match element degree {self._degree}"
                )
            value = as_scalar(coeff)  # type: ignore[arg-type]
            if value != 0:
                clean[perm] = value
        self._terms = clean
        self._applied = None

    # -- constructors --------------------------------------------------

    @classmethod
    def unit(cls, degree: int) -> "GroupAlgebraElement":
        """The identity permutation with coefficient one."""
        return cls(degree, {Permutation.identity(degree): Fraction(1)})

    @classmethod
    def from_permutation(cls, perm: Permutation, coeff: object = 1) -> "GroupAlgebraElement":
        return cls(perm.degree, {perm: coeff})

    @classmethod
    def symmetriser_over(cls, labels: Iterable[int], degree: int) -> "GroupAlgebraElement":
        """Unnormalised sum of all permutations of ``labels`` (others fixed)."""
        return cls._over(labels, degree, signed=False)

    @classmethod
    def antisymmetriser_over(cls, labels: Iterable[int], degree: int) -> "GroupAlgebraElement":
        """Unnormalised signed sum of all permutations of ``labels``."""
        return cls._over(labels, degree, signed=True)

    @classmethod
    def _over(cls, labels: Iterable[int], degree: int, *, signed: bool) -> "GroupAlgebraElement":
        subset = tuple(int(v) for v in labels)
        if len(set(subset)) != len(subset):
            raise InvalidArgument(f"label group {subset} contains repeats")
        if any(v < 1 or v > degree for v in subset):
            raise InvalidArgument(f"label group {subset} exceeds degree {degree}")
        terms: dict[Permutation, Fraction] = {}
        for arrangement in itertools.permutations(subset):
            images = list(range(1, degree + 1))
            for src, dst in zip(subset, arrangement):
                images[src - 1] = dst
            perm = Permutation(images)
            terms[perm] = Fraction(perm.sign() if signed else 1)
        return cls(degree, terms)

    # -- accessors -----------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def terms(self) -> dict[Permutation, Fraction]:
        """Copy of the coefficient mapping (non-zero terms only)."""
        return dict(self._terms)

    def coefficient(self, perm: Permutation) -> Fraction:
        return self._terms.get(perm, Fraction(0))

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- linear structure ----------------------------------------------

    def _check_degree(self, other: "GroupAlgebraElement") -> None:
        if self._degree != other._degree:
            raise InvalidArgument(
                f"degree mismatch: {self._degree} vs {other._degree}"
            )

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_degree(other)
        merged = dict(self._terms)
        for perm, coeff in other._terms.items():
            merged[perm] = merged.get(perm, Fraction(0)) + coeff
        return GroupAlgebraElement(self._degree, merged)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self._degree, {p: -c for p, c in self._terms.items()})

    def __mul__(self, scalar: object) -> "GroupAlgebraElement":
        if isinstance(scalar, GroupAlgebraElement):
            return NotImplemented
        value = as_scalar(scalar)  # type: ignore[arg-type]
        return GroupAlgebraElement(self._degree, {p: c * value for p, c in self._terms.items()})

    __rmul__ = __mul__

    def multiply(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Convolution product; in ``a.multiply(b)``, ``b`` acts first under apply.

        Coefficients are summed as integers over the product of the two
        factors' common scales, and each composite image tuple is
        built without re-checking that it is a rearrangement.
        """
        self._check_degree(other)
        left, left_scale = _integer_terms(self._terms)
        right, right_scale = _integer_terms(other._terms)
        product: dict[tuple[int, ...], int] = {}
        for p, cp in left:
            for q, cq in right:
                key = tuple([p[v - 1] for v in q])
                product[key] = product.get(key, 0) + cp * cq
        scale = left_scale * right_scale
        element = GroupAlgebraElement.__new__(GroupAlgebraElement)
        element._degree = self._degree
        element._terms = {
            Permutation._of(key): c * scale for key, c in product.items() if c
        }
        element._applied = None
        return element

    def adjoint(self) -> "GroupAlgebraElement":
        """Replace every permutation by its inverse, keeping coefficients."""
        return GroupAlgebraElement(
            self._degree, {p.inverse(): c for p, c in self._terms.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self._degree == other._degree and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"GroupAlgebraElement(degree={self._degree}, terms={len(self._terms)})"

    # -- tensor action -------------------------------------------------

    def apply(
        self,
        tensor: Tensor,
        slot_of_label: Mapping[int, int] | None = None,
    ) -> Tensor:
        """Act on ``tensor`` by permuting slots.

        ``slot_of_label`` assigns each label ``1..degree`` a distinct
        1-based tensor slot; labels default to the first ``degree`` slots.
        A permutation term π moves the content of slot ``m(l)`` around via
        the slot permutation σ with ``σ(m(l)) = m(π(l))``; unassigned
        slots are untouched.  The result is the coefficient-weighted sum
        over all terms, so products act right factor first.

        The sum's table (:func:`~killingtensor.tensor._rearrangements`) is
        built once per tensor order and slot map and kept on the element
        for the next call with the same two.
        """
        mapping = dict(slot_of_label) if slot_of_label is not None else {
            l: l for l in range(1, self._degree + 1)
        }
        if sorted(mapping.keys()) != list(range(1, self._degree + 1)):
            raise InvalidArgument(
                f"slot_of_label must assign every label 1..{self._degree}"
            )
        slots = tuple(mapping[label] for label in range(1, self._degree + 1))
        if len(set(slots)) != len(slots):
            raise InvalidArgument(f"slot_of_label values {list(slots)} are not distinct")
        if any(s < 1 or s > tensor.order for s in slots):
            raise InvalidArgument(
                f"slot_of_label values {list(slots)} exceed tensor order {tensor.order}"
            )
        if not self._terms:
            return Tensor.zeros(tensor.dim, tensor.order)
        key = (tensor.order, slots)
        if self._applied is None or self._applied[0] != key:
            terms = []
            for perm, coeff in self._terms.items():
                images = list(range(1, tensor.order + 1))
                for slot, image in zip(slots, perm._images):
                    images[slot - 1] = slots[image - 1]
                terms.append((coeff, _slot_axes(images)))
            self._applied = (key, _rearrangements(terms))
        return _rearrangement_sum(tensor, self._applied[1])


def _integer_terms(
    terms: Mapping[Permutation, Fraction],
) -> tuple[list[tuple[tuple[int, ...], int]], Fraction]:
    """``(images, k)`` per term, and the common scale ``s`` with every coefficient ``k · s``."""
    multiples, scale = integer_multiples(list(terms.values()))
    return [(p._images, k) for p, k in zip(terms, multiples)], scale


class YoungFrame:
    """An integer partition drawn as left-justified rows of boxes."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[int]) -> None:
        parts = tuple(int(v) for v in rows)
        if not parts or any(v < 1 for v in parts):
            raise InvalidArgument(f"partition parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InvalidArgument(f"partition rows must be weakly decreasing, got {parts}")
        self._rows = parts

    @classmethod
    def from_text(cls, text: str) -> "YoungFrame":
        """Parse ``"(4,2,1)"``, ``"(3,)"``, or ``"[2, 2]"``."""
        try:
            value = ast.literal_eval(text.strip())
        except (ValueError, SyntaxError) as exc:
            raise InvalidArgument(f"cannot parse partition {text!r}") from exc
        if isinstance(value, int):
            value = (value,)
        if not isinstance(value, (tuple, list)):
            raise InvalidArgument(f"cannot parse partition {text!r}")
        return cls(value)

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return sum(self._rows)

    def row_count(self) -> int:
        return len(self._rows)

    def column_lengths(self) -> tuple[int, ...]:
        return tuple(
            sum(1 for r in self._rows if r > c) for c in range(self._rows[0])
        )

    def conjugate(self) -> "YoungFrame":
        """Transpose: rows become columns."""
        return YoungFrame(self.column_lengths())

    def cells(self) -> tuple[tuple[int, int], ...]:
        """All (row, col) cells, 0-based, row-major."""
        return tuple(
            (r, c) for r, length in enumerate(self._rows) for c in range(length)
        )

    def hook_length(self, row: int, col: int) -> int:
        """Arm + leg + 1 for the 0-based cell (row, col)."""
        if not (0 <= row < len(self._rows) and 0 <= col < self._rows[row]):
            raise InvalidArgument(f"cell ({row},{col}) outside frame {self._rows}")
        arm = self._rows[row] - col - 1
        leg = sum(1 for r in range(row + 1, len(self._rows)) if self._rows[r] > col)
        return arm + leg + 1

    def hook_product(self) -> int:
        """Product of all hook lengths."""
        result = 1
        for row, col in self.cells():
            result *= self.hook_length(row, col)
        return result

    def sym_irrep_dim(self) -> int:
        """Dimension of the symmetric-group irreducible: n! / hook product."""
        factorial = 1
        for k in range(2, self.size + 1):
            factorial *= k
        dim, rem = divmod(factorial, self.hook_product())
        assert rem == 0
        return dim

    def gl_irrep_dim(self, space_dim: int) -> int:
        """Dimension of the GL(space_dim) irreducible with this shape.

        Product over cells of ``(space_dim + col − row)`` divided by the
        hook product; zero when the frame has more rows than ``space_dim``.
        """
        if space_dim < 1:
            raise InvalidArgument(f"space dimension must be positive, got {space_dim}")
        numerator = 1
        for row, col in self.cells():
            numerator *= space_dim + col - row
        dim, rem = divmod(numerator, self.hook_product())
        assert rem == 0
        return dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YoungFrame):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"YoungFrame({self._rows})"


class YoungTableau:
    """A Young frame bijectively filled with the labels ``1..n``."""

    __slots__ = ("_frame", "_filling")

    def __init__(self, filling: Iterable[Iterable[int]]) -> None:
        rows = tuple(tuple(int(v) for v in row) for row in filling)
        frame = YoungFrame(tuple(len(row) for row in rows))
        labels = [v for row in rows for v in row]
        if sorted(labels) != list(range(1, frame.size + 1)):
            raise InvalidArgument(
                f"tableau labels must be exactly 1..{frame.size}, got {sorted(labels)}"
            )
        self._frame = frame
        self._filling = rows

    @classmethod
    def from_text(cls, text: str) -> "YoungTableau":
        """Parse ``"[[1,2],[3]]"`` row-list notation."""
        try:
            value = ast.literal_eval(text.strip())
        except (ValueError, SyntaxError) as exc:
            raise InvalidArgument(f"cannot parse tableau {text!r}") from exc
        if not isinstance(value, (list, tuple)):
            raise InvalidArgument(f"cannot parse tableau {text!r}")
        return cls(value)

    @classmethod
    def standard(cls, frame: YoungFrame) -> "YoungTableau":
        """Row-reading filling: labels 1..n left-to-right, top-to-bottom."""
        filling = []
        next_label = 1
        for length in frame.rows:
            filling.append(list(range(next_label, next_label + length)))
            next_label += length
        return cls(filling)

    @property
    def frame(self) -> YoungFrame:
        return self._frame

    @property
    def size(self) -> int:
        return self._frame.size

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._filling

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        cols = []
        for c in range(self._frame.rows[0]):
            cols.append(tuple(row[c] for row in self._filling if len(row) > c))
        return tuple(cols)

    def conjugate(self) -> "YoungTableau":
        """Transposed tableau: the filling of the conjugate frame."""
        return YoungTableau(self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YoungTableau):
            return NotImplemented
        return self._filling == other._filling

    def __hash__(self) -> int:
        return hash(self._filling)

    def __repr__(self) -> str:
        return f"YoungTableau({[list(r) for r in self._filling]})"


def young_symmetriser(tableau: YoungTableau | Iterable[Iterable[int]]) -> GroupAlgebraElement:
    """Unnormalised Young symmetriser of a bijective tableau.

    The element is the product of all row symmetrisers times all column
    antisymmetrisers.  Under :meth:`GroupAlgebraElement.apply`, the
    column antisymmetrisers therefore act on the tensor first.  Squaring
    reproduces the element scaled by the frame's hook product.
    """
    tab = tableau if isinstance(tableau, YoungTableau) else YoungTableau(tableau)
    degree = tab.size
    element = GroupAlgebraElement.unit(degree)
    for row in tab.rows:
        if len(row) > 1:
            element = element.multiply(GroupAlgebraElement.symmetriser_over(row, degree))
    for col in tab.columns:
        if len(col) > 1:
            element = element.multiply(GroupAlgebraElement.antisymmetriser_over(col, degree))
    return element


def partitions(n: int) -> list[YoungFrame]:
    """All partitions of ``n`` in descending lexicographic order."""
    if n < 1:
        raise InvalidArgument(f"partitions requires a positive integer, got {n}")

    def generate(remaining: int, cap: int) -> Iterable[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in generate(remaining - first, first):
                yield (first,) + rest

    return [YoungFrame(p) for p in generate(n, n)]


# -- Littlewood–Richardson --------------------------------------------

# Most partial fillings lr_decompose holds at once: it bounds the memory
# of one query.  (30,20,10) x (20,10,5) peaks at 299 377, every frame pair
# up to 5 boxes at 35; (12,10,8,6,4,2) x (10,8,6,4,2) would pass 2 million.
_LR_MAX_FILLINGS = 350_000
# Most row lengths lr_decompose copies: it bounds the time of one query,
# since each partial filling laid down a row copies the lengths of its
# rows.  (30,20,10) x (20,10,5) copies 11.9 million (6.5 s); two columns
# of k boxes copy about k^4, so 14.9 million at k = 63 (1.2 s), and
# about 1.6 billion at k = 200, about a minute of work.
_LR_MAX_ROWS = 15_000_000


def lr_decompose(frame1: YoungFrame, frame2: YoungFrame) -> dict[YoungFrame, int]:
    """Littlewood–Richardson multiplicities of the product of two shapes.

    The boxes of row k of ``frame2`` are labelled k and added to
    ``frame1`` label by label, each label as a horizontal strip (no two
    equal labels in a column), so that the reverse reading word (rows
    top to bottom, each read right to left) is a lattice word.  The
    returned mapping sends each resulting frame to the number of such
    fillings.

    A row's labels increase weakly left to right, so the word reaches
    the last k of a row before any k - 1 of it.  The word is therefore a
    lattice word exactly when, for every label k > 1 and every row r,
    the k's in the rows up to r are at most the k - 1's in the rows
    above r: a ceiling on each prefix sum of the strip of k's.
    Fillings are counted, not listed: whether a partial filling can be
    completed depends only on its shape and these ceilings, so a strip
    is laid row by row and partial fillings that agree on the rows laid
    so far and on what the rows below need are merged.  Ceilings are
    capped at the size of the next strip, which lets more of them merge.
    Raises InvalidArgument when more than ``_LR_MAX_FILLINGS`` partial
    fillings are live at once, or when laying them copies more than
    ``_LR_MAX_ROWS`` row lengths in all.
    """
    sizes = frame2.rows
    # A filling between strips: (row lengths, ceilings); the last ceiling
    # holds for every later row.
    fillings: Counter[tuple[tuple[int, ...], tuple[int, ...]]] = Counter(
        {(frame1.rows, (sizes[0],)): 1}
    )
    copied = 0
    for size, following in itertools.zip_longest(sizes, sizes[1:], fillvalue=0):
        # A strip laid down to row r: (new lengths of the rows above r,
        # capped prefix sums of the strip, labels placed, old length of
        # row r - 1, old lengths from row r on, ceilings from row r on).
        laid: Counter = Counter()
        for (shape, ceilings), ways in fillings.items():
            laid[(), (0,), 0, shape[0] + size, shape, ceilings] += ways
        fillings = Counter()
        while laid:
            deeper: Counter = Counter()
            for (done, prefix, placed, upper, rest, ceilings), ways in laid.items():
                old = rest[0] if rest else 0
                room = min(upper - old, ceilings[0] - placed, size - placed)
                copied += (room + 1) * (len(done) + max(len(rest), 1))
                if copied > _LR_MAX_ROWS:
                    raise InvalidArgument(
                        f"the Littlewood-Richardson product of {frame1.rows} and {frame2.rows} "
                        f"copies more than {_LR_MAX_ROWS} rows of partial fillings"
                    )
                for here in range(room + 1):
                    total = placed + here
                    lengths = done + (old + here,)
                    sums = prefix + (min(total, following),)
                    if total == size:
                        fillings[lengths + rest[1:], sums[: sums.index(sums[-1]) + 1]] += ways
                    elif rest:
                        deeper[lengths, sums, total, old, rest[1:], ceilings[1:] or ceilings] += ways
                if len(laid) + len(deeper) + len(fillings) > _LR_MAX_FILLINGS:
                    raise InvalidArgument(
                        f"the Littlewood-Richardson product of {frame1.rows} and {frame2.rows} "
                        f"needs more than {_LR_MAX_FILLINGS} partial fillings at once"
                    )
            laid = deeper
    result: Counter[YoungFrame] = Counter()
    for (shape, _), ways in fillings.items():
        result[YoungFrame(shape)] += ways
    return dict(result)
