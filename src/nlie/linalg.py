"""Exact linear algebra over the rationals.

Vectors are sparse ``{column: entry}`` dicts holding only nonzero entries,
with int or Fraction entries; dense sequences are accepted as input and
converted.  All arithmetic is exact; nothing here ever rounds.

A :class:`Subspace` is stored as primitive integer rows keyed by pivot:
content 1, positive at the row's own pivot and 0 at every other pivot.
That form is unique, so subspace equality is plain data comparison.
:class:`SpanBuilder` keeps primitive rows in semi-echelon form (distinct
first columns, other entries unreduced) and back-substitutes them into
that form once, when its subspace is read.  Every step is one integer
cross-multiplication, :func:`_clear`, fraction-free in the manner of
Bareiss (Math. Comp. 22, 1968); :func:`_clear_pivots` is a single pass of
them against reduced rows, shared by :meth:`SpanBuilder.subspace` and
:meth:`Subspace.reduce`.  Fractions are built only at the output boundary:
an input vector is scaled to integers once on entry,
:attr:`Subspace.basis` divides each row by its pivot entry, and
:meth:`Subspace.reduce` divides its remainder once by the product of the
factors it scaled by.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from collections.abc import Iterable, Mapping, Sequence
from typing import Union

Vector = tuple[Fraction, ...]
SparseVector = dict[int, Fraction]
VectorLike = Union[Sequence, Mapping[int, Fraction]]

_F0 = Fraction(0)
_F1 = Fraction(1)
_SMALL = {i: Fraction(i) for i in range(-64, 65) if i}


class AmbientMismatchError(ValueError):
    """Operands live in coordinate spaces of different dimensions."""


class InclusionError(ValueError):
    """A quotient was requested for subspaces that are not nested."""


def zero_vector(length: int) -> Vector:
    return (_F0,) * length


def unit_vector(length: int, index: int) -> Vector:
    return tuple(_F1 if i == index else _F0 for i in range(length))


def _entries(vec: VectorLike, length: int | None = None) -> Iterable[tuple[int, object]]:
    """The (index, entry) pairs of a sparse or dense ``vec``, zeros included;
    a dense ``vec`` must have ``length`` entries when that is given."""
    if type(vec) is dict or isinstance(vec, Mapping):
        return vec.items()
    if length is not None and len(vec) != length:
        raise AmbientMismatchError(f"expected vector of length {length}, got {len(vec)}")
    return enumerate(vec)


def _axpy(v: SparseVector, c: Fraction, row: Mapping[int, Fraction]) -> None:
    """``v += c * row`` in place, dropping entries that cancel; ``c`` and the
    entries of ``row`` are nonzero."""
    for col, val in row.items():
        nv = v.get(col, _F0) + c * val
        if nv:
            v[col] = nv
        else:
            del v[col]


def _integral(vec: VectorLike, length: int | None = None) -> tuple[dict[int, int], int]:
    """``(row, den)``: a fresh sparse integer ``row`` equal to ``den`` times
    ``vec``, where ``den`` is the least common denominator of its entries, so
    integer entries pass through unchanged with ``den`` 1."""
    out: dict[int, int] = {}
    dens: dict[int, int] = {}
    for i, c in _entries(vec, length):
        if c:
            if type(c) is not int:
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c.denominator != 1:
                    dens[i] = c.denominator
                c = c.numerator
            out[i] = c
    if not dens:
        return out, 1
    den = lcm(*dens.values())
    for i in out:
        out[i] *= den // dens.get(i, 1)
    return out, den


def _clear(v: dict[int, int], p: int, row: Mapping[int, int]) -> int:
    """Cancel column ``p`` of the integer vector ``v`` in place by the
    cross-multiplication v = a v - (v[p]/g) row, a = row[p]/g, g = gcd(row[p],
    v[p]), dropping entries that cancel, and return ``a``.  Where ``row`` is
    0, ``v`` is only scaled by ``a``, which is positive when row[p] > 0."""
    rp, vp = row[p], v[p]
    g = gcd(rp, vp)
    a, b = rp // g, vp // g
    if a != 1:
        for col in v:
            v[col] *= a
    for col, val in row.items():
        nv = v.get(col, 0) - b * val
        if nv:
            v[col] = nv
        else:
            del v[col]
    return a


def _clear_pivots(v: dict[int, int], rows: Mapping[int, Mapping[int, int]]) -> int:
    """Reduce the integer vector ``v`` in place against the rows of a
    :class:`Subspace` (pivot -> row), so that it is 0 at every pivot, and
    return the product s of the factors it was scaled by: ``v`` ends as s
    times the exact remainder of the vector it started as.

    Each row is 0 at every other row's pivot, so clearing one pivot of ``v``
    only scales its other pivot entries, and a single pass over the pivots
    present in ``v`` clears them all."""
    scale = 1
    for p in [col for col in v if col in rows]:
        scale *= _clear(v, p, rows[p])
    return scale


def _make_primitive(v: dict[int, int], p: int) -> None:
    """Divide ``v`` in place by its content, signed so that v[p] > 0."""
    g = gcd(*v.values())
    if v[p] < 0:
        g = -g
    if g != 1:
        for col in v:
            v[col] //= g


def _divided(row: Mapping[int, int], den: int) -> SparseVector:
    """The integer ``row`` divided by the positive ``den``, as Fractions.
    Almost every pivot entry is 1 with small entries in its row, which
    share the Fractions of ``_SMALL``."""
    if den == 1:
        small = _SMALL
        return {col: small.get(x) or Fraction(x) for col, x in row.items()}
    return {col: Fraction(x, den) for col, x in row.items()}


class SpanBuilder:
    """Incremental row-space accumulator (sparse, exact, fraction-free).  A
    rational input vector is scaled once, on entry, to an integer vector.

    ``rows`` (first column -> row) is a basis of the span in semi-echelon
    form: every row is primitive and positive at its first column, and no
    two rows share a first column.  An insert adds at most one row and never
    changes a stored one; :meth:`subspace` back-substitutes once."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, vec: VectorLike, owned: bool = False) -> bool:
        """Add ``vec`` to the span; True iff the dimension grew.  Only the
        leading column of ``vec`` is cleared, again and again, until it is
        no row's first column; what is left is stored, made primitive.

        ``vec`` itself is left as it is, unless ``owned`` is true: then it
        must be a sparse integer dict with no zero entry and every column
        in range(ambient), and the builder takes it over with no copy or
        check, clearing it in place and maybe storing it."""
        rows = self.rows
        v = vec if owned else _integral(vec)[0]
        while v and (p := min(v)) in rows:
            _clear(v, p, rows[p])
        if not v:
            return False
        if not owned and (p < 0 or max(v) >= self.ambient):
            raise AmbientMismatchError(
                f"coordinates {p}..{max(v)} not all in range({self.ambient})"
            )
        _make_primitive(v, p)
        rows[p] = v
        return True

    def subspace(self) -> "Subspace":
        """The span so far in :class:`Subspace` form: each row, in decreasing
        order of first column, is cleared against the rows after it, which
        are in that form by then (every other row starts left of all its
        entries), and made primitive again.  That happens in place and the
        subspace shares the rows, so an insert followed by a second call
        changes them."""
        rows = self.rows
        for p in sorted(rows, reverse=True):
            row = rows.pop(p)
            _clear_pivots(row, rows)
            _make_primitive(row, p)
            rows[p] = row
        return Subspace(self.ambient, dict(reversed(rows.items())))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient_dim, canonically represented by its primitive
    integer ``rows`` (pivot -> row): content 1, positive at the row's own
    pivot (its first column) and 0 at every other pivot.  That form is
    unique, so equality of the data is equality of subspaces.  The rows are
    shared, never copied, and must not be mutated.  ``pivots`` and the
    reduced row-echelon ``basis`` over Q (each row divided by its pivot
    entry) are built on first read."""

    ambient_dim: int
    rows: dict[int, dict[int, int]]

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.pivots))

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    @cached_property
    def basis(self) -> tuple[SparseVector, ...]:
        rows = self.rows
        return tuple(_divided(rows[p], rows[p][p]) for p in self.pivots)

    @classmethod
    def from_vectors(cls, vectors: Iterable[VectorLike], ambient_dim: int) -> "Subspace":
        builder = SpanBuilder(ambient_dim)
        for vec in vectors:
            builder.insert(vec)
        return builder.subspace()

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, {})

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, {i: {i: 1} for i in range(ambient_dim)})

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: VectorLike) -> SparseVector:
        """Remainder of ``vec`` modulo the subspace: the vector of vec + U
        that is 0 at every pivot, as a sparse dict of Fractions.  ``vec`` is
        scaled to integers, cleared by :func:`_clear_pivots` and divided
        once by the product of the factors it was scaled by."""
        v, den = _integral(vec, self.ambient_dim)
        return _divided(v, den * _clear_pivots(v, self.rows))

    def contains_vector(self, vec: VectorLike) -> bool:
        return not self.reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError("ambient dimensions differ")
        return all(self.contains_vector(row) for row in other.rows.values())

    def complement_coords(self) -> tuple[int, ...]:
        """Coordinates not used as pivots; the corresponding unit vectors
        span a complement of this subspace."""
        return tuple(c for c in range(self.ambient_dim) if c not in self.rows)


def annihilator(space: Subspace) -> list[dict]:
    """A basis of the linear forms that vanish on ``space``: for each
    non-pivot column q, e_q - sum_p (r_p[q] / r_p[p]) e_p over the rows r_p.
    A row is 0 at every other pivot, so the form vanishes on r_p, and q is
    its only non-pivot column, so the forms are independent.  Read off the
    rows in one pass, with int entries where r_p[p] is 1."""
    rows = space.rows
    forms = {q: {q: 1} for q in range(space.ambient_dim) if q not in rows}
    for p, row in rows.items():
        for q, x in row.items():
            if q != p:
                forms[q][p] = -x if row[p] == 1 else Fraction(-x, row[p])
    return list(forms.values())


def _upper_block(vectors: Iterable[VectorLike], split: int, width: int) -> Subspace:
    """Span ``vectors`` in F^(split + width) and keep the part of the span
    that vanishes below ``split``, shifted down into F^width.

    The builder's rows have distinct first columns, so a combination of them
    vanishes below ``split`` only if every row in it does: the rows with a
    first column at or past ``split`` are a basis of that part, and only
    they are re-spanned."""
    builder = SpanBuilder(split + width)
    for vec in vectors:
        builder.insert(vec)
    return Subspace.from_vectors((
        {col - split: x for col, x in row.items()}
        for p, row in builder.rows.items() if p >= split
    ), width)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatchError("ambient dimensions differ")
    return Subspace.from_vectors([*u.rows.values(), *v.rows.values()], u.ambient_dim)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection by Zassenhaus elimination: the span of (x | x) for x in
    u and (y | 0) for y in v meets 0 + F^n exactly in 0 + (u /\\ v)."""
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatchError("ambient dimensions differ")
    n = u.ambient_dim
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(n)
    doubled = [{**x, **{n + col: c for col, c in x.items()}} for x in u.rows.values()]
    return _upper_block(doubled + list(v.rows.values()), n, n)


def subspace_member(u: Subspace, vec: VectorLike) -> bool:
    if not isinstance(vec, Mapping) and len(tuple(vec)) != u.ambient_dim:
        raise AmbientMismatchError("vector length differs from ambient dimension")
    return u.contains_vector(vec)


def quotient_dim(u: Subspace, v: Subspace) -> int:
    """dim(u/v); requires v to be contained in u."""
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatchError("ambient dimensions differ")
    if not u.contains_subspace(v):
        raise InclusionError("quotient requested but the second subspace is not contained in the first")
    return u.dim - v.dim


def left_kernel(rows: Sequence[VectorLike], ncols: int) -> Subspace:
    """The space of row vectors x with x . M = 0, for M given by ``rows``.

    The result lives in F^len(rows); it is read off the augmented rows
    (row_i | e_i) whose echelon pivot falls in the identity block.  A sparse
    row with a column outside range(ncols) would land in that block, so it
    is rejected.
    """
    n = len(rows)
    if n == 0:
        return Subspace.zero(0)
    augmented = []
    for i, row in enumerate(rows):
        entries = dict(_entries(row, ncols))
        if entries and (min(entries) < 0 or max(entries) >= ncols):
            raise AmbientMismatchError(f"row {i} has a column outside range({ncols})")
        entries[ncols + i] = 1
        augmented.append(entries)
    return _upper_block(augmented, ncols, n)


def apply_rows(
    vec: VectorLike, rows: Sequence[Mapping[int, Fraction]] | Mapping[int, Mapping[int, Fraction]]
) -> dict:
    """Image of the row vector ``vec`` under the map sending the i-th unit
    vector to the sparse vector ``rows[i]`` (a mapping ``rows`` may omit an
    i sent to zero), with cancelled entries dropped.  Exact for int and
    Fraction entries alike: integer input gives an integer image."""
    get = rows.get if type(rows) is dict or isinstance(rows, Mapping) else rows.__getitem__
    out: dict = {}
    for i, c in _entries(vec):
        row = get(i) if c else None
        if row:
            for j, x in row.items():
                nv = out.get(j, 0) + c * x
                if nv:
                    out[j] = nv
                else:
                    del out[j]
    return out


def frac_str(x: Fraction) -> str:
    """Canonical rational rendering: ``p/q``, with ``/q`` omitted when q = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
