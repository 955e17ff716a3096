"""Exact linear algebra over the rationals.

Vectors are sparse ``{column: Fraction}`` dicts holding only nonzero
entries; dense sequences are accepted as input and converted.  A subspace is
stored as its reduced row-echelon basis, which is the unique canonical
representative of the row space, so subspace equality is plain data
comparison.  All arithmetic is exact; nothing here ever rounds.

Elimination is fraction-free.  :class:`SpanBuilder` keeps its rows as
primitive integer dicts (content 1, positive at its own pivot, 0 at every
other pivot) and reduces by integer cross-multiplication, in the manner of
Bareiss (Math. Comp. 22, 1968).  Fractions are built only at the boundary:
an input vector is scaled to integers once on entry, and
:meth:`SpanBuilder.subspace` and :func:`_upper_block` divide each finished
row by its pivot entry.
:meth:`Subspace.reduce` and :func:`apply_rows` work on the finished
Fraction rows, since their callers need the exact remainder or image.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _sparse(vec: VectorLike, length: int | None = None) -> SparseVector:
    """A fresh sparse copy of ``vec``; a dense ``vec`` must have ``length``
    entries when that is given."""
    if type(vec) is dict or isinstance(vec, Mapping):
        items = vec.items()
    elif length is not None and len(vec) != length:
        raise AmbientMismatchError(f"expected vector of length {length}, got {len(vec)}")
    else:
        items = enumerate(vec)
    # Fraction(c) returns an equal Fraction for a Fraction, but slowly
    return {i: c if type(c) is Fraction else Fraction(c) for i, c in items if c}


def _axpy(v: SparseVector, c: Fraction, row: Mapping[int, Fraction]) -> None:
    """``v += c * row`` in place, dropping entries that cancel; ``c`` and the
    entries of ``row`` are nonzero."""
    for col, val in row.items():
        nv = v.get(col, _F0) + c * val
        if nv:
            v[col] = nv
        else:
            del v[col]


def _eliminate(v: SparseVector, rows: Mapping[int, SparseVector]) -> SparseVector:
    """Reduce ``v`` in place against reduced echelon ``rows`` (pivot -> row)
    and return it; the remainder is zero at every pivot.

    Each row is 1 at its own pivot and 0 at every other row's pivot, so
    subtracting one row leaves the other pivot entries of ``v`` alone and a
    single pass over the pivots present in ``v`` clears them all."""
    for p in [col for col in v if col in rows]:
        _axpy(v, -v[p], rows[p])
    return v


def _integral(vec: VectorLike) -> dict[int, int]:
    """A fresh sparse integer multiple of ``vec``: its entries times their
    least common denominator, so integer entries pass through unchanged."""
    items = vec.items() if type(vec) is dict or isinstance(vec, Mapping) else enumerate(vec)
    out: dict[int, int] = {}
    dens: dict[int, int] = {}
    for i, c in items:
        if c:
            if type(c) is not int:
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c.denominator != 1:
                    dens[i] = c.denominator
                c = c.numerator
            out[i] = c
    if dens:
        den = lcm(*dens.values())
        for i in out:
            out[i] *= den // dens.get(i, 1)
    return out


def _clear(v: dict[int, int], p: int, row: Mapping[int, int]) -> None:
    """Cancel column ``p`` of the integer vector ``v`` in place by the
    cross-multiplication v = (row[p]/g) v - (v[p]/g) row, g = gcd(row[p],
    v[p]), dropping entries that cancel.  Where ``row`` is 0, ``v`` is only
    scaled, by a positive factor when row[p] > 0."""
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


def _make_primitive(v: dict[int, int], p: int) -> None:
    """Divide ``v`` in place by its content, signed so that v[p] > 0."""
    g = gcd(*v.values())
    if v[p] < 0:
        g = -g
    if g != 1:
        for col in v:
            v[col] //= g


def _normalized(row: Mapping[int, int], p: int) -> SparseVector:
    """The reduced echelon row over Q: ``row`` divided by its entry at ``p``.
    Almost every finished row has pivot entry 1 and small entries, which
    share the Fractions of ``_SMALL``."""
    pv = row[p]
    if pv == 1:
        small = _SMALL
        return {col: small.get(x) or Fraction(x) for col, x in row.items()}
    return {col: Fraction(x, pv) for col, x in row.items()}


class SpanBuilder:
    """Incremental row-space accumulator (sparse, exact, fraction-free).

    Rows are kept keyed by pivot column as primitive integer dicts: content
    gcd 1, positive at the row's own pivot (its first column) and 0 at every
    other row's pivot.  That form is unique up to scale, so dividing each
    row by its pivot entry gives the reduced row-echelon basis over Q;
    :meth:`subspace` is where those Fractions are built.  A rational input
    vector is scaled once, on entry, to an integer vector."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def insert(self, vec: VectorLike) -> bool:
        """Add ``vec`` to the span; True iff the dimension grew.

        Each row is 0 at every other row's pivot, so clearing one pivot of
        the new vector only scales its other pivot entries, and a single
        pass over the pivots present in it reduces it.  The remainder, made
        primitive, is then cleared out of every row holding its pivot."""
        rows = self._rows
        v = _integral(vec)
        for p in [col for col in v if col in rows]:
            _clear(v, p, rows[p])
        if not v:
            return False
        if max(v) >= self.ambient:
            raise AmbientMismatchError(f"coordinate {max(v)} outside ambient {self.ambient}")
        p = min(v)
        _make_primitive(v, p)
        for q, row in rows.items():
            if p in row:
                _clear(row, p, v)
                _make_primitive(row, q)
        rows[p] = v
        return True

    def integer_rows(self) -> list[dict[int, int]]:
        """The primitive integer rows, by increasing pivot (not copies)."""
        return [self._rows[p] for p in sorted(self._rows)]

    def subspace(self) -> "Subspace":
        pivots = tuple(sorted(self._rows))
        return Subspace(self.ambient, tuple(_normalized(self._rows[p], p) for p in pivots), pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient_dim, canonically represented by its reduced
    row-echelon basis: sparse rows with strictly increasing pivots, each row
    1 at its own pivot and 0 at every other row's pivot."""

    ambient_dim: int
    basis: tuple[SparseVector, ...]
    pivots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_rows", dict(zip(self.pivots, self.basis)))

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.pivots))

    @classmethod
    def from_vectors(cls, vectors: Iterable[VectorLike], ambient_dim: int) -> "Subspace":
        builder = SpanBuilder(ambient_dim)
        for vec in vectors:
            builder.insert(vec)
        return builder.subspace()

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(
            ambient_dim,
            tuple({i: _F1} for i in range(ambient_dim)),
            tuple(range(ambient_dim)),
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: VectorLike) -> SparseVector:
        """Remainder of ``vec`` after elimination against the echelon basis,
        as a sparse dict supported off the pivots."""
        return _eliminate(_sparse(vec, self.ambient_dim), self._rows)

    def contains_vector(self, vec: VectorLike) -> bool:
        return not self.reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError("ambient dimensions differ")
        return all(self.contains_vector(row) for row in other.basis)

    def complement_coords(self) -> tuple[int, ...]:
        """Coordinates not used as pivots; the corresponding unit vectors
        span a complement of this subspace."""
        pivot_set = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivot_set)


def _upper_block(vectors: Iterable[SparseVector], split: int, width: int) -> Subspace:
    """Span ``vectors`` in F^(split + width) and keep the part of the span
    that vanishes below ``split``, shifted down into F^width.

    The reduced echelon rows with a pivot at or past ``split`` are exactly
    those vanishing below it, and they are already the reduced echelon basis
    of that part."""
    builder = SpanBuilder(split + width)
    for vec in vectors:
        builder.insert(vec)
    kept = [p for p in sorted(builder._rows) if p >= split]
    return Subspace(
        width,
        tuple(
            {col - split: x for col, x in _normalized(builder._rows[p], p).items()}
            for p in kept
        ),
        tuple(p - split for p in kept),
    )


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatchError("ambient dimensions differ")
    return Subspace.from_vectors(u.basis + v.basis, u.ambient_dim)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection by Zassenhaus elimination: the span of (x | x) for x in
    u and (y | 0) for y in v meets 0 + F^n exactly in 0 + (u /\\ v)."""
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatchError("ambient dimensions differ")
    n = u.ambient_dim
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(n)
    doubled = [{**x, **{n + col: c for col, c in x.items()}} for x in u.basis]
    return _upper_block(doubled + list(v.basis), n, n)


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
    (row_i | e_i) whose echelon pivot falls in the identity block.
    """
    n = len(rows)
    if n == 0:
        return Subspace.zero(0)
    augmented = []
    for i, row in enumerate(rows):
        vec = _sparse(row, ncols)
        vec[ncols + i] = _F1
        augmented.append(vec)
    return _upper_block(augmented, ncols, n)


def apply_rows(vec: VectorLike, rows: Sequence[Mapping[int, Fraction]]) -> SparseVector:
    """Image of the row vector ``vec`` under the map sending the i-th unit
    vector to the sparse vector ``rows[i]``."""
    out: SparseVector = {}
    for i, c in _sparse(vec).items():
        _axpy(out, c, rows[i])
    return out


def frac_str(x: Fraction) -> str:
    """Canonical rational rendering: ``p/q``, with ``/q`` omitted when q = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
