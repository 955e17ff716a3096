"""Exact linear algebra over the rationals.

Vectors are sparse ``{column: Fraction}`` dicts holding only nonzero
entries; dense sequences are accepted as input and converted.  A subspace is
stored as its reduced row-echelon basis, which is the unique canonical
representative of the row space, so subspace equality is plain data
comparison.  All arithmetic is exact; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable, Mapping, Sequence
from typing import Union

Vector = tuple[Fraction, ...]
SparseVector = dict[int, Fraction]
VectorLike = Union[Sequence, Mapping[int, Fraction]]

_F0 = Fraction(0)
_F1 = Fraction(1)


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
    if isinstance(vec, Mapping):
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


class SpanBuilder:
    """Incremental row-space accumulator (sparse, exact).

    Rows are kept in reduced row-echelon form keyed by pivot column: each
    new row is reduced against the others and then cleared out of them."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self._rows: dict[int, SparseVector] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def residue(self, vec: VectorLike) -> SparseVector:
        """Reduce ``vec`` against the accumulated rows; the remainder is
        returned as a sparse dict (empty iff ``vec`` lies in the span)."""
        return _eliminate(_sparse(vec), self._rows)

    def insert(self, vec: VectorLike) -> bool:
        """Add ``vec`` to the span; True iff the dimension grew."""
        v = self.residue(vec)
        if not v:
            return False
        if max(v) >= self.ambient:
            raise AmbientMismatchError(f"coordinate {max(v)} outside ambient {self.ambient}")
        p = min(v)
        pv = v[p]
        if pv != 1:
            v = {col: val / pv for col, val in v.items()}
        for row in [row for row in self._rows.values() if p in row]:
            _axpy(row, -row[p], v)
        self._rows[p] = v
        return True

    def subspace(self) -> "Subspace":
        pivots = tuple(sorted(self._rows))
        return Subspace(self.ambient, tuple(dict(self._rows[p]) for p in pivots), pivots)


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
        tuple({col - split: x for col, x in builder._rows[p].items()} for p in kept),
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
