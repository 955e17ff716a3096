"""Finite-dimensional n-Lie algebras given by structure constants.

A :class:`StructureAlgebra` stores the bracket values only on strictly
increasing basis-index tuples; antisymmetry is enforced structurally by
sign-adjusting lookups, and tuples with a repeated index are zero by fiat.
The generalized Jacobi (Filippov) identity is *not* assumed: it is checked
by :meth:`StructureAlgebra.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, product
from math import prod

from .linalg import (
    AmbientMismatchError,
    SpanBuilder,
    SparseVector,
    Subspace,
    _axpy,
    _sparse,
    left_kernel,
)
from .trees import _permutation_sign

_F0 = Fraction(0)
_F1 = Fraction(1)


class AlgebraFormatError(ValueError):
    """Malformed serialized algebra (carries a field-path diagnostic)."""


class NotNilpotentError(ValueError):
    """An operation that requires nilpotency got a non-nilpotent algebra."""


def _sorted_with_sign(indices: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort an index tuple, tracking permutation parity; sign 0 on repeats."""
    if len(set(indices)) != len(indices):
        return 0, indices
    order = sorted(range(len(indices)), key=indices.__getitem__)
    return _permutation_sign(order), tuple(indices[i] for i in order)


class StructureAlgebra:
    """n-Lie algebra on an ordered basis, defined by structure constants."""

    def __init__(
        self,
        n: int,
        dim: int,
        basis_names: tuple[str, ...] | None = None,
        table: dict[tuple[int, ...], dict[int, Fraction]] | None = None,
    ):
        if n < 2:
            raise ValueError("bracket arity must be at least 2")
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.n = n
        self.dim = dim
        if basis_names is None:
            basis_names = tuple(f"e{i + 1}" for i in range(dim))
        if len(basis_names) != dim:
            raise ValueError("basis_names length differs from dim")
        self.basis_names = tuple(basis_names)
        clean: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for args, value in (table or {}).items():
            args = tuple(args)
            if len(args) != n:
                raise ValueError(f"bracket arguments {args} do not have arity {n}")
            if any(not (0 <= i < dim) for i in args):
                raise ValueError(f"bracket arguments {args} out of range")
            if any(a >= b for a, b in zip(args, args[1:])):
                raise ValueError(f"bracket arguments {args} not strictly increasing")
            row = {i: Fraction(c) for i, c in value.items() if c}
            for i in row:
                if not (0 <= i < dim):
                    raise ValueError(f"bracket value index {i} out of range")
            if row:
                clean[args] = row
        self.table = clean

    def canonical_key(self) -> tuple:
        items = tuple(
            (args, tuple(sorted(self.table[args].items())))
            for args in sorted(self.table)
        )
        return (self.n, self.dim, items)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureAlgebra)
            and self.n == other.n
            and self.dim == other.dim
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"StructureAlgebra(n={self.n}, dim={self.dim}, brackets={len(self.table)})"

    # -- bracket evaluation ------------------------------------------------

    def bracket_basis(self, indices: tuple[int, ...]) -> dict[int, Fraction]:
        """Bracket of basis elements, for an arbitrary index tuple."""
        sign, key = _sorted_with_sign(tuple(indices))
        if sign == 0:
            return {}
        row = self.table.get(key)
        if not row:
            return {}
        if sign == 1:
            return dict(row)
        return {i: -c for i, c in row.items()}

    def bracket(self, *vectors) -> dict[int, Fraction]:
        """Multilinear bracket of ``n`` coordinate vectors (sparse result)."""
        if len(vectors) != self.n:
            raise ValueError(f"bracket takes {self.n} arguments")
        supports = []
        for vec in vectors:
            support = list(_sparse(vec).items())
            if not support:
                return {}
            supports.append(support)
        acc: dict[int, Fraction] = {}
        for combo in product(*supports):
            indices, coeffs = zip(*combo)
            sign, key = _sorted_with_sign(indices)
            row = self.table.get(key) if sign else None
            if row:
                _axpy(acc, prod(coeffs, start=sign), row)
        return acc

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ValidationReport":
        """Check the Filippov identity on all sorted basis tuples."""
        checked = 0
        for a in combinations(range(self.dim), self.n):
            inner = self.bracket_basis(a)
            for b in combinations(range(self.dim), self.n - 1):
                checked += 1
                defect = self.bracket(inner, *map(self._unit, b))
                for i in range(self.n):
                    replaced = self.bracket_basis((a[i],) + b)
                    if not replaced:
                        continue
                    args = [self._unit(x) for x in a]
                    args[i] = replaced
                    _axpy(defect, -_F1, self.bracket(*args))
                if defect:
                    return ValidationReport(False, checked, (a, b), defect)
        return ValidationReport(True, checked, None, None)

    def _unit(self, i: int) -> dict[int, Fraction]:
        return {i: _F1}

    # -- subspaces ----------------------------------------------------------

    def subspace(self, vectors) -> "AlgebraSubspace":
        return AlgebraSubspace(self, Subspace.from_vectors(vectors, self.dim))

    def zero_subspace(self) -> "AlgebraSubspace":
        return AlgebraSubspace(self, Subspace.zero(self.dim))

    def full_subspace(self) -> "AlgebraSubspace":
        return AlgebraSubspace(self, Subspace.full(self.dim))

    # -- central series -----------------------------------------------------
    # Each is computed at most once per instance: the algebra hashes by
    # content, so it is never mutated after construction.

    @cached_property
    def _lower_series(self) -> tuple["AlgebraSubspace", ...]:
        full = self.full_subspace()
        chain = [full]
        while True:
            current = chain[-1]
            nxt = bracket_product(current, *([full] * (self.n - 1)))
            if nxt.space == current.space:
                return tuple(chain)
            chain.append(nxt)

    @cached_property
    def _upper_series(self) -> tuple["AlgebraSubspace", ...]:
        tuples = list(combinations(range(self.dim), self.n - 1))
        return tuple(_upper_central_series(self, tuples))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    checked: int
    violation: tuple[tuple[int, ...], tuple[int, ...]] | None
    defect: dict[int, Fraction] | None


@dataclass(frozen=True)
class AlgebraSubspace:
    """A subspace of a fixed algebra's coordinate space."""

    parent: StructureAlgebra
    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim != self.parent.dim:
            raise AmbientMismatchError("subspace ambient differs from algebra dimension")

    @property
    def dim(self) -> int:
        return self.space.dim


def _require_common_parent(subs: tuple[AlgebraSubspace, ...]) -> StructureAlgebra:
    parent = subs[0].parent
    for s in subs[1:]:
        if s.parent is not parent and s.parent != parent:
            raise ValueError("subspaces belong to different algebras")
    return parent


def bracket_product(*factors: AlgebraSubspace) -> AlgebraSubspace:
    """Span of all brackets with one basis vector chosen from each factor.

    Factors equal as subspaces are grouped so that only strictly increasing
    choices within a group are expanded (the skipped ones repeat a vector or
    differ by a sign, so the span is unchanged).
    """
    parent = _require_common_parent(factors)
    if len(factors) != parent.n:
        raise ValueError(f"bracket_product takes {parent.n} factors")
    if any(f.dim == 0 for f in factors):
        return parent.zero_subspace()
    groups: list[tuple[Subspace, int]] = []
    for f in factors:
        for g, (space, count) in enumerate(groups):
            if space == f.space:
                groups[g] = (space, count + 1)
                break
        else:
            groups.append((f.space, 1))
    builder = SpanBuilder(parent.dim)
    choice_sets = [
        list(combinations(space.basis, count)) for space, count in groups
    ]
    for picks in product(*choice_sets):
        rows: list[SparseVector] = []
        for pick in picks:
            rows.extend(pick)
        builder.insert(parent.bracket(*rows))
        if builder.dim == parent.dim:
            break
    return AlgebraSubspace(parent, builder.subspace())


def _ad_closure(
    alg: StructureAlgebra, start: tuple[SparseVector, ...], tuples: list[tuple[int, ...]]
) -> Subspace:
    """The span of the brackets [[[s, x_J1], x_J2], ...] with s in ``start``,
    at least one x_J applied, where x_J is the basis (n-1)-tuple J from
    ``tuples``: the smallest subspace holding every [s, x_J] and closed
    under every ad(x_J) : y -> [y, x_J].

    A worklist brackets each vector the span accepts with every x_J once
    more, so the work is about dim(result) * len(tuples) brackets.

    Lemma.  Let L be generated by the set X of basis vectors, let
    ``tuples`` be the (n-1)-subsets of X, and let S be a subspace.
      (i)   The closure S* of S under every ad(x_J) is an ideal of L.
      (ii)  If U is an ideal, the closure of [U, X, ..., X] is
            [U, L, ..., L], so ``_ad_closure(alg, U, tuples)`` is
            [U, L, ..., L].
      (iii) If Z is an ideal and [z, x_J] lies in Z for every J, then
            [z, y_1, ..., y_{n-1}] lies in Z for all y in L: z is central
            modulo Z.

    Proof.  L is spanned by the bracket words in X; the degree of a word is
    the number of letters from X in it.  Everything is multilinear, so it is
    enough to take y_1, ..., y_{n-1} words and to induct on their total
    degree D.  For D = n - 1 all y_i are letters, and each claim holds by
    hypothesis.  Otherwise some y_i is not a letter; by antisymmetry take it
    to be y_{n-1} = [z_1, ..., z_n], with words z_i of smaller degree.  As
    ad(u, y_1, ..., y_{n-2}) is a derivation (the Filippov identity),

        [u, y_1, ..., y_{n-2}, [z_1, ..., z_n]]
            = sum_i [z_1, ..., [u, y_1, ..., y_{n-2}, z_i], ..., z_n].

    In each term the inner bracket has arguments y_1, ..., y_{n-2}, z_i of
    total degree below D, and the outer bracket applies the z_j, j != i, of
    total degree deg(y_{n-1}) - deg(z_i) < D, to it.
      (i)   For u in S* the inner bracket lies in S* by induction, and then
            the outer one does too, by induction again.
      (ii)  [U, L, ..., L] contains [U, X, ..., X], and it is an ideal: by
            the derivation rule [[u, y], a] = [[u, a], y] + sum of
            [u, ..., [y_i, a], ...], and [u, a] lies in U.  So it contains
            the closure.  Conversely, for u in U the inner bracket lies in
            [U, L, ..., L] with degree below D, so in the closure by
            induction, and the closure is an ideal by (i).
      (iii) The inner bracket lies in Z by induction, and Z is an ideal.
    """
    builder = SpanBuilder(alg.dim)
    units = [[{j: _F1} for j in tup] for tup in tuples]
    todo = list(start)
    while todo:
        vec = todo.pop()
        for args in units:
            value = alg.bracket(vec, *args)
            if builder.insert(value):
                todo.append(value)
    return builder.subspace()


def lower_central_series(alg: StructureAlgebra) -> list[AlgebraSubspace]:
    """Descending chain: the whole algebra, then iterated bracket products
    with the whole algebra, up to and including the first stable term."""
    return list(alg._lower_series)


def nilpotency_class(alg: StructureAlgebra) -> int | None:
    """Nilpotency class, or None when the lower series stabilizes above zero."""
    chain = alg._lower_series
    if chain[-1].dim != 0:
        return None
    return len(chain) - 1


def gamma_term(alg: StructureAlgebra, k: int) -> AlgebraSubspace:
    """k-th term of the lower central series (k >= 1), with the stable tail
    extended indefinitely."""
    if k < 1:
        raise ValueError("lower central series starts at index 1")
    chain = alg._lower_series
    return chain[min(k - 1, len(chain) - 1)]


def upper_central_series(alg: StructureAlgebra) -> list[AlgebraSubspace]:
    """Ascending chain from zero, each step the full preimage of the center
    of the quotient, up to and including the first stable term."""
    return list(alg._upper_series)


def _upper_central_series(
    alg: StructureAlgebra, tuples: list[tuple[int, ...]]
) -> list[AlgebraSubspace]:
    """The upper central series, testing centrality mod Z_j only against the
    basis tuples in ``tuples``.  With all (n-1)-subsets of the basis this is
    the definition; with the (n-1)-subsets of a generating set of basis
    vectors it is the same chain, by part (iii) of the lemma in
    :func:`_ad_closure`."""
    dim = alg.dim
    chain = [alg.zero_subspace()]
    while True:
        zk = chain[-1].space
        if zk.dim == dim:
            break
        # row i holds the classes mod zk of [e_i, tup] for every tuple, one
        # block of dim columns per tuple; x is central mod zk iff x . rows = 0
        rows: list[SparseVector] = [{} for _ in range(dim)]
        for t, tup in enumerate(tuples):
            offset = t * dim
            for i in range(dim):
                value = alg.bracket_basis((i,) + tup)
                if value:
                    for j, c in zk.reduce(value).items():
                        rows[i][offset + j] = c
        nxt = left_kernel(rows, len(tuples) * dim)
        if nxt == zk:
            break
        chain.append(AlgebraSubspace(alg, nxt))
    return chain


def z_term(alg: StructureAlgebra, c: int) -> AlgebraSubspace:
    """c-th term of the upper central series (c >= 0), stable tail extended."""
    if c < 0:
        raise ValueError("upper central series starts at index 0")
    chain = alg._upper_series
    return chain[min(c, len(chain) - 1)]


def minimal_generators(alg: StructureAlgebra) -> int:
    """Minimal number of generators of a nilpotent algebra."""
    chain = alg._lower_series
    if chain[-1].dim != 0:
        raise NotNilpotentError("minimal generator count requires a nilpotent algebra")
    gamma2 = chain[1] if len(chain) > 1 else chain[0]
    return alg.dim - gamma2.dim


def is_ideal(alg: StructureAlgebra, sub: AlgebraSubspace) -> bool:
    if sub.parent != alg:
        raise ValueError("subspace does not belong to this algebra")
    if sub.dim == 0:
        return True
    full = alg.full_subspace()
    prod = bracket_product(sub, *([full] * (alg.n - 1)))
    return sub.space.contains_subspace(prod.space)


def is_subalgebra(alg: StructureAlgebra, sub: AlgebraSubspace) -> bool:
    if sub.dim == 0:
        return True
    prod = bracket_product(*([sub] * alg.n))
    return sub.space.contains_subspace(prod.space)


# -- constructors ------------------------------------------------------------


def abelian(dim: int, n: int = 2) -> StructureAlgebra:
    """Abelian algebra: every bracket vanishes."""
    return StructureAlgebra(n, dim)


def heisenberg(n: int, m: int) -> StructureAlgebra:
    """Heisenberg n-Lie algebra of dimension m*n + 1: generators split into m
    blocks of size n, each block bracketing to the centre element z."""
    if n < 2:
        raise ValueError("arity must be at least 2")
    if m < 1:
        raise ValueError("block count must be at least 1")
    dim = m * n + 1
    names = tuple(f"e{i + 1}" for i in range(m * n)) + ("z",)
    table = {}
    for j in range(m):
        args = tuple(range(j * n, (j + 1) * n))
        table[args] = {m * n: _F1}
    return StructureAlgebra(n, dim, names, table)


def direct_sum(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """Block direct sum; cross-block brackets vanish."""
    if a.n != b.n:
        raise ValueError("direct sum requires matching bracket arity")
    names = list(a.basis_names)
    used = set(names)
    for name in b.basis_names:
        candidate = name
        k = 2
        while candidate in used:
            candidate = f"{name}_{k}"
            k += 1
        names.append(candidate)
        used.add(candidate)
    table: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for args, value in a.table.items():
        table[args] = dict(value)
    off = a.dim
    for args, value in b.table.items():
        table[tuple(i + off for i in args)] = {i + off: c for i, c in value.items()}
    return StructureAlgebra(a.n, a.dim + b.dim, tuple(names), table)


# -- quotients, subalgebras, induced maps ------------------------------------


def quotient_algebra(
    alg: StructureAlgebra, ideal: AlgebraSubspace
) -> tuple[StructureAlgebra, tuple[int, ...]]:
    """Quotient by an ideal, on the echelon-complement coordinates.

    Returns the quotient algebra and the complement coordinates; the class of
    e_j for j in the complement is the j-th quotient basis vector.
    """
    if not is_ideal(alg, ideal):
        raise ValueError("quotient requires an ideal")
    return _quotient(alg, ideal.space)


def _quotient(
    alg: StructureAlgebra, space: Subspace
) -> tuple[StructureAlgebra, tuple[int, ...]]:
    """:func:`quotient_algebra` for a ``space`` the caller knows to be an
    ideal; nothing here checks that."""
    comp = space.complement_coords()
    names = tuple(alg.basis_names[j] for j in comp)
    position = {j: pos for pos, j in enumerate(comp)}
    table: dict[tuple[int, ...], dict[int, Fraction]] = {}
    # a quotient bracket of complement basis vectors is the class of their
    # bracket in alg, which is zero unless alg's table holds the tuple
    for args, value in alg.table.items():
        if all(i in position for i in args):
            row = {position[j]: c for j, c in space.reduce(value).items()}
            if row:
                table[tuple(position[i] for i in args)] = row
    return StructureAlgebra(alg.n, len(comp), names, table), comp


def subalgebra_on(
    alg: StructureAlgebra, sub: AlgebraSubspace, names: tuple[str, ...] | None = None
) -> StructureAlgebra:
    """The algebra induced on a bracket-closed subspace, in the coordinates
    of its echelon basis rows."""
    if not is_subalgebra(alg, sub):
        raise ValueError("subspace is not closed under the bracket")
    space = sub.space
    k = space.dim
    if names is None:
        names = tuple(f"b{i + 1}" for i in range(k))
    table: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for args in combinations(range(k), alg.n):
        value = alg.bracket(*[space.basis[i] for i in args])
        if not value:
            continue
        # the echelon basis is 1 at its own pivot and 0 at the others, so a
        # member's coordinates are its entries at the pivots
        if space.reduce(value):
            raise ValueError("bracket value escaped the subspace")
        table[args] = {pos: value[p] for pos, p in enumerate(space.pivots) if p in value}
    return StructureAlgebra(alg.n, k, names, table)


# -- serialization ------------------------------------------------------------


def to_json_dict(alg: StructureAlgebra) -> dict:
    brackets = []
    for args in sorted(alg.table):
        value = alg.table[args]
        triplets = [
            [value[i].numerator, value[i].denominator, i + 1] for i in sorted(value)
        ]
        brackets.append({"args": [i + 1 for i in args], "value": triplets})
    return {
        "n": alg.n,
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "brackets": brackets,
    }


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise AlgebraFormatError(f"{path}: {message}")


def from_json_dict(obj) -> StructureAlgebra:
    _expect(isinstance(obj, dict), "$", "expected a JSON object")
    for key in ("n", "dim", "basis", "brackets"):
        _expect(key in obj, f"$.{key}", "missing field")
    n, dim = obj["n"], obj["dim"]
    _expect(isinstance(n, int) and n >= 2, "$.n", "arity must be an integer >= 2")
    _expect(isinstance(dim, int) and dim >= 0, "$.dim", "dimension must be a nonnegative integer")
    basis = obj["basis"]
    _expect(isinstance(basis, list) and all(isinstance(x, str) for x in basis),
            "$.basis", "expected a list of strings")
    _expect(len(basis) == dim, "$.basis", f"expected {dim} names, got {len(basis)}")
    brackets = obj["brackets"]
    _expect(isinstance(brackets, list), "$.brackets", "expected a list")
    table: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for idx, entry in enumerate(brackets):
        path = f"$.brackets[{idx}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        _expect("args" in entry and "value" in entry, path, "needs 'args' and 'value'")
        args = entry["args"]
        _expect(isinstance(args, list) and len(args) == n, f"{path}.args",
                f"expected {n} indices")
        _expect(all(isinstance(i, int) and 1 <= i <= dim for i in args), f"{path}.args",
                "indices must be 1-based and within the dimension")
        _expect(all(a < b for a, b in zip(args, args[1:])), f"{path}.args",
                "indices must be strictly increasing")
        key = tuple(i - 1 for i in args)
        _expect(key not in table, f"{path}.args", "duplicate bracket entry")
        value = entry["value"]
        _expect(isinstance(value, list), f"{path}.value", "expected a list of triplets")
        row: dict[int, Fraction] = {}
        for t, triplet in enumerate(value):
            tpath = f"{path}.value[{t}]"
            _expect(isinstance(triplet, list) and len(triplet) == 3, tpath,
                    "expected [numerator, denominator, basis_index]")
            num, den, pos = triplet
            _expect(isinstance(num, int) and isinstance(den, int) and isinstance(pos, int),
                    tpath, "entries must be integers")
            _expect(den != 0, tpath, "zero denominator")
            _expect(1 <= pos <= dim, tpath, "basis index out of range")
            coeff = Fraction(num, den)
            if coeff:
                row[pos - 1] = row.get(pos - 1, _F0) + coeff
        table[key] = row
    return StructureAlgebra(n, dim, tuple(basis), table)
