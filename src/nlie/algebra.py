"""Finite-dimensional n-Lie algebras given by structure constants.

A :class:`StructureAlgebra` stores the bracket values only on strictly
increasing basis-index tuples; antisymmetry is enforced structurally by
sign-adjusting lookups, and tuples with a repeated index are zero by fiat.
The generalized Jacobi (Filippov) identity is *not* assumed: it is checked
by :meth:`StructureAlgebra.validate`.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm, prod

from .linalg import (
    AmbientMismatchError,
    SpanBuilder,
    SparseVector,
    Subspace,
    _axpy,
    _entries,
    annihilator,
    apply_rows,
)
from .trees import canonicalize

_F0 = Fraction(0)
_F1 = Fraction(1)


class AlgebraFormatError(ValueError):
    """Malformed serialized algebra (carries a field-path diagnostic)."""


class NotNilpotentError(ValueError):
    """An operation that requires nilpotency got a non-nilpotent algebra."""


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
            row = {i: c if type(c) is Fraction else Fraction(c) for i, c in value.items()}
            row = {i: c for i, c in row.items() if c}
            for i in row:
                if not (0 <= i < dim):
                    raise ValueError(f"bracket value index {i} out of range")
            if row:
                clean[args] = row
        self.table = clean

    def canonical_key(self) -> tuple:
        return self._canonical_key

    @cached_property
    def _canonical_key(self) -> tuple:
        # built once, like the central series below: the algebra is never
        # mutated after construction
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
        sign, key = canonicalize(tuple(indices))
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
            support = [(i, c) for i, c in _entries(vec) if c]
            if not support:
                return {}
            supports.append(support)
        acc: dict[int, Fraction] = {}
        for combo in product(*supports):
            indices, coeffs = zip(*combo)
            sign, key = canonicalize(indices)
            row = self.table.get(key) if sign else None
            if row:
                _axpy(acc, prod(coeffs, start=sign), row)
        return acc

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ValidationReport":
        """Check the Filippov identity on all sorted basis tuples a, b, in
        order, and report the first defect.  The defect of (a, b) is

            [[a], b] - sum_i [a_1, ..., [a_i, b], ..., a_n],

        which is 0 unless some s in a or in the support of [a] has
        [e_s, e_b] != 0, that is, unless b is a table key with one such s
        taken out.  Only those b are visited; the pairs skipped are counted
        in ``checked`` as if visited, so the report is that of the
        exhaustive loop."""
        n, dim = self.n, self.dim
        partners: dict[int, set[tuple[int, ...]]] = {}
        for key in self.table:
            for k, s in enumerate(key):
                partners.setdefault(s, set()).add(key[:k] + key[k + 1 :])
        checked = 0
        for a in combinations(range(dim), n):
            inner = self.bracket_basis(a)
            reach = set().union(*(partners.get(s, ()) for s in (*a, *inner)))
            for b in sorted(reach):
                defect = self.bracket(inner, *map(self._unit, b))
                for i in range(n):
                    replaced = self.bracket_basis((a[i],) + b)
                    if not replaced:
                        continue
                    args = [self._unit(x) for x in a]
                    args[i] = replaced
                    _axpy(defect, -_F1, self.bracket(*args))
                if defect:
                    return ValidationReport(False, checked + _lex_rank(b, dim) + 1, (a, b), defect)
            checked += comb(dim, n - 1)
        return ValidationReport(True, checked, None, None)

    def _unit(self, i: int) -> dict[int, Fraction]:
        return {i: _F1}

    # -- central series -----------------------------------------------------
    # Each is computed at most once per instance: the algebra hashes by
    # content, so it is never mutated after construction.

    @cached_property
    def _ad(self) -> dict[tuple[int, ...], dict[int, dict[int, int]]]:
        """The maps D ad(e_J) : e_i -> D [e_i, e_J], as J -> {i: D [e_i, e_J]},
        for every sorted (n-1)-tuple J with a nonzero bracket, where D is the
        lcm of the denominators of the whole table, so every entry is an int.

        Read off the table in one pass: moving args[k] to the front of a
        table entry ``args`` takes k transpositions, so with J = ``args``
        without args[k], [e_{args[k]}, e_J] = (-1)^k table[args].  The rows
        are one scaled copy of each entry (even k) and its negation (odd k),
        shared between maps, so callers must not mutate them.

        Scaling.  Every consumer needs each ad(e_J) only up to a positive
        factor of its own, because a*ad(e_J) sends every vector to a multiple
        of its image under ad(e_J).  The lower series and the ideal chain
        take spans of the images (:func:`_ad_images`); :func:`is_ideal` tests
        membership of the images; and :func:`_central_annihilators` takes
        spans of the images of forms under the transposed maps, each scaled
        like its map.  So the free cover's ``generator_maps`` may scale each
        map by its own lcm."""
        den = lcm(*(c.denominator for row in self.table.values() for c in row.values()))
        ad: dict[tuple[int, ...], dict[int, dict[int, int]]] = {}
        for args, row in self.table.items():
            scaled = {j: c.numerator * (den // c.denominator) for j, c in row.items()}
            negated = {j: -x for j, x in scaled.items()}
            for k, i in enumerate(args):
                ad.setdefault(args[:k] + args[k + 1 :], {})[i] = negated if k % 2 else scaled
        return ad

    @cached_property
    def _lower_series(self) -> tuple[Subspace, ...]:
        chain = [Subspace.full(self.dim)]
        while True:
            nxt = _ad_images(self.dim, chain[-1].rows.values(), self._ad.values())
            if nxt == chain[-1]:
                return tuple(chain)
            chain.append(nxt)

    @cached_property
    def _upper_series(self) -> tuple[Subspace, ...]:
        # a tuple missing from _ad brackets everything to zero
        return tuple(_upper_central_series(self, list(self._ad)))


def _lex_rank(b: tuple[int, ...], dim: int) -> int:
    """The position of the increasing tuple ``b`` in
    ``combinations(range(dim), len(b))``: the tuples before it agree with it
    up to some slot i and have a smaller entry y there, followed by any
    len(b) - 1 - i entries above y."""
    rank, prev = 0, -1
    for i, x in enumerate(b):
        rank += sum(comb(dim - 1 - y, len(b) - 1 - i) for y in range(prev + 1, x))
        prev = x
    return rank


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    checked: int
    violation: tuple[tuple[int, ...], tuple[int, ...]] | None
    defect: dict[int, Fraction] | None


def _require_ambient(alg: StructureAlgebra, *subs: Subspace) -> None:
    if any(s.ambient_dim != alg.dim for s in subs):
        raise AmbientMismatchError("subspace ambient differs from algebra dimension")


def bracket_product(alg: StructureAlgebra, *factors: Subspace) -> Subspace:
    """Span of all brackets in ``alg`` with one basis vector chosen from
    each factor.

    Factors equal as subspaces are grouped so that only strictly increasing
    choices within a group are expanded (the skipped ones repeat a vector or
    differ by a sign, so the span is unchanged).
    """
    _require_ambient(alg, *factors)
    if len(factors) != alg.n:
        raise ValueError(f"bracket_product takes {alg.n} factors")
    if any(f.dim == 0 for f in factors):
        return Subspace.zero(alg.dim)
    groups: list[tuple[Subspace, int]] = []
    for f in factors:
        for g, (space, count) in enumerate(groups):
            if space == f:
                groups[g] = (space, count + 1)
                break
        else:
            groups.append((f, 1))
    builder = SpanBuilder(alg.dim)
    choice_sets = [
        list(combinations(space.rows.values(), count)) for space, count in groups
    ]
    for picks in product(*choice_sets):
        rows: list[SparseVector] = []
        for pick in picks:
            rows.extend(pick)
        builder.insert(alg.bracket(*rows))
        if builder.dim == alg.dim:
            break
    return builder.subspace()


def _ad_images(dim: int, rows: Iterable[dict], maps: Collection[dict]) -> Subspace:
    """The span of the ad(e_J)(v) = [v, e_J] for v in ``rows`` and the maps
    ad(e_J) in ``maps`` (as in ``StructureAlgebra._ad``) of an algebra of
    dimension ``dim``: sparse integer matrix-vector products, with no
    argument sorting, and with no Fractions when ``rows`` are integer rows.

    With every map and a basis of a subspace S this is [S, L, ..., L], by
    multilinearity and antisymmetry.  With the maps of the (n-1)-subsets of
    a generating set X of basis vectors and a basis of an ideal U it is
    [U, L, ..., L] as well, by part (iii) of the lemma below.

    Lemma.  Let L be generated by the set X of basis vectors, let x_J range
    over the (n-1)-subsets J of X, and let U be an ideal with basis
    u_1, ..., u_k.
      (i)   The span V of the [u_i, x_J] is closed under every ad(x_K).
      (ii)  A subspace closed under every ad(x_J) is an ideal.
      (iii) V = [U, L, ..., L].
      (iv)  If Z is an ideal and [z, x_J] lies in Z for every J, then
            [z, y_1, ..., y_{n-1}] lies in Z for all y in L: z is central
            modulo Z.

    Proof.  (i) [u_i, x_J] lies in the ideal U, so it is a combination of
    the u_l, and ad(x_K) of it is the same combination of the [u_l, x_K].
    For the rest: L is spanned by the bracket words in X; the degree of a
    word is the number of letters from X in it.  Everything is multilinear,
    so it is enough to take y_1, ..., y_{n-1} words and to induct on their
    total degree D.  For D = n - 1 all y_i are letters, and each claim holds
    by hypothesis (for (iii), u is a combination of the u_i).  Otherwise
    some y_i is not a letter; by antisymmetry take it to be
    y_{n-1} = [z_1, ..., z_n], with words z_i of smaller degree.  As
    ad(u, y_1, ..., y_{n-2}) is a derivation (the Filippov identity),

        [u, y_1, ..., y_{n-2}, [z_1, ..., z_n]]
            = sum_i [z_1, ..., [u, y_1, ..., y_{n-2}, z_i], ..., z_n].

    In each term the inner bracket has arguments y_1, ..., y_{n-2}, z_i of
    total degree below D, and the outer bracket applies the z_j, j != i, of
    total degree deg(y_{n-1}) - deg(z_i) < D, to it.
      (ii)  For u in the subspace the inner bracket lies in it by
            induction, and then the outer one does too, by induction again.
      (iii) V lies in [U, L, ..., L].  Conversely, for u in U the inner
            bracket lies in [U, L, ..., L] with degree below D, so in V by
            induction, and V is an ideal by (i) and (ii).
      (iv)  The inner bracket lies in Z by induction, and Z is an ideal.

    Each map may be scaled by its own positive constant (see
    ``StructureAlgebra._ad``), which changes no span.
    """
    builder = SpanBuilder(dim)
    for vec in rows:
        for ad in maps:
            if image := apply_rows(vec, ad):
                builder.insert(image)
    return builder.subspace()


def lower_central_series(alg: StructureAlgebra) -> list[Subspace]:
    """Descending chain: the whole algebra, then iterated bracket products
    with the whole algebra, up to and including the first stable term."""
    return list(alg._lower_series)


def nilpotency_class(alg: StructureAlgebra) -> int | None:
    """Nilpotency class, or None when the lower series stabilizes above zero."""
    chain = alg._lower_series
    if chain[-1].dim != 0:
        return None
    return len(chain) - 1


def gamma_term(alg: StructureAlgebra, k: int) -> Subspace:
    """k-th term of the lower central series (k >= 1), with the stable tail
    extended indefinitely."""
    if k < 1:
        raise ValueError("lower central series starts at index 1")
    chain = alg._lower_series
    return chain[min(k - 1, len(chain) - 1)]


def upper_central_series(alg: StructureAlgebra) -> list[Subspace]:
    """Ascending chain from zero, each step the full preimage of the center
    of the quotient, up to and including the first stable term."""
    return list(alg._upper_series)


def _central_annihilators(
    dim: int, ads: Iterable[dict], top: int | None = None, base: Subspace | None = None,
) -> list[Subspace]:
    """The annihilators A_k of the upper central series modulo the ideal
    ``base`` (default 0) of an algebra of dimension ``dim``, whose k-th term
    Z_k is the preimage of Z_k(alg / base): A_0 = ann(base), and A_{k+1} is
    :func:`_ad_images` of A_k under the transposes of the maps ``ads``
    (as in ``StructureAlgebra._ad``).  The chain goes up to the
    ``top``-th term if given, or until A_k is 0 or stable.

    Lemma.  Z_{k+1} = {x : [x, e_J] in Z_k for every J}.  For a linear map
    T, ann(T^-1 W) = T*(ann W), and the annihilator of an intersection is
    the sum of the annihilators, so ann Z_{k+1} = sum_J {f o ad(e_J) : f in
    ann Z_k}.  With all (n-1)-subsets of the basis this is the definition;
    with the (n-1)-subsets of a generating set of basis vectors it is the
    same chain, by part (iv) of the lemma in :func:`_ad_images`.  Scaling
    each map by its own D > 0 (``StructureAlgebra._ad``) changes no span.
    On a graded algebra of top weight t, ad(x_J) raises the weight by one,
    so A_k vanishes from weight t+1-k on by itself."""
    maps: list[dict[int, dict[int, int]]] = []
    for ad in ads:
        transposed: dict[int, dict[int, int]] = {}
        for i, row in ad.items():
            for j, x in row.items():
                transposed.setdefault(j, {})[i] = x
        maps.append(transposed)
    chain = [Subspace.full(dim) if base is None else Subspace.from_vectors(annihilator(base), dim)]
    while chain[-1].dim and (top is None or len(chain) <= top):
        nxt = _ad_images(dim, chain[-1].rows.values(), maps)
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return chain


def _upper_central_series(alg: StructureAlgebra, tuples, top=None, base=None) -> list[Subspace]:
    """The terms Z_k = ann(A_k) of :func:`_central_annihilators` for the
    maps of ``tuples`` (a tuple missing from ``alg._ad`` maps to zero)."""
    chain = _central_annihilators(alg.dim, [alg._ad.get(t, {}) for t in tuples], top, base)
    return [Subspace.from_vectors(annihilator(a), alg.dim) for a in chain]


def z_term(alg: StructureAlgebra, c: int) -> Subspace:
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


def is_ideal(alg: StructureAlgebra, sub: Subspace) -> bool:
    _require_ambient(alg, sub)
    # [sub, L, ..., L] is spanned by the ad(e_J)(b), b in the basis of sub
    return all(
        sub.contains_vector(apply_rows(b, ad)) for ad in alg._ad.values() for b in sub.rows.values()
    )


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
    alg: StructureAlgebra, ideal: Subspace
) -> tuple[StructureAlgebra, tuple[int, ...]]:
    """Quotient by an ideal, on the echelon-complement coordinates.

    Returns the quotient algebra and the complement coordinates; the class of
    e_j for j in the complement is the j-th quotient basis vector.
    """
    if not is_ideal(alg, ideal):
        raise ValueError("quotient requires an ideal")
    return _quotient(alg, ideal)


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
    alg: StructureAlgebra, space: Subspace, names: tuple[str, ...] | None = None
) -> StructureAlgebra:
    """The algebra induced on a bracket-closed subspace, in the coordinates
    of its echelon basis rows.  The table loop is the closure check: by
    multilinearity the subspace is closed iff every bracket of its basis
    rows stays inside it."""
    _require_ambient(alg, space)
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
            raise ValueError("subspace is not closed under the bracket")
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


def _is_int(x) -> bool:
    """Whether ``x`` is a JSON integer: ``bool`` subclasses ``int``, but a
    JSON ``true`` is not a number."""
    return isinstance(x, int) and not isinstance(x, bool)


def from_json_dict(obj) -> StructureAlgebra:
    _expect(isinstance(obj, dict), "$", "expected a JSON object")
    for key in ("n", "dim", "basis", "brackets"):
        _expect(key in obj, f"$.{key}", "missing field")
    n, dim = obj["n"], obj["dim"]
    _expect(_is_int(n) and n >= 2, "$.n", "arity must be an integer >= 2")
    _expect(_is_int(dim) and dim >= 0, "$.dim", "dimension must be a nonnegative integer")
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
        _expect(all(_is_int(i) and 1 <= i <= dim for i in args), f"{path}.args",
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
            _expect(all(map(_is_int, triplet)), tpath, "entries must be integers")
            _expect(den != 0, tpath, "zero denominator")
            _expect(1 <= pos <= dim, tpath, "basis index out of range")
            coeff = Fraction(num, den)
            if coeff:
                row[pos - 1] = row.get(pos - 1, _F0) + coeff
        table[key] = row
    return StructureAlgebra(n, dim, tuple(basis), table)
