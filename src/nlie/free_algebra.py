"""Free n-Lie algebras: graded components and free nilpotent quotients.

The free algebra on d ordered generators is graded by weight (a weight-w
element has (w-1)(n-1)+1 generator leaves).  Each weight layer is the span
of canonical bracket trees modulo all generalized Jacobi relations of that
weight: identity instances on canonical trees, plus the relations of the
weight below wrapped in one bracket slot with generators in the others
(see :func:`_wrapped_relation_rows`).  The relations keep the multiset of
generator leaves, so a layer is eliminated one multidegree block at a time,
one block per orbit of the generator permutations (see
:func:`graded_component`).  The layer dimension is the rank oracle used
everywhere else as ground truth; a layer's reduced echelon basis is built
only when something reads it (see :class:`GradedComponent`).

Inside the module every canonical tree is an int id.  Per (n, d), one
:class:`_TreeIds` table, grown weight by weight, numbers the canonical
trees in the total tree order: generator g is id g, then each weight layer
follows as one contiguous id range, so a layer column is id - start(w).
A bracket is a tuple of ids, canonicalized by one flat
:func:`canonicalize` and one dict lookup.  Nested tuples appear only at
the boundaries, :func:`canon_trees`, :class:`GradedComponent` and
:class:`FreeNilpotentAlgebra`, built only when one of them reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, combinations_with_replacement, count, groupby, product, repeat
from math import comb, factorial, lcm, prod
from typing import Callable, Collection, Iterable, Iterator

from .algebra import StructureAlgebra
from .linalg import SpanBuilder, Subspace
from .trees import Tree, canonicalize, tree_to_str

DEFAULT_MAX_TREES = 200_000

_TREE_IDS: dict[tuple[int, int], "_TreeIds"] = {}
_COMPONENT_CACHE: dict[tuple[int, int, int], "GradedComponent"] = {}
_FREE_CACHE: dict[tuple[int, int, int], "FreeNilpotentAlgebra"] = {}


class ResourceLimitError(RuntimeError):
    """A tree-enumeration guard was exceeded."""


def _leaves(n: int, w: int) -> int:
    """The number of generator leaves of a weight-w tree."""
    return (w - 1) * (n - 1) + 1


def _key_base(n: int, w: int) -> int:
    """Digit base of the multidegree keys up to weight w: one more than the
    number of leaves of a weight-w tree, so no digit overflows."""
    return _leaves(n, w) + 1


def _encoded(m: tuple[int, ...], base: int) -> int:
    """The key of the multidegree ``m`` in ``base``: sum_g m_g * base**(g-1)."""
    return sum(x * base**i for i, x in enumerate(m))


class _TreeIds:
    """The canonical trees on d generators, interned as int ids in the total
    tree order: generator g is id g, then every canonical tree of weight 2,
    then of weight 3, and so on.  Grown a weight at a time by
    :func:`_tree_ids`.

    * ``ids`` maps the kid-id tuple of a bracket to its id, and ``kids``
      maps an id back (``()`` for a generator and for the unused id 0);
    * ``starts[w]`` is the first id of weight w, ``starts[w + 1]`` one past
      its last;
    * ``runs`` maps each weight that has trees to its id range, ascending;
    * ``layer(w)`` gives the weight-w trees as nested tuples, built on first
      read (with every layer below) and kept;
    * ``multidegrees(w)`` gives the leaf multidegree keys of the trees of
      weight below w, each layer keyed when a caller first reads it.

    A canonical tree of weight w is a strictly increasing tuple of n
    canonical trees of weights summing to w + n - 2, and the tree order
    compares brackets by weight, then children lexicographically.  So
    :func:`_increasing_tuples` lists each layer in tree order.
    """

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.ids: dict[tuple[int, ...], int] = {}
        self.kids: list[tuple[int, ...]] = [()] * (d + 1)
        self.starts = [0, 1, d + 1]
        self.runs = {1: range(1, d + 1)} if d else {}
        self._nested: list[Tree] = [None, *range(1, d + 1)]
        self._layers: dict[int, tuple[Tree, ...]] = {}
        self._keys: list[int] = []
        self._base = 0

    @property
    def top(self) -> int:
        return len(self.starts) - 2

    def add_layer(self, max_trees: int | None) -> None:
        """Intern the canonical trees of the next weight.  A layer of more
        than ``max_trees`` trees raises before any of it is built."""
        n, v = self.n, self.top + 1
        runs, total = self.runs, v + n - 2
        size = sum(prod(comb(len(r), k) for r, k in g) for g in _run_groups(runs, n, total))
        if max_trees is not None and size > max_trees:
            raise ResourceLimitError(
                f"more than {max_trees} canonical trees at (n={n}, d={self.d}, w={v})"
            )
        combos = _increasing_tuples(runs, n, total)
        start = len(self.kids)
        self.ids.update(zip(combos, range(start, start + len(combos))))
        self.kids.extend(combos)
        self.starts.append(start + len(combos))
        if combos:
            runs[v] = range(start, start + len(combos))

    def layer(self, w: int) -> tuple[Tree, ...]:
        """The weight-w trees (w <= top) as nested tuples."""
        got = self._layers.get(w)
        if got is None:
            nested, kids, end = self._nested, self.kids, self.starts[w + 1]
            for i in range(len(nested), end):
                nested.append(tuple(nested[k] for k in kids[i]))
            got = self._layers[w] = tuple(nested[self.starts[w]:end])
        return got

    def multidegrees(self, w: int) -> tuple[list[int], int]:
        """``(keys, base)`` for a table grown to weight w or more: keys[i] is
        the leaf multidegree (m_1, ..., m_d) of tree i encoded as the int
        sum_g m_g * base**(g-1), for every tree of weight below w; a
        bracket's key is the sum of its kids'.  The base is fixed at the
        first read so that no multidegree up to the table's top weight
        overflows, and everything is keyed again only if a table grown
        later is read past it.  A cold :func:`graded_component` and
        :func:`free_nilpotent` grow the table first, so never key twice."""
        if _key_base(self.n, w) > self._base:
            base = self._base = _key_base(self.n, self.top)
            self._keys = [0] + [base**g for g in range(self.d)]
        keys = self._keys
        # kids have lower ids than their bracket, so each key appended here
        # reads only keys appended before it
        keys.extend(sum(map(keys.__getitem__, kids)) for kids in self.kids[len(keys):self.starts[w]])
        return keys, self._base


def _tree_ids(n: int, d: int, w: int, max_trees: int | None = DEFAULT_MAX_TREES) -> _TreeIds:
    """The id table of (n, d), grown to weight w a layer at a time."""
    if n < 2:
        raise ValueError("arity must be at least 2")
    if d < 0 or w < 1:
        raise ValueError("need d >= 0 and w >= 1")
    table = _TREE_IDS.get((n, d)) or _TREE_IDS.setdefault((n, d), _TreeIds(n, d))
    while table.top < w:
        table.add_layer(max_trees)
    return table


def canon_trees(n: int, d: int, w: int, max_trees: int | None = DEFAULT_MAX_TREES) -> tuple[Tree, ...]:
    """All canonical trees of weight w on d generators, ascending in the
    total tree order.  The layers below w are interned first."""
    return _tree_ids(n, d, w, max_trees).layer(w)


def _run_groups(runs: dict[int, range], slots: int, total: int) -> Iterator[list[tuple[range, int]]]:
    """For each nondecreasing sequence of ``slots`` weights of ``runs``
    (ascending keys) summing to ``total``: the run of each distinct weight
    in it with its number of uses, by ascending weight."""
    for seq in combinations_with_replacement(runs, slots):
        if sum(seq) == total:
            yield [(runs[v], len(list(group))) for v, group in groupby(seq)]


def _increasing_tuples(runs: dict[int, range], slots: int, total: int) -> list[tuple[int, ...]]:
    """Every strictly increasing tuple of ``slots`` ids with weights summing
    to ``total``, in lexicographic order.  ``runs`` maps each weight,
    ascending, to its nonempty id range, and ids ascend with weight, so such
    a tuple is a nondecreasing weight sequence with k increasing ids of the
    run of each weight used k times: a product of combinations, joined."""
    out: list[tuple[int, ...]] = []
    for groups in _run_groups(runs, slots, total):
        parts = product(*(combinations(run, k) for run, k in groups))
        out.extend(map(sum, parts, repeat(())))
    out.sort()
    return out


class GradedComponent:
    """One weight layer of the free n-Lie algebra on d generators.

    The relation span R_w is kept as integer rows per multidegree block
    (m_1, ..., m_d): the builder's semi-echelon rows for each orbit
    representative (a zero-padded partition of the leaf count) that has
    relations, and for every other block the representative's rows
    relabelled (:func:`_orbit_move`) when :meth:`block_rows` first asks,
    then kept.  Each block's rows are a basis of its part of R_w, so
    ``rank`` is the sum over the representatives of their rank times their
    number of rearrangements.  ``block_keys``, R_w as a :class:`Subspace`
    (``relations``), the layer basis (``basis_indices``,
    ``basis_position``), the tree index and the nested ``trees`` are built
    on first read; dimension-only callers build none of them.
    """

    def __init__(
        self, n: int, d: int, w: int, table: "_TreeIds",
        reps: dict[tuple[int, ...], list[dict[int, int]]],
    ):
        self.n, self.d, self.w = n, d, w
        self.width = table.starts[w + 1] - table.starts[w]
        self.rank = sum(len(rows) * _orbit_size(r) for r, rows in reps.items())
        self._table = table
        self._blocks = reps

    @staticmethod
    def build(
        n: int, d: int, w: int, table: "_TreeIds", builders: dict[tuple[int, ...], SpanBuilder],
    ) -> "GradedComponent":
        """The component of a layer from its orbit representatives' builders."""
        return GradedComponent(n, d, w, table, {r: [*b.rows.values()] for r, b in builders.items()})

    @property
    def trees(self) -> tuple[Tree, ...]:
        return self._table.layer(self.w)

    @cached_property
    def block_keys(self) -> tuple[tuple[int, ...], ...]:
        """The multidegrees of the blocks with relations, ascending."""
        reps = [r for r in self._blocks if r == _representative(r)]
        return tuple(sorted(m for r in reps for m in _rearrangements(r)))

    def block_rows(self, m: tuple[int, ...]) -> list[dict[int, int]]:
        """Integer rows forming a basis of the multidegree-m part of R_w
        (columns = layer positions); not copies.  Empty for a block with
        no relations."""
        rows = self._blocks.get(m)
        if rows is None:
            rep, perm = _orbit_move(m)
            if rep not in self._blocks:
                return []
            table = self._table
            relabel = _relabelling(table, perm)
            rows = self._blocks[m] = _transported(self._blocks[rep], relabel, table.starts[self.w])
        return rows

    @cached_property
    def relations(self) -> Subspace:
        """R_w: one elimination of each block's rows (the blocks have
        disjoint columns)."""
        rows: dict[int, dict[int, int]] = {}
        for m in self.block_keys:
            rows.update(Subspace.from_vectors(self.block_rows(m), self.width).rows)
        return Subspace(self.width, rows)

    @cached_property
    def basis_indices(self) -> tuple[int, ...]:
        return self.relations.complement_coords()

    @cached_property
    def basis_position(self) -> dict[int, int]:
        return {idx: pos for pos, idx in enumerate(self.basis_indices)}

    @cached_property
    def tree_index(self) -> dict[Tree, int]:
        return {t: i for i, t in enumerate(self.trees)}

    @property
    def dim(self) -> int:
        return self.width - self.rank

    @property
    def basis_trees(self) -> tuple[Tree, ...]:
        return tuple(map(self.trees.__getitem__, self.basis_indices))

    def reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Residue of a vector modulo R_w, on the basis coordinates."""
        return self.relations.reduce(vec)

    def coordinates(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Coordinates of a weight-w vector over the layer basis."""
        positions = self.basis_position
        return {positions[i]: c for i, c in self.reduce(vec).items()}


def _add_bracket(row: dict[int, int], coeff, kids: tuple[int, ...], ids: dict, start: int) -> None:
    """Add coeff times the bracket of the interned trees ``kids`` to ``row``,
    whose columns are the ids of one layer minus its ``start``."""
    sign, ct = canonicalize(kids)
    if sign == 0:
        return
    j = ids[ct] - start
    nv = row.get(j, 0) + (coeff if sign > 0 else -coeff)
    if nv:
        row[j] = nv
    else:
        row.pop(j, None)


def _instance_row(
    ts: tuple[int, ...], ss: tuple[int, ...], ids: dict, start: int
) -> dict[int, int]:
    """The identity instance [ts, ss] = sum_i [t_1, ..., [t_i, ss], ..., t_n]
    as an integer row, for canonical id tuples ``ts`` (n trees, so itself a
    canonical tree) and ``ss`` (n - 1 trees)."""
    row: dict[int, int] = {}
    _add_bracket(row, 1, (ids[ts],) + ss, ids, start)
    for i, t in enumerate(ts):
        sign, inner = canonicalize((t,) + ss)
        if sign:
            _add_bracket(row, -sign, ts[:i] + (ids[inner],) + ts[i + 1:], ids, start)
    return row


def _identity_instance_rows(
    n: int, w: int, table: _TreeIds, keys: list[int], wanted: dict[int, tuple[int, ...]],
) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """Direct Jacobi-identity instances of weight w on canonical trees, with
    their multidegrees; only those whose multidegree key (in ``keys``, the
    table's keys of the trees below weight w) is in ``wanted``, which maps
    it to the multidegree.  For n = 2 and n = 3 an instance (ts, ss) is
    generated only when ss[-1] > ts[-1] or ss[0] > ts[1], one per span
    class; for n >= 4 every pair is.

    For n = 2 that is one instance per set of three trees a < b < c: the
    one with ts = (a, b) and ss = (c,).  The row of ts = (t1, t2), ss = (s)
    is C(t1, t2, s) = [[t1,t2],s] + [[t2,s],t1] + [[s,t1],t2].  A cyclic
    shift of the arguments permutes its terms, and swapping t1 and t2
    negates every term while trading the last two, so C is alternating:
    the instances on {a, b, c} are all +-C(a, b, c) (0 on a repeat).

    For n = 3, with ts = (t1, t2, t3) and ss = (s1, s2), the instances
    split by how many trees ts and ss share:

    * two: J((a,b,c),(a,b)) = [[a,b,c],a,b] - [a,b,[c,a,b]] = 0, since
      (x,a,b) -> (a,b,x) is an even permutation.  None is kept: s2 <= t3,
      and s1 > t2 would put s2 above t3;
    * one, a: J((a,b,c),(a,s)) = [[a,b,c],a,s] - [a,[b,a,s],c] -
      [a,b,[c,a,s]] has the terms {[a,b,c],a,s}, {[a,b,s],a,c} and
      {[a,c,s],a,b}, and trading two of b, c, s permutes those terms and
      negates each (a hand check), so the row is alternating in (b, c, s).
      The one arrangement kept is the one whose unshared tree of ss is the
      largest of the three: s2 > t3 when a = s1, and s1 > t2 when
      a = s2 = t3;
    * none: the 10 splits of five distinct trees span a 5-dim space, and
      the 5 kept, where ss holds the largest tree or ss = {3rd, 4th}, are
      a basis of it (checked over letters, the block (1,1,1,1,1) of
      (n, d, w) = (3, 5, 3)).

    Each fact is an identity over letters x1..x5.  Substituting canonical
    trees T1 < ... < T5 for the letters is linear and commutes with
    canonicalizing, as in the relabelling lemma of
    :func:`graded_component` (the free alternating algebra maps to any
    choice of trees), so every skipped instance lies in the span of the
    kept ones, and the generated rows span the same R_w."""
    ids, start, kids, runs = table.ids, table.starts[w], table.kids, table.runs
    for u in range(2, w):
        company = [
            (ss, sum(keys[s] for s in ss)) for ss in _increasing_tuples(runs, n - 1, w - u + n - 2)
        ]
        # the n-tuples of weight u + n - 2 are the interned trees of weight u
        for t in range(table.starts[u], table.starts[u + 1]):
            ts, t_key = kids[t], keys[t]
            # ids are >= 1, so for n >= 4 no ss is skipped
            top, second = (ts[-1], ts[1]) if n < 4 else (0, 0)
            for ss, s_key in company:
                if ss[-1] <= top and ss[0] <= second:
                    continue
                m = wanted.get(t_key + s_key)
                if m is None:
                    continue
                row = _instance_row(ts, ss, ids, start)
                if row:
                    yield m, row


def _wrapped_relation_rows(
    n: int, d: int, w: int, table: _TreeIds, targets: Iterable[tuple[int, ...]],
    max_trees: int | None,
) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """The block rows of R_{w-1} (a basis of it, see
    :func:`graded_component`) placed in one slot of a bracket with an
    increasing tuple of n - 1 generators in the others, for the target
    multidegrees ``targets`` only: the block m - p of R_{w-1} with the
    payload p.  A block is relabelled only when some target asks for it.

    Lemma.  Together with the identity instances of weight w, these rows
    span every wrap [r, p_1, ..., p_{n-1}] with r in R_v, v < w, and
    canonical trees p_i of complementary weights, so they span R_w.

    Proof, by induction on w - v.  For v = w - 1 the payloads have total
    weight n - 1, so they are generators: a combination of the generated
    rows (wrapping is linear in r, and a repeated generator gives 0).
    Take a wrap [r, p_1, ..., p_{n-1}], r in R_v, with v < w - 1; by
    weight, some payload is a bracket p = [z_1, ..., z_n].  Wrapping is
    linear in r, so let r = sum_tau c_tau tau over trees tau of weight v,
    and let q be the other payloads.  The instance
    J((z_1, ..., z_n), (tau, q)), which lies in the span of the generated
    instances (see :func:`_identity_instance_rows`), summed with the
    c_tau, reads [p, r, q] = sum_i [z_1, ..., [z_i, r, q], ..., z_n],
    which rewrites the wrap as +- sum_i [z_1, ..., [z_i, r, q], ..., z_n].
    Each inner bracket [z_i, r, q] is a wrap of r with lighter payloads,
    of weight v' with v < v' < w, so it lies in R_{v'} (R is an ideal, and
    by induction on the weight the rows computed for R_{v'} span all of
    it).  The outer bracket then wraps that element of R_{v'} with the
    payloads z_j, so it is a wrap at weight w with w - v' < w - v, and lies
    in the span by induction.

    Shift lemma.  Generators come first in the tree order, so for a tree t
    of weight w - 1 >= 2 the bracket [t, p_1, ..., p_{n-1}] is the
    canonical tree (p, t), with the sign (-1)^(n-1) of moving t past the
    n - 1 generators.  The layer is listed lexicographically by kid tuple,
    so the (p, t) for t of weight w - 1 are one contiguous run of ids in
    the order of t, and the column of (p, t) is ids[p + (starts[w-1],)] -
    starts[w] plus the column of t: a wrapped row is the lower row shifted
    by that much, negated when n - 1 is odd, with no lookup per entry."""
    lower = graded_component(n, d, w - 1, max_trees)
    ids, start, offset = table.ids, table.starts[w], table.starts[w - 1]
    sign = -1 if (n - 1) % 2 else 1
    payloads = list(combinations(range(1, d + 1), n - 1))
    for m in targets:
        for payload in payloads:
            below = list(m)
            for g in payload:
                below[g - 1] -= 1
            if min(below) < 0:
                continue
            relations = lower.block_rows(tuple(below))
            if relations:
                shift = ids[payload + (offset,)] - start
                for relation in relations:
                    yield m, {shift + col: sign * x for col, x in relation.items()}


def _relation_rows(
    n: int, d: int, w: int, targets: Collection[tuple[int, ...]], max_trees: int | None,
) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """Generated integer relation rows of weight w with their multidegrees,
    for the target multidegrees ``targets`` only: an instance whose key is
    not a target's is skipped before any tree is canonicalized."""
    table = _tree_ids(n, d, w, max_trees)
    if w < 3 or table.starts[w] == table.starts[w + 1]:
        return  # no identity instance fits below weight 3; an empty layer has no rows
    keys, base = table.multidegrees(w)
    wanted = {_encoded(m, base): m for m in targets}
    yield from _identity_instance_rows(n, w, table, keys, wanted)
    yield from _wrapped_relation_rows(n, d, w, table, targets, max_trees)


def filippov_relations(
    n: int, d: int, w: int, max_trees: int | None = DEFAULT_MAX_TREES
) -> list[dict[int, int]]:
    """Every generated relation row of weight w, as sparse integer coordinate
    vectors over ``canon_trees(n, d, w)``: the identity instances (for
    n = 2 and 3 one per span class, see :func:`_identity_instance_rows`)
    and the wrapped relations of weight w - 1 (see
    :func:`_wrapped_relation_rows`), in every multidegree.  Empty for
    w <= 2 (no identity instance fits below weight 3)."""
    every = [m for r in _partitions(_leaves(n, w), d) for m in _rearrangements(r)]
    return [row for _, row in _relation_rows(n, d, w, every, max_trees)]


def _relabelling(table: _TreeIds, perm: tuple[int, ...]) -> Callable[[int], tuple[int, int]]:
    """The generator relabelling g -> perm[g] on interned trees, as a map
    id -> (sign, id) of the canonical image, filled lazily by
    :func:`_relabelled` (a partial, so the map makes no reference cycle)."""
    image = {g: (1, perm[g]) for g in range(1, len(perm))}
    return partial(_relabelled, table.kids, table.ids, image)


def _relabelled(
    kids: list[tuple[int, ...]], ids: dict, image: dict[int, tuple[int, int]], tree: int
) -> tuple[int, int]:
    """The image of ``tree`` under the relabelling whose known images are
    ``image``, filled bottom-up: a bracket's image is the canonicalized
    tuple of its kids' images."""
    hit = image.get(tree)
    if hit is None:
        sign, moved = 1, []
        for kid in kids[tree]:
            s, j = _relabelled(kids, ids, image, kid)
            sign *= s
            moved.append(j)
        s, ct = canonicalize(tuple(moved))
        hit = image[tree] = (sign * s, ids[ct])
    return hit


def _transported(
    rows: Iterable[dict[int, int]], relabel: Callable[[int], tuple[int, int]], start: int
) -> list[dict[int, int]]:
    """``rows`` (columns = ids - ``start``) under the relabelling map
    ``relabel``: each column moves to its image's column, negated on a
    negative sign."""
    out = []
    for row in rows:
        image = {}
        for col, x in row.items():
            sign, j = relabel(start + col)
            image[j - start] = x if sign > 0 else -x
        out.append(image)
    return out


def _representative(m: tuple[int, ...]) -> tuple[int, ...]:
    """The representative of the S_d orbit of the multidegree m: its
    nonincreasing rearrangement."""
    return tuple(sorted(m, reverse=True))


def _orbit_move(m: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(r, perm)``: the representative r of the orbit of m and a
    relabelling perm of r onto m (perm[g] is the new label of generator g,
    perm[0] unused): m[perm[i+1]-1] = r[i]."""
    order = sorted(range(len(m)), key=m.__getitem__, reverse=True)
    return tuple(map(m.__getitem__, order)), (0, *(j + 1 for j in order))


def _partitions(total: int, parts: int, top: int | None = None) -> list[tuple[int, ...]]:
    """The nonincreasing ``parts``-tuples of nonnegative ints (none above
    ``top``) summing to ``total``: the partitions of ``total`` into at
    most ``parts`` parts, padded with zeros, in descending order."""
    if parts == 0:
        return [] if total else [()]
    top = total if top is None else min(top, total)
    least = -(-total // parts)  # the first part is at least the mean
    return [(x,) + rest for x in range(top, least - 1, -1)
            for rest in _partitions(total - x, parts - 1, x)]


def _rearrangements(r: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct rearrangements of the tuple r."""
    if not r:
        return [()]
    out = []
    for x in dict.fromkeys(r):
        rest = list(r)
        rest.remove(x)
        out.extend((x,) + tail for tail in _rearrangements(tuple(rest)))
    return out


def _orbit_size(r: tuple[int, ...]) -> int:
    """The number of distinct rearrangements of the nonincreasing tuple r."""
    return factorial(len(r)) // prod(factorial(len(list(g))) for _, g in groupby(r))


def graded_component(
    n: int, d: int, w: int, max_trees: int | None = DEFAULT_MAX_TREES
) -> GradedComponent:
    """The weight-w layer of the free n-Lie algebra on d generators.

    The layer is eliminated block by block.  Every generated relation row
    is multihomogeneous: all terms of an identity instance, or of a lower
    relation row wrapped with a payload, have the same multiset of
    generator leaves.  So the relation span R_w is the direct sum of its
    parts R_w(m) in the blocks of trees with leaf multidegree m, and R_w(m)
    is spanned by the generated rows of multidegree m.

    Lemma.  For sigma in S_d relabelling the generators, let sigma send
    the coordinate vector of a canonical tree t to sign * e_c, where
    ``canonicalize(sigma t) == (sign, c)`` (sign is never 0: relabelling is
    injective on canonical trees, so no node gets two equal children).
    Then sigma R_w = R_w, hence R_w(sigma m) = sigma R_w(m).

    Proof.  The vector of a bracket is alternating and multilinear in the
    vectors of its children (that is what canonicalizing computes), and
    relabelling commutes with bracketing, so by induction on the tree
    sigma maps the vector of any tree t to the vector of sigma t: sigma
    commutes with expanding a formal sum of trees.  An identity instance
    J(ts, ss) therefore maps to J(sigma ts, sigma ss).  J is multilinear
    and alternating in ts and in ss separately, so that is +-J(ts', ss'),
    where ts' and ss' are the canonical forms of sigma ts and sigma ss
    sorted ascending: an instance on pool tuples of the same weights, so
    in the span of the generated instances (see
    :func:`_identity_instance_rows`).  By induction on the weight,
    sigma R_v = R_v for v < w (nothing lies below weight 3).  A wrapped
    row [r, p] with r in R_v maps
    to [sigma r, sigma p] = +-[sigma r, p'] for the sorted canonical
    payload p'; sigma r is a combination of any basis b of R_v, so this is
    a combination of the generated rows [b, p'].  So sigma maps a spanning
    set of R_w into R_w, and sigma R_w = R_w since sigma is invertible.
    Relabelling sends multidegree m to sigma m, which gives the block
    statement.

    Rank and basis.  sigma is a signed permutation of the columns, so it
    is invertible and carries R_w(m) isomorphically onto R_w(sigma m): the
    relabelled rows of any basis of R_w(m) are a basis of R_w(sigma m),
    and rank R_w(sigma m) = rank R_w(m).  The blocks of a layer are closed
    under S_d (relabelling is a bijection on its canonical trees), so
    rank R_w is the sum over the nonincreasing multidegrees r of
    rank R_w(r) times the size of the S_d orbit of r.

    So rows are generated only for one multidegree per S_d orbit, the
    zero-padded partitions of the leaf count (w-1)(n-1)+1 into at most d
    parts, each eliminated in its own builder, whose semi-echelon integer
    rows are a basis of that block.  A builder gets its rows in descending
    order of first column, ties in generation order.  The first columns of
    any semi-echelon basis of a span are the leading columns of its
    vectors, so the order changes the stored rows but not their span; in
    it, only rows that share a first column get cleared.  The blocks with
    relations are the rearrangements of the representatives whose builder
    got rows, so no key of a weight-w tree is read.  Every other block
    holds the representative's rows relabelled, with no re-reduction, on
    first use.  The next weight wraps these block rows as they are:
    wrapping is linear in the lower row, so any basis of R_{w-1} generates
    the same R_w.  Only the :class:`Subspace` form of R_w eliminates each
    block's rows once more; the blocks have disjoint columns, so the union
    of their subspace rows is the same unique form one elimination of all
    generated rows gives (``filippov_relations``, kept as a test oracle).
    """
    key = (n, d, w)
    cached = _COMPONENT_CACHE.get(key)
    if cached is not None:
        return cached
    table = _tree_ids(n, d, w, max_trees)
    builders: dict[tuple[int, ...], SpanBuilder] = {}
    width = table.starts[w + 1] - table.starts[w]
    # popped in descending order of first column, ties in the order they
    # were generated; each row is dropped once it is inserted
    rows = [*_relation_rows(n, d, w, _partitions(_leaves(n, w), d), max_trees)][::-1]
    rows.sort(key=lambda pair: min(pair[1]))
    while rows:
        m, row = rows.pop()
        builder = builders.get(m)
        if builder is None:
            builder = builders[m] = SpanBuilder(width)
        builder.insert(row, owned=True)
    return _COMPONENT_CACHE.setdefault(key, GradedComponent.build(n, d, w, table, builders))


def graded_dimension(n: int, d: int, w: int, max_trees: int | None = DEFAULT_MAX_TREES) -> int:
    """Rank-oracle dimension of the weight-w layer."""
    return graded_component(n, d, w, max_trees).dim


@dataclass(frozen=True)
class FreeNilpotentAlgebra:
    """Free nilpotent quotient of the free n-Lie algebra: all layers of
    weight <= k.  Basis vector i is the tree ``basis_ids[i]`` of the id
    table ``ids``.  The multiplier reads the bracket through
    ``generator_maps`` and :meth:`brackets_below`; the Fraction table
    (``algebra``), the nested ``basis_trees`` and the basis names are built
    only when something reads them."""

    n: int
    d: int
    k: int
    components: tuple[GradedComponent, ...]
    weights: tuple[int, ...]
    layer_offsets: tuple[int, ...]
    basis_ids: tuple[int, ...]
    ids: _TreeIds = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def layer_dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    def layer_span(self, w_min: int) -> Subspace:
        """Span of the basis vectors of weight >= w_min."""
        return Subspace(self.dim, {i: {i: 1} for i in range(self.dim) if self.weights[i] >= w_min})

    @cached_property
    def basis_trees(self) -> tuple[Tree, ...]:
        return tuple(t for comp in self.components for t in comp.basis_trees)

    @cached_property
    def basis_names(self) -> tuple[str, ...]:
        return tuple(map(tree_to_str, self.basis_trees))

    @cached_property
    def algebra(self) -> StructureAlgebra:
        return StructureAlgebra(self.n, self.dim, self.basis_names, self.brackets_below(self.dim))

    def _coordinates(self, tree: int, w: int) -> tuple[int, dict[int, int]]:
        """``(den, row)``: den times the coordinates of the weight-w ``tree``
        over E's basis.  A ``relations`` row r is 0 at the other pivots, so
        column p of r has remainder -(r - r_p e_p) / r_p; others are basic."""
        comp, off = self.components[w - 1], self.layer_offsets[w - 1]
        col, positions = tree - self.ids.starts[w], comp.basis_position
        row = comp.relations.rows.get(col)
        if row is None:
            return 1, {off + positions[col]: 1}
        return row[col], {off + positions[j]: -x for j, x in row.items() if j != col}

    def brackets_below(self, low: int) -> dict[tuple[int, ...], dict[int, Fraction]]:
        """The entries of ``algebra``'s table whose arguments are all among
        the first ``low`` basis vectors, in the table's order.  A bracket of
        weights w_1..w_n has weight sum(w_i) - n + 2 <= k, and the basis is
        ordered by weight, so the index tuples are enumerated under that
        budget; basis ids ascend with the index, so each is canonical."""
        n, weights, basis_ids = self.n, self.weights, self.basis_ids
        runs = {c.w: range(off, min(off + c.dim, low))
                for c, off in zip(self.components, self.layer_offsets) if c.dim and off < low}
        tuples = (a for s in range(n, self.k + n - 1) for a in _increasing_tuples(runs, n, s))
        table: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for args in sorted(tuples):
            w = sum(weights[i] for i in args) - n + 2
            den, row = self._coordinates(self.ids.ids[tuple(basis_ids[i] for i in args)], w)
            if row:
                table[args] = {j: Fraction(x, den) for j, x in row.items()}
        return table

    @cached_property
    def generator_maps(self) -> dict[tuple[int, ...], dict[int, dict[int, int]]]:
        """The integer maps D_J ad(x_J) : e_i -> D_J [e_i, x_J], as
        J -> {i: row}, for every (n-1)-subset J of the generators (basis
        indices 0..d-1) with a nonzero map, D_J > 0 the lcm of the map's
        denominators (see ``StructureAlgebra._ad`` on scaling).  For t of
        weight >= 2, [t, x_J] is the canonical tree J + (t,) times
        (-1)^(n-1) (the shift lemma of :func:`_wrapped_relation_rows`)."""
        n, d, ids, sign = self.n, self.d, self.ids.ids, (-1) ** (self.n - 1)
        below = [(i, t, w) for i, t, w in zip(count(), self.basis_ids, self.weights) if w < self.k]
        maps = {}
        for tup in combinations(range(d), n - 1):
            gens = tuple(g + 1 for g in tup)
            images = []
            for i, t, w in below:
                s, key = canonicalize((t,) + gens) if t <= d else (sign, gens + (t,))
                if s:
                    den, row = self._coordinates(ids[key], w + 1)
                    if row:
                        images.append((i, s, den, row))
            if images:
                top = lcm(*(den for _, _, den, _ in images))
                maps[tup] = {i: {j: s * x * (top // den) for j, x in row.items()}
                             for i, s, den, row in images}
        return maps


def free_nilpotent(
    n: int, d: int, k: int, max_trees: int | None = DEFAULT_MAX_TREES
) -> FreeNilpotentAlgebra:
    """Free nilpotent n-Lie algebra on d generators of class at most k."""
    if k < 1:
        raise ValueError("class bound must be at least 1")
    key = (n, d, k)
    cached = _FREE_CACHE.get(key)
    if cached is not None:
        return cached
    # the table grown to k first keys every layer once, in one digit base
    ids = _tree_ids(n, d, k, max_trees)
    components = tuple(graded_component(n, d, w, max_trees) for w in range(1, k + 1))
    offsets = tuple(sum(c.dim for c in components[:w]) for w in range(k))
    weights = tuple(c.w for c in components for _ in range(c.dim))
    basis_ids = tuple(ids.starts[c.w] + i for c in components for i in c.basis_indices)
    built = FreeNilpotentAlgebra(n, d, k, components, weights, offsets, basis_ids, ids)
    return _FREE_CACHE.setdefault(key, built)


def clear_caches() -> None:
    """Empty every module-level memo of this module: the interned-tree
    tables (``_TREE_IDS``), the graded components (``_COMPONENT_CACHE``) and
    the free nilpotent quotients (``_FREE_CACHE``).  What a component or a
    quotient builds lazily is kept on it, so it goes with these memos."""
    _TREE_IDS.clear()
    _COMPONENT_CACHE.clear()
    _FREE_CACHE.clear()
