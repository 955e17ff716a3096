"""Free n-Lie algebras: graded components and free nilpotent quotients.

The free algebra on d ordered generators is graded by weight (a weight-w
element has (w-1)(n-1)+1 generator leaves).  Each weight layer is computed
as the span of canonical bracket trees modulo the span of all generalized
Jacobi relations of that weight: direct identity instances on canonical
trees, plus every lower-weight relation wrapped inside one bracket slot with
canonical-tree company (which saturates the homogeneous relation ideal).
The layer dimension computed this way is the rank oracle used everywhere
else as ground truth for graded dimensions.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .algebra import StructureAlgebra
from .linalg import SpanBuilder, Subspace, frac_str
from .trees import (
    Tree,
    canonicalize,
    tree_from_json,
    tree_to_json,
    tree_to_str,
    weight,
)

_F0 = Fraction(0)
_F1 = Fraction(1)

DEFAULT_MAX_TREES = 200_000
COMPONENT_FORMAT = "nlie-graded-component-v2"

_component_cache_dir: str | None = None
_TREE_CACHE: dict[tuple[int, int, int], tuple[Tree, ...]] = {}
_COMPONENT_CACHE: dict[tuple[int, int, int], "GradedComponent"] = {}
_FREE_CACHE: dict[tuple[int, int, int], "FreeNilpotentAlgebra"] = {}


class ResourceLimitError(RuntimeError):
    """A tree-enumeration guard was exceeded."""


def set_component_cache_dir(path: str | None) -> None:
    """Directory for the persisted graded-component cache (None disables)."""
    global _component_cache_dir
    _component_cache_dir = path


def canon_trees(n: int, d: int, w: int, max_trees: int | None = DEFAULT_MAX_TREES) -> tuple[Tree, ...]:
    """All canonical trees of weight w on d generators, ascending in the
    total tree order."""
    if n < 2:
        raise ValueError("arity must be at least 2")
    if d < 0 or w < 1:
        raise ValueError("need d >= 0 and w >= 1")
    key = (n, d, w)
    cached = _TREE_CACHE.get(key)
    if cached is not None:
        return cached
    if w == 1:
        trees: tuple[Tree, ...] = tuple(range(1, d + 1))
    else:
        pool = _pool(n, d, w, max_trees)
        out: list[Tree] = []
        for combo in _weighted_tuples(pool, n, w + n - 2):
            out.append(tuple(combo))
            if max_trees is not None and len(out) > max_trees:
                raise ResourceLimitError(
                    f"more than {max_trees} canonical trees at (n={n}, d={d}, w={w})"
                )
        trees = tuple(out)
    _TREE_CACHE[key] = trees
    return trees


def _pool(n: int, d: int, w: int, max_trees: int | None) -> list[tuple[Tree, int]]:
    """Canonical trees of weight < w with their weights, in tree order."""
    pool: list[tuple[Tree, int]] = []
    for v in range(1, w):
        pool.extend((t, v) for t in canon_trees(n, d, v, max_trees))
    return pool


def _weighted_tuples(
    pool: list[tuple[Tree, int]], slots: int, total: int
) -> Iterator[tuple[Tree, ...]]:
    """Strictly increasing tuples from the ordered pool with given total weight."""
    acc: list[Tree] = []

    def rec(start: int, slots_left: int, total_left: int) -> Iterator[tuple[Tree, ...]]:
        if slots_left == 0:
            if total_left == 0:
                yield tuple(acc)
            return
        budget = total_left - (slots_left - 1)
        for i in range(start, len(pool)):
            tree, tw = pool[i]
            if tw > budget:
                break
            acc.append(tree)
            yield from rec(i + 1, slots_left - 1, total_left - tw)
            acc.pop()

    yield from rec(0, slots, total)


@dataclass(frozen=True)
class GradedComponent:
    """One weight layer of the free n-Lie algebra on d generators."""

    n: int
    d: int
    w: int
    trees: tuple[Tree, ...]
    relations: Subspace
    basis_indices: tuple[int, ...]
    tree_index: dict = field(compare=False, repr=False)

    @staticmethod
    def build(n: int, d: int, w: int, trees: tuple[Tree, ...], relations: Subspace) -> "GradedComponent":
        tree_index = {t: i for i, t in enumerate(trees)}
        return GradedComponent(n, d, w, trees, relations, relations.complement_coords(), tree_index)

    @property
    def dim(self) -> int:
        return len(self.basis_indices)

    @property
    def basis_trees(self) -> tuple[Tree, ...]:
        return tuple(self.trees[i] for i in self.basis_indices)

    def reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Residue of a coordinate vector modulo the relation span; supported
        on the non-pivot (basis) coordinates."""
        return self.relations.reduce(vec)

    def coordinates(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Coordinates of a weight-w vector over the layer basis."""
        residue = self.reduce(vec)
        positions = {idx: pos for pos, idx in enumerate(self.basis_indices)}
        return {positions[i]: c for i, c in residue.items()}


def _expand_terms(
    terms: Iterable[tuple[int | Fraction, Tree]], index_of: dict
) -> dict[int, Fraction]:
    row: dict[int, Fraction] = {}
    for coeff, tree in terms:
        sign, ct = canonicalize(tree)
        if sign == 0:
            continue
        j = index_of[ct]
        nv = row.get(j, _F0) + coeff * sign
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)
    return row


def _identity_instance_rows(
    n: int, w: int, pool: list[tuple[Tree, int]], index_of: dict
) -> Iterator[dict[int, Fraction]]:
    """Direct Jacobi-identity instances of weight w on canonical trees."""
    for u in range(2, w):
        s_total = w - u + n - 2
        t_total = u + n - 2
        for ts in _weighted_tuples(pool, n, t_total):
            for ss in _weighted_tuples(pool, n - 1, s_total):
                terms: list[tuple[int, Tree]] = [(1, (tuple(ts),) + ss)]
                for i in range(n):
                    replaced = list(ts)
                    replaced[i] = (ts[i],) + ss
                    terms.append((-1, tuple(replaced)))
                row = _expand_terms(terms, index_of)
                if row:
                    yield row


def _wrapped_relation_rows(
    n: int, d: int, w: int, pool: list[tuple[Tree, int]], index_of: dict,
    max_trees: int | None,
) -> Iterator[dict[int, Fraction]]:
    """Relations of weight v < w placed in one slot of a bracket, with
    canonical trees of complementary weights filling the other slots."""
    for v in range(3, w):
        comp = graded_component(n, d, v, max_trees)
        if comp.relations.dim == 0:
            continue
        payload_total = w - v + n - 2
        for payload in _weighted_tuples(pool, n - 1, payload_total):
            for relation in comp.relations.basis:
                terms = ((val, (comp.trees[col],) + payload) for col, val in relation.items())
                row = _expand_terms(terms, index_of)
                if row:
                    yield row


def _relation_rows(
    n: int, d: int, w: int, max_trees: int | None
) -> Iterator[dict[int, Fraction]]:
    if w < 3:
        return
    trees = canon_trees(n, d, w, max_trees)
    index_of = {t: i for i, t in enumerate(trees)}
    pool = _pool(n, d, w, max_trees)
    yield from _identity_instance_rows(n, w, pool, index_of)
    yield from _wrapped_relation_rows(n, d, w, pool, index_of, max_trees)


def filippov_relations(
    n: int, d: int, w: int, max_trees: int | None = DEFAULT_MAX_TREES
) -> list[dict[int, Fraction]]:
    """Generating relation rows of weight w, as sparse coordinate vectors
    over ``canon_trees(n, d, w)``.  Empty for w <= 2 (no identity instance
    fits below weight 3)."""
    return list(_relation_rows(n, d, w, max_trees))


def graded_component(
    n: int, d: int, w: int, max_trees: int | None = DEFAULT_MAX_TREES
) -> GradedComponent:
    """The weight-w layer of the free n-Lie algebra on d generators."""
    key = (n, d, w)
    cached = _COMPONENT_CACHE.get(key)
    if cached is not None:
        return cached
    loaded = _load_component(n, d, w)
    if loaded is not None:
        _COMPONENT_CACHE[key] = loaded
        return loaded
    trees = canon_trees(n, d, w, max_trees)
    builder = SpanBuilder(len(trees))
    for row in _relation_rows(n, d, w, max_trees):
        builder.insert(row)
    component = GradedComponent.build(n, d, w, trees, builder.subspace())
    _COMPONENT_CACHE[key] = component
    _store_component(component)
    return component


def graded_dimension(n: int, d: int, w: int, max_trees: int | None = DEFAULT_MAX_TREES) -> int:
    """Rank-oracle dimension of the weight-w layer."""
    return graded_component(n, d, w, max_trees).dim


@dataclass(frozen=True)
class FreeNilpotentAlgebra:
    """Free nilpotent quotient of the free n-Lie algebra: all layers of
    weight <= k, with structure constants for the induced bracket."""

    n: int
    d: int
    k: int
    components: tuple[GradedComponent, ...]
    basis_trees: tuple[Tree, ...]
    weights: tuple[int, ...]
    layer_offsets: tuple[int, ...]
    algebra: StructureAlgebra

    @property
    def dim(self) -> int:
        return len(self.basis_trees)

    def layer_dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    def layer_span(self, w_min: int) -> Subspace:
        """Span of the basis vectors of weight >= w_min."""
        rows = [{i: _F1} for i in range(self.dim) if self.weights[i] >= w_min]
        return Subspace.from_vectors(rows, self.dim)


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
    components = tuple(graded_component(n, d, w, max_trees) for w in range(1, k + 1))
    basis_trees: list[Tree] = []
    weights: list[int] = []
    offsets: list[int] = []
    for comp in components:
        offsets.append(len(basis_trees))
        basis_trees.extend(comp.basis_trees)
        weights.extend([comp.w] * comp.dim)
    dim = len(basis_trees)
    table: dict[tuple[int, ...], dict[int, Fraction]] = {}
    # a bracket of weights w_1..w_n has weight sum(w_i) - n + 2, and only
    # weights <= k survive; the basis is ordered by weight, so the
    # admissible index tuples are enumerated under that budget directly
    pool = list(enumerate(weights))
    admissible = sorted(
        args for s in range(n, k + n - 1) for args in _weighted_tuples(pool, n, s)
    )
    for args in admissible:
        total = sum(weights[i] for i in args) - n + 2
        composite = tuple(basis_trees[i] for i in args)
        sign, ct = canonicalize(composite)
        if sign == 0:
            continue
        comp = components[total - 1]
        coords = comp.coordinates({comp.tree_index[ct]: Fraction(sign)})
        if coords:
            off = offsets[total - 1]
            table[args] = {off + pos: c for pos, c in coords.items()}
    names = tuple(tree_to_str(t) for t in basis_trees)
    algebra = StructureAlgebra(n, dim, names, table)
    result = FreeNilpotentAlgebra(
        n, d, k, components, tuple(basis_trees), tuple(weights), tuple(offsets), algebra
    )
    _FREE_CACHE[key] = result
    return result


# -- persisted component cache -------------------------------------------------


def _component_path(n: int, d: int, w: int) -> str | None:
    if _component_cache_dir is None:
        return None
    return os.path.join(_component_cache_dir, f"component_n{n}_d{d}_w{w}.json")


def component_to_json(comp: GradedComponent) -> dict:
    return {
        "format": COMPONENT_FORMAT,
        "n": comp.n,
        "d": comp.d,
        "w": comp.w,
        "trees": [tree_to_json(t) for t in comp.trees],
        "relation_pivots": list(comp.relations.pivots),
        "relation_rows": [
            [[col, frac_str(x)] for col, x in sorted(row.items())]
            for row in comp.relations.basis
        ],
        "basis_indices": list(comp.basis_indices),
        "dim": comp.dim,
    }


def _reduced_echelon(rows: list[dict], pivots: tuple[int, ...], width: int) -> bool:
    """Whether ``rows`` is a reduced echelon basis of F^width with these
    pivots: pivots strictly increasing, each row nonzero only from its
    pivot on and below ``width``, 1 at its own pivot and 0 at every other
    pivot.  :meth:`Subspace.reduce` is only correct on such rows."""
    if len(rows) != len(pivots) or any(q <= p for p, q in zip(pivots, pivots[1:])):
        return False
    pivot_set = set(pivots)
    for row, p in zip(rows, pivots):
        if not row or min(row) != p or max(row) >= width or row[p] != 1:
            return False
        if not all(row.values()) or any(col in pivot_set for col in row if col != p):
            return False
    return True


def component_from_json(obj: dict, n: int, d: int, w: int) -> GradedComponent | None:
    """Rebuild a cached component; None when the entry fails validation."""
    try:
        if obj.get("format") != COMPONENT_FORMAT:
            return None
        if (obj["n"], obj["d"], obj["w"]) != (n, d, w):
            return None
        trees = tuple(tree_from_json(t) for t in obj["trees"])
        # the tree order fixes the meaning of every column, so the list
        # must be the canonical one; enumerating it is bounded by the
        # entry's own length
        if trees != canon_trees(n, d, w, max_trees=len(trees)):
            return None
        pivots = tuple(obj["relation_pivots"])
        rows = []
        for entries in obj["relation_rows"]:
            row = {col: Fraction(x) for col, x in entries if isinstance(col, int)}
            if len(row) != len(entries):
                return None
            rows.append(row)
        if not _reduced_echelon(rows, pivots, len(trees)):
            return None
        relations = Subspace(len(trees), tuple(rows), pivots)
        comp = GradedComponent.build(n, d, w, trees, relations)
        if comp.dim != obj["dim"] or list(comp.basis_indices) != obj["basis_indices"]:
            return None
        return comp
    except (
        AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError, ResourceLimitError
    ):
        return None


def _load_component(n: int, d: int, w: int) -> GradedComponent | None:
    path = _component_path(n, d, w)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return component_from_json(obj, n, d, w)


def _store_component(comp: GradedComponent) -> None:
    """Persist ``comp`` through a uniquely named temporary file renamed over
    the target, so concurrent writers never interleave.  An unusable cache
    directory is reported once on stderr and the cache is switched off."""
    path = _component_path(comp.n, comp.d, comp.w)
    if path is None:
        return
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".component-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(component_to_json(comp), fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        print(
            f"warning: cache directory {directory!r} is unusable "
            f"({exc.strerror or exc}); continuing without a cache",
            file=sys.stderr,
        )
        set_component_cache_dir(None)


def clear_caches() -> None:
    """Drop all in-memory memoization (mainly for determinism tests)."""
    _TREE_CACHE.clear()
    _COMPONENT_CACHE.clear()
    _FREE_CACHE.clear()
