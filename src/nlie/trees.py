"""Bracket trees over a generating set, with a sign-carrying canonical form.

A tree is either a generator (a positive int, 1-based) or a tuple of exactly
n subtrees standing for one application of the n-ary bracket.  Antisymmetry
of the bracket is normalized away structurally: the canonical form of a tree
has the children at every node sorted strictly ascending under the total
tree order, and carries the sign of the sorting permutation (0 when two
children coincide, since the bracket kills repeated arguments).

:func:`canonicalize` is also the one sort-with-parity routine of the
package: on a tuple of ints it sorts them as they are, which serves the
interned tree ids of :mod:`nlie.free_algebra` and the basis-index tuples of
:mod:`nlie.algebra`.
"""

from __future__ import annotations

from typing import Union

Tree = Union[int, tuple]


def is_generator(tree: Tree) -> bool:
    return isinstance(tree, int)


def check_tree(tree: Tree, n: int, d: int | None = None) -> None:
    """Validate shape: every internal node has exactly n children and
    generator indices are in range."""
    if is_generator(tree):
        if tree < 1 or (d is not None and tree > d):
            raise ValueError(f"generator index {tree} out of range")
        return
    if not isinstance(tree, tuple):
        raise ValueError(f"not a tree node: {tree!r}")
    if len(tree) != n:
        raise ValueError(f"bracket with {len(tree)} children, expected {n}")
    for child in tree:
        check_tree(child, n, d)


def leaf_count(tree: Tree) -> int:
    if is_generator(tree):
        return 1
    return sum(leaf_count(child) for child in tree)


def weight(tree: Tree) -> int:
    """Grading weight: generators have weight 1; a bracket of subtrees with
    weights w_1..w_n has weight sum(w_i) - n + 2."""
    if is_generator(tree):
        return 1
    return sum(weight(child) for child in tree) - len(tree) + 2


def order_key(tree: Tree) -> tuple:
    """Sort key realizing the total tree order: generators by index, every
    generator below every bracket, brackets by (weight, children lexicographically)."""
    if is_generator(tree):
        return (1, tree)
    return (weight(tree),) + tuple(order_key(child) for child in tree)


def compare_trees(a: Tree, b: Tree) -> int:
    """Total tree order as a three-way comparison (-1, 0, or +1)."""
    ka, kb = order_key(a), order_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def _sort_with_sign(keys) -> tuple[int, list]:
    """``keys`` sorted ascending by one insertion-sort pass, with the parity
    of the sorting permutation as +1/-1 (the sign flips at each swap), or 0
    when two keys coincide.  A key inserted next to an equal one meets it as
    the first key not above it, so one comparison per insertion finds every
    repeat."""
    ordered = list(keys)
    sign = 1
    for i in range(1, len(ordered)):
        key = ordered[i]
        j = i
        while j and ordered[j - 1] > key:
            ordered[j] = ordered[j - 1]
            j -= 1
            sign = -sign
        ordered[j] = key
        if j and ordered[j - 1] == key:
            sign = 0
    return sign, ordered


def canonicalize(tree: Tree) -> tuple[int, Tree]:
    """Canonical form with sign.

    Returns ``(sign, canonical_tree)`` where sign is +1/-1 for the parity of
    the child-sorting permutations, or 0 when some node has two equal
    children.  Idempotent: canonical trees come back unchanged with sign +1.

    A bracket of generators takes a flat path: ints compare by index, which
    is the generator order, so the children are sorted as they are.  A pair
    of ints, the binary bracket of two interned trees, is settled by one
    comparison.
    """
    if isinstance(tree, int):
        return 1, tree
    if len(tree) == 2:
        a, b = tree
        if isinstance(a, int) and isinstance(b, int):
            if a < b:
                return 1, tree
            if b < a:
                return -1, (b, a)
            return 0, tree
    for child in tree:
        if not isinstance(child, int):
            break
    else:
        sign, ordered = _sort_with_sign(tree)
        return sign, tuple(ordered)
    sign = 1
    kids = []
    for child in tree:
        s, c = canonicalize(child)
        if s == 0:
            return 0, tree
        sign *= s
        kids.append(c)
    keys = [order_key(c) for c in kids]
    s, ordered = _sort_with_sign(keys)
    # equal keys belong to equal trees, so the map loses nothing
    kid_of = dict(zip(keys, kids))
    return sign * s, tuple(kid_of[key] for key in ordered)


def tree_to_str(tree: Tree) -> str:
    if is_generator(tree):
        return f"x{tree}"
    return "[" + ",".join(tree_to_str(child) for child in tree) + "]"
