import pytest
from hypothesis import given, strategies as st

from nlie.trees import (
    canonicalize,
    compare_trees,
    check_tree,
    leaf_count,
    order_key,
    tree_to_str,
    weight,
)


def trees(n=2, d=3, depth=2):
    leaf = st.integers(1, d)
    return st.recursive(
        leaf,
        lambda children: st.tuples(*([children] * n)),
        max_leaves=1 + (n - 1) * 4,
    )


def test_order_generators_by_index():
    assert order_key(1) < order_key(2)
    assert compare_trees(1, 2) == -1
    assert compare_trees(2, 1) == 1
    assert compare_trees((1, 2), (1, 2)) == 0


def test_generator_below_bracket():
    assert order_key(3) < order_key((1, 2))


def test_bracket_lexicographic():
    assert order_key((1, 2)) < order_key((1, 3))


def test_bracket_weight_dominates():
    # weight-3 bracket beats any weight-2 bracket regardless of children
    assert order_key((3, 4)) < order_key((1, (1, 2)))


def test_canonicalize_transposition():
    assert canonicalize((2, 1)) == (-1, (1, 2))


def test_canonicalize_repeat_kills():
    sign, _ = canonicalize((1, 1, 3))
    assert sign == 0


def test_canonicalize_nested():
    # inner swap contributes -1, then the generator sorts below the bracket
    # for another -1, so the total sign is +1
    assert canonicalize(((2, 1), 3)) == (1, (3, (1, 2)))
    # a pair with a bracket child is sorted by the tree order, never as ints
    assert canonicalize(((1, 2), 1)) == (-1, (1, (1, 2)))
    assert canonicalize((1, (1, 2))) == (1, (1, (1, 2)))
    assert canonicalize(((1, 2), (1, 2))) == (0, ((1, 2), (1, 2)))


def test_canonicalize_parity_agrees_with_inversion_count():
    from itertools import permutations

    kids = (1, 2, 3, (1, 2, 3, 4))
    for perm in permutations(range(4)):
        arranged = tuple(kids[i] for i in perm)
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
        )
        sign, ct = canonicalize(arranged)
        assert ct == kids
        assert sign == (-1) ** inversions


@given(trees())
def test_canonicalize_idempotent(tree):
    sign, ct = canonicalize(tree)
    if sign == 0:
        return
    sign2, ct2 = canonicalize(ct)
    assert (sign2, ct2) == (1, ct)


@given(trees(n=3, d=3))
def test_canonicalize_idempotent_ternary(tree):
    sign, ct = canonicalize(tree)
    if sign == 0:
        return
    assert canonicalize(ct) == (1, ct)


@given(trees())
def test_child_transposition_flips_sign(tree):
    sign, ct = canonicalize(tree)
    if sign == 0 or isinstance(ct, int):
        return
    swapped = (ct[1], ct[0]) + ct[2:]
    sign2, ct2 = canonicalize(swapped)
    assert ct2 == ct
    assert sign2 == -1


@given(trees(n=3, d=2))
def test_weight_matches_leaf_count(tree):
    n = 3
    leaves = leaf_count(tree)
    assert (leaves - 1) % (n - 1) == 0
    assert weight(tree) == (leaves - 1) // (n - 1) + 1


def test_weight_of_bracket_combines():
    t = ((1, 2), 3)  # weight 2 child + generator
    assert weight(t) == 3


def test_check_tree_arity():
    check_tree(((1, 2), 3), 2)
    with pytest.raises(ValueError):
        check_tree((1, 2, 3), 2)
    with pytest.raises(ValueError):
        check_tree((0, 2), 2)
    with pytest.raises(ValueError):
        check_tree((1, 4), 2, d=3)


def test_render_and_json_roundtrip():
    t = ((2, 1), 3)
    assert tree_to_str(t) == "[[x2,x1],x3]"
