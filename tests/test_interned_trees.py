"""The rank oracle's interned-id route against the nested-tree route it
replaced: the flat-int path of ``canonicalize``, the lazy relabelling map,
the expansion of identity instances and wrapped relation rows, and the
weight-run enumerator against a brute-force one."""

import gc
import random
import re
from fractions import Fraction
from itertools import combinations, compress, permutations, product

import pytest

from nlie import free_algebra
from nlie.free_algebra import (
    _increasing_tuples,
    _instance_row,
    _relabelling,
    _representative,
    _tree_ids,
    canon_trees,
    free_nilpotent,
    graded_component,
)
from nlie.trees import canonicalize

from test_keys_once import general_wrapped_row, id_lookup_wrapped_row
from test_lazy_rref import LAYERS


def _expand_terms(terms, index_of):
    """The nested route: canonicalize each whole tree, then look its column
    up by the nested tree."""
    row = {}
    for coeff, tree in terms:
        sign, ct = canonicalize(tree)
        if sign == 0:
            continue
        j = index_of[ct]
        nv = row.get(j, Fraction(0)) + coeff * sign
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)
    return row


def _relabel(tree, perm):
    if isinstance(tree, int):
        return perm[tree]
    return tuple(_relabel(child, perm) for child in tree)


def _inversion_reference(seq):
    ordered = tuple(sorted(seq))
    if len(set(seq)) < len(seq):
        return 0, ordered
    inversions = sum(1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return (-1) ** inversions, ordered


def _nested_of(table, w):
    """id -> nested tree for every tree of weight <= w."""
    return {
        table.starts[v] + i: t for v in range(1, w + 1) for i, t in enumerate(table.layer(v))
    }


def test_flat_int_path_matches_inversion_count():
    for length in range(1, 6):
        for seq in product(range(1, 5), repeat=length):
            assert canonicalize(seq) == _inversion_reference(seq), seq
    rng = random.Random(20261018)
    for length in range(2, 6):
        for _ in range(400):
            with_repeats = tuple(rng.randint(0, length + 1) for _ in range(length))
            assert canonicalize(with_repeats) == _inversion_reference(with_repeats)
            distinct = tuple(rng.sample(range(1, 60), length))
            assert canonicalize(distinct) == _inversion_reference(distinct)


def test_flat_int_path_covers_every_permutation():
    for length in range(2, 7):
        for perm in permutations(range(1, length + 1)):
            assert canonicalize(perm) == _inversion_reference(perm)


def test_ids_follow_the_tree_order():
    # a table grown past weight 4 by an earlier test would hold trees that
    # the weight-4 nested map lacks, so start from cold tables
    free_algebra.clear_caches()
    table = _tree_ids(3, 4, 4)
    assert table.starts[1:4] == [1, 5, 9]
    nested = _nested_of(table, 4)
    assert [nested[i] for i in range(1, table.starts[5])] == [
        t for v in range(1, 5) for t in canon_trees(3, 4, v)
    ]
    for tree_id, kids in enumerate(table.kids):
        if kids:
            assert table.ids[kids] == tree_id
            assert nested[tree_id] == tuple(nested[k] for k in kids)


@pytest.mark.parametrize("n,d,w", [(2, 4, 5), (3, 4, 4), (4, 5, 3)])
def test_relabelling_map_matches_nested_relabel(n, d, w):
    """For every sigma in S_d and every canonical tree of weight <= w, the
    lazily filled id map gives canonicalize(sigma tree)."""
    table = _tree_ids(n, d, w)
    nested = _nested_of(table, w)
    id_of = {t: i for i, t in nested.items()}
    for images in permutations(range(1, d + 1)):
        perm = (0,) + images
        relabel = _relabelling(table, perm)
        # top-down, so most lookups fill their subtrees first
        for tree_id in sorted(nested, reverse=True):
            sign, ct = canonicalize(_relabel(nested[tree_id], perm))
            assert relabel(tree_id) == (sign, id_of[ct])


@pytest.mark.parametrize("n,d,w", [(2, 4, 6), (2, 2, 8), (3, 4, 5), (3, 5, 4), (4, 5, 4)])
def test_instance_and_wrapped_rows_match_nested_expansion(n, d, w):
    rng = random.Random(1000 * n + 10 * d + w)
    component = graded_component(n, d, w)
    index_of = {t: i for i, t in enumerate(component.trees)}
    table = _tree_ids(n, d, w)
    nested = _nested_of(table, w)
    start = table.starts[w]
    runs = table.runs

    def as_trees(ids):
        return tuple(nested[i] for i in ids)

    nonzero = 0
    for u in range(2, w):
        all_ts = _increasing_tuples(runs, n, u + n - 2)
        all_ss = _increasing_tuples(runs, n - 1, w - u + n - 2)
        if not all_ts or not all_ss:
            continue
        for _ in range(40):
            ts, ss = rng.choice(all_ts), rng.choice(all_ss)
            terms = [(1, (as_trees(ts),) + as_trees(ss))]
            for i in range(n):
                replaced = list(as_trees(ts))
                replaced[i] = (replaced[i],) + as_trees(ss)
                terms.append((-1, tuple(replaced)))
            want = _expand_terms(terms, index_of)
            assert _instance_row(ts, ss, table.ids, start) == want, (ts, ss)
            nonzero += bool(want)

    # every lower relation with every payload (the reference route of the
    # wrap lemma), and the layer below with generator payloads (the oracle's)
    for v in range(3, w):
        lower = graded_component(n, d, v)
        payloads = _increasing_tuples(runs, n - 1, w - v + n - 2)
        if not lower.relations.basis or not payloads:
            continue
        for _ in range(40):
            relation = rng.choice(lower.relations.basis)
            payload = rng.choice(payloads)
            terms = [
                (x, (lower.trees[col],) + as_trees(payload)) for col, x in relation.items()
            ]
            want = _expand_terms(terms, index_of)
            got = general_wrapped_row(relation, table.starts[v], payload, table.ids, start)
            assert got == want, (v, payload)
            if v == w - 1:
                assert id_lookup_wrapped_row(relation, table.starts[v], payload, table.ids, start) == want
            nonzero += bool(want)
    assert nonzero >= 40


def _brute_force_tuples(runs, slots, total):
    """Every combination of ``slots`` ids of the pool (the ids of ``runs``
    in order) whose weights sum to ``total``, in the order
    ``combinations`` gives."""
    pool = [i for run in runs.values() for i in run]
    weights = [v for v, run in runs.items() for _ in run]
    sums = map(sum, combinations(weights, slots))
    return list(compress(combinations(pool, slots), map(total.__eq__, sums)))


# d = 0 and larger weights with d < n, on top of the layers of test_lazy_rref
# (which hold d < n up to weight 2)
ENUMERATED_LAYERS = sorted(set(LAYERS) | {(2, 0, 1), (2, 0, 3), (3, 0, 4), (3, 2, 6), (4, 3, 5)})


@pytest.mark.parametrize("n,d,w", ENUMERATED_LAYERS)
def test_weight_run_enumerator_matches_brute_force(n, d, w):
    """On the runs of every weight below w, the enumerator gives the
    brute-force tuples, order included: the layer itself (n slots) and
    every company and payload total (n - 1 slots).  It is also what the
    table interned as layer w, even when the table holds higher runs."""
    table = _tree_ids(n, d, w)
    below = {v: run for v, run in table.runs.items() if v < w}
    assert list(below) == sorted(below) and all(below.values())
    layer = _brute_force_tuples(below, n, w + n - 2)
    assert _increasing_tuples(below, n, w + n - 2) == layer
    if w > 1:  # the generators are not enumerated
        assert table.kids[table.starts[w]:table.starts[w + 1]] == layer
    _tree_ids(n, d, w + 1)
    assert _increasing_tuples(table.runs, n, w + n - 2) == layer
    for total in range(n - 1, w + n - 2):
        assert _increasing_tuples(table.runs, n - 1, total) == _brute_force_tuples(
            below, n - 1, total
        ), total


@pytest.mark.parametrize("n,d,k", [(2, 2, 4), (2, 4, 3), (3, 3, 3), (3, 2, 3), (4, 5, 3)])
def test_weight_run_enumerator_on_free_nilpotent_runs(n, d, k):
    """The runs ``free_nilpotent`` builds from its layer offsets (ids from
    0, empty layers left out), and a hand-made shape with a gap in the
    weights."""
    built = free_nilpotent(n, d, k)
    runs = {
        w: range(off, off + dim)
        for w, off, dim in zip(range(1, k + 1), built.layer_offsets, built.layer_dims())
        if dim
    }
    gapped = {1: range(0, 3), 3: range(3, 5), 4: range(5, 6)}
    for shape, top in ((runs, k), (gapped, 4)):
        for total in range(n, top + n):
            assert _increasing_tuples(shape, n, total) == _brute_force_tuples(shape, n, total)


@pytest.mark.parametrize("n,d,w", [(2, 4, 5), (2, 2, 9), (3, 4, 4), (4, 5, 3), (3, 3, 6)])
def test_tree_guard_is_checked_before_enumerating(n, d, w, monkeypatch):
    """The guard counts a layer from its weight runs: ``max_trees`` equal to
    the layer size passes, one less raises with the same message and
    before any tuple of the layer is built."""
    free_algebra.clear_caches()
    size = len(canon_trees(n, d, w))
    free_algebra.clear_caches()
    assert len(canon_trees(n, d, w, max_trees=size)) == size
    free_algebra.clear_caches()
    table = _tree_ids(n, d, w - 1)
    kids = list(table.kids)

    def unbuilt(*args):
        raise AssertionError("a layer over the guard was enumerated")

    monkeypatch.setattr(free_algebra, "_increasing_tuples", unbuilt)
    message = f"more than {size - 1} canonical trees at (n={n}, d={d}, w={w})"
    with pytest.raises(free_algebra.ResourceLimitError, match=re.escape(message)):
        canon_trees(n, d, w, max_trees=size - 1)
    assert table.top == w - 1 and table.kids == kids


def test_clear_caches_empties_every_module_memo():
    graded_component(2, 3, 4)
    free_nilpotent(2, 2, 3)
    memos = {
        name: obj
        for name, obj in vars(free_algebra).items()
        if not name.startswith("__") and isinstance(obj, (dict, list, set))
    }
    assert set(memos) == {"_TREE_IDS", "_COMPONENT_CACHE", "_FREE_CACHE"}
    assert all(memos.values())
    # the lazily built parts of a component are kept on the component
    warm = graded_component(2, 3, 4)
    warm.relations, warm.basis_position
    assert {"relations", "basis_indices", "basis_position"} <= set(vars(warm))
    assert set(warm._blocks) == set(warm.block_keys)
    free_algebra.clear_caches()
    assert not any(memos.values())
    cold = graded_component(2, 3, 4)
    assert cold is not warm and cold.rank == warm.rank
    assert not {"relations", "basis_indices", "basis_position"} & set(vars(cold))
    # only the orbit representatives' rows, nothing relabelled yet
    assert set(cold._blocks) == {m for m in cold.block_keys if m == _representative(m)}
    assert set(cold._blocks) < set(cold.block_keys)


def test_cold_layer_leaves_nothing_for_the_cyclic_gc():
    """The oracle path makes no reference cycles (no nested function that
    refers to itself), so a cold layer is freed by reference counting alone
    once the memos are cleared."""
    free_algebra.clear_caches()
    gc.collect()
    gc.disable()
    try:
        graded_component(2, 4, 6)
        free_algebra.clear_caches()
        assert gc.collect() == 0
    finally:
        gc.enable()
