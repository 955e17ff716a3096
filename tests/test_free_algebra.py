import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb, factorial, gcd, prod

import pytest
from sympy import divisors, mobius

from nlie.algebra import heisenberg, lower_central_series
from nlie import free_algebra
from nlie.free_algebra import (
    ResourceLimitError,
    canon_trees,
    filippov_relations,
    free_nilpotent,
    graded_component,
    graded_dimension,
)
from nlie.linalg import Subspace
from nlie.trees import canonicalize, weight

from layer_record import layer_sha256
from test_keys_once import all_weight_wraps, instance_rows


def witt(d, w):
    """Necklace/Witt count of the weight-w layer of a free Lie algebra."""
    return sum(int(mobius(e)) * d ** (w // e) for e in divisors(w)) // w


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
def test_binary_layers_match_witt(d, w):
    assert graded_dimension(2, d, w) == witt(d, w)


# (12, 3) and (10, 4) have many multidegree blocks per orbit: filling them
# must stay cheap as d grows
@pytest.mark.parametrize("d,w", [(2, 6), (2, 7), (3, 6), (4, 6), (12, 3), (10, 4)])
def test_binary_layers_match_witt_higher_weights(d, w):
    assert graded_dimension(2, d, w) == witt(d, w)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_weight_two_layer_is_binomial(n, d):
    component = graded_component(n, d, 2)
    assert component.dim == comb(d, n)
    assert component.relations.dim == 0


def test_degenerate_generator_count():
    assert graded_dimension(3, 2, 1) == 2
    for w in (2, 3):
        assert graded_dimension(3, 2, w) == 0


def test_relation_examples():
    rows = filippov_relations(2, 2, 3)
    trees = canon_trees(2, 2, 3)
    rank = Subspace.from_vectors(
        [{k: v for k, v in row.items()} for row in rows], len(trees)
    ).dim
    assert len(trees) - rank == 2

    rows = filippov_relations(2, 3, 3)
    trees = canon_trees(2, 3, 3)
    rank = Subspace.from_vectors(rows, len(trees)).dim
    assert len(trees) - rank == 8

    assert filippov_relations(3, 3, 2) == []


def _multidegree(tree, d):
    counts = [0] * d

    def visit(t):
        if isinstance(t, int):
            counts[t - 1] += 1
        else:
            for child in t:
                visit(child)

    visit(tree)
    return tuple(counts)


def necklace(m):
    """Fine-graded Witt count: dimension of the multidegree-m part of the
    free Lie algebra, (1/w) sum_{k | gcd m} mu(k) (w/k)! / prod (m_i/k)!."""
    w = sum(m)
    total = sum(
        int(mobius(k)) * factorial(w // k) // prod(factorial(x // k) for x in m)
        for k in divisors(reduce(gcd, m))
    )
    return total // w


@pytest.mark.parametrize("d,w", [(2, 6), (2, 7), (2, 9), (3, 5), (3, 6), (4, 6)])
def test_binary_multidegree_blocks_match_necklace_counts(d, w):
    """Each multidegree block of a binary layer has the fine-graded
    necklace dimension, not just the layer total."""
    component = graded_component(2, d, w)
    dims = Counter(_multidegree(t, d) for t in component.basis_trees)
    for m in product(range(w + 1), repeat=d):
        if sum(m) == w:
            assert dims.get(m, 0) == necklace(m), m


# every (n, d, w) the rank-oracle tests in this suite and the acceptance
# suite reach, three larger layers of the oracle benchmark, and two layers
# with many generators
ORACLE_LAYERS = sorted(
    {(2, d, w) for d in (2, 3, 4) for w in range(1, 6)}
    | {(2, 2, 6), (2, 2, 7), (2, 3, 6), (2, 4, 6)}
    | {(n, d, 2) for n in (2, 3, 4) for d in range(1, 7)}
    | {(3, 2, w) for w in (1, 2, 3)}
    | {(3, 3, 3), (3, 4, 5), (3, 5, 4), (2, 2, 9)}
    | {(2, 8, 4), (3, 7, 3)}
)


@pytest.mark.parametrize("n,d,w", ORACLE_LAYERS)
def test_block_elimination_matches_one_elimination_of_all_relations(n, d, w):
    """The per-multidegree route gives the relation subspace that one
    elimination of every generated relation row gives, and each of its
    reduced echelon rows lies in a single multidegree."""
    component = graded_component(n, d, w)
    whole = Subspace.from_vectors(filippov_relations(n, d, w), len(component.trees))
    assert component.relations == whole
    for row in component.relations.basis:
        assert len({_multidegree(component.trees[col], d) for col in row}) == 1


def _binary_instances(d, w):
    """Every identity instance (ts, ss) of the binary layer (2, d, w) with
    its row, as the instance loop generated them before the one-per-triple
    filter: each pair ts of canonical trees with each single tree ss of the
    complementary weight."""
    table = free_algebra._tree_ids(2, d, w)
    runs = table.runs
    ids, start = table.ids, table.starts[w]
    for u in range(2, w):
        company = free_algebra._increasing_tuples(runs, 1, w - u)
        for ts in free_algebra._increasing_tuples(runs, 2, u):
            for ss in company:
                yield ts, ss, free_algebra._instance_row(ts, ss, ids, start)


@pytest.mark.parametrize("d,w", [(d, w) for n, d, w in ORACLE_LAYERS if n == 2 and w >= 3])
def test_one_instance_per_triple_spans_every_instance(d, w):
    """On every binary oracle layer, R_w is the span of all identity
    instances and all wrapped lower relations, as generated before the
    one-per-triple filter."""
    component = graded_component(2, d, w)
    rows = [row for _, _, row in _binary_instances(d, w)]
    rows += list(all_weight_wraps(2, d, w))
    assert component.relations == Subspace.from_vectors(rows, len(component.trees))


@pytest.mark.parametrize("d,w", [(3, 5), (4, 6)])
def test_dropped_binary_instances_are_kept_rows_up_to_sign(d, w):
    """Each instance the filter drops is +- the kept instance C(a, b, c),
    a < b < c, on the same three trees (or 0 when a tree repeats)."""
    table = free_algebra._tree_ids(2, d, w)
    ids, start = table.ids, table.starts[w]
    kept, dropped = [], 0
    for ts, ss, row in _binary_instances(d, w):
        if ss[0] > ts[1]:
            kept.append(row)
            continue
        dropped += 1
        a, b, c = sorted(ts + ss)
        if len({a, b, c}) < 3:
            assert row == {}
            continue
        kept_row = free_algebra._instance_row((a, b), (c,), ids, start)
        assert row in (kept_row, {col: -x for col, x in kept_row.items()})
    assert dropped >= 2 * len(kept) > 0
    assert instance_rows(2, d, w) == [row for row in kept if row]


# layer_sha256(graded_component(n, d, w)) (see layer_record.py), taken
# from the nested-tree route before the rank oracle moved to interned tree
# ids: the trees, the reduced echelon relation basis and the layer basis
# must stay byte-identical, not only the dimensions.
RELATION_BASIS_SHA256 = {
    (2, 4, 6): "157b109a093088b1ca237f9f74c54269276252c5fbb018628bb4674430f38d93",
    (3, 4, 5): "9f1ad321d0260c6575e1547094aec1fc177408085099f53e000442560785fc9c",
    (3, 5, 4): "bcff0cfb3176ddb78e151ee190d30e14b39c1c40d4a651f62d2f7a8f8412f33b",
    (2, 2, 9): "07a20810bd89b11a38eadc70143d61e633444f5cbb56e341254cd26da8f5a4e6",
    (4, 5, 4): "beca2f5c83761c3fd3ddc66d37392c8f324e26d9a0ef740a755cb88a45b54387",
}


@pytest.mark.parametrize("n,d,w", sorted(RELATION_BASIS_SHA256))
def test_relation_basis_is_pinned(n, d, w):
    free_algebra.clear_caches()
    assert layer_sha256(graded_component(n, d, w)) == RELATION_BASIS_SHA256[(n, d, w)]


def test_weight_three_rank_oracle():
    assert graded_dimension(2, 4, 3) == 20  # (4^3 - 4) / 3


def test_canon_trees_sorted_and_weighted():
    trees = canon_trees(2, 3, 4)
    assert all(weight(t) == 4 for t in trees)
    from nlie.trees import order_key

    keys = [order_key(t) for t in trees]
    assert keys == sorted(keys)
    assert all(canonicalize(t) == (1, t) for t in trees)


def test_free_nilpotent_smallest_is_heisenberg():
    built = free_nilpotent(2, 2, 2)
    assert built.dim == 3
    assert built.algebra.table == heisenberg(2, 1).table


def test_free_nilpotent_dims():
    assert free_nilpotent(2, 2, 4).dim == 2 + 1 + 2 + 3
    assert free_nilpotent(3, 3, 2).dim == 3 + 1


@pytest.mark.parametrize("n,d,k", [(2, 2, 4), (3, 3, 3), (2, 4, 4)])
def test_free_nilpotent_table_matches_exhaustive_loop(n, d, k):
    """The weight-budgeted tuple enumeration gives the same table, in the
    same order, as bracketing every C(dim, n) basis tuple."""
    built = free_nilpotent(n, d, k)
    want = {}
    for args in combinations(range(built.dim), n):
        total = sum(built.weights[i] for i in args) - n + 2
        if total > k:
            continue
        sign, ct = canonicalize(tuple(built.basis_trees[i] for i in args))
        if sign == 0:
            continue
        comp = built.components[total - 1]
        coords = comp.coordinates({comp.tree_index[ct]: Fraction(sign)})
        if coords:
            off = built.layer_offsets[total - 1]
            want[args] = {off + pos: c for pos, c in coords.items()}
    assert list(built.algebra.table.items()) == list(want.items())


@pytest.mark.parametrize("n,d,w", [(2, 4, 5), (3, 3, 4)])
def test_coordinates_are_residue_at_basis_positions(n, d, w):
    comp = graded_component(n, d, w)
    rng = random.Random(100 * n + 10 * d + w)
    probes = [{col: Fraction(1)} for col in range(len(comp.trees))]
    for _ in range(30):
        cols = rng.sample(range(len(comp.trees)), min(4, len(comp.trees)))
        probes.append({col: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for col in cols})
    for vec in probes:
        residue = comp.reduce(dict(vec))
        want = {comp.basis_indices.index(i): c for i, c in residue.items()}
        assert comp.coordinates(dict(vec)) == want
    assert comp.basis_position == {i: pos for pos, i in enumerate(comp.basis_indices)}


@pytest.mark.parametrize(
    "n,d,k", [(2, 2, 3), (2, 2, 4), (2, 3, 2), (3, 3, 2), (3, 3, 3), (4, 4, 3)]
)
def test_free_nilpotent_satisfies_filippov(n, d, k):
    assert free_nilpotent(n, d, k).algebra.validate().valid


@pytest.mark.parametrize("n,d,k", [(2, 2, 4), (2, 3, 3), (3, 3, 3)])
def test_lower_series_layers_match_oracle(n, d, k):
    built = free_nilpotent(n, d, k)
    chain = lower_central_series(built.algebra)
    dims = [s.dim for s in chain]
    for i, dim_i in enumerate(dims[:-1], start=1):
        expected = sum(graded_dimension(n, d, w) for w in range(i, k + 1))
        assert dim_i == expected
    assert dims[-1] == 0


def _random_identity_instance(rng, n, d, w):
    """A Jacobi instance with arbitrary (repeated, unsorted) canonical-tree
    arguments of total weight w."""
    pools = {v: canon_trees(n, d, v) for v in range(1, w)}
    while True:
        u = rng.randint(2, w - 1)
        t_weights = _random_composition(rng, u + n - 2, n)
        s_weights = _random_composition(rng, w - u + n - 2, n - 1)
        if t_weights is None or s_weights is None:
            continue
        if any(not pools[v] for v in t_weights + s_weights):
            continue
        ts = [rng.choice(pools[v]) for v in t_weights]
        ss = tuple(rng.choice(pools[v]) for v in s_weights)
        terms = [(1, (tuple(ts),) + ss)]
        for i in range(n):
            replaced = list(ts)
            replaced[i] = (ts[i],) + ss
            terms.append((-1, tuple(replaced)))
        return terms


def _random_composition(rng, total, parts):
    if total < parts:
        return None
    weights = [1] * parts
    for _ in range(total - parts):
        weights[rng.randrange(parts)] += 1
    return weights


@pytest.mark.parametrize("n,d,w", [(2, 2, 4), (2, 3, 4), (3, 3, 3), (2, 4, 4)])
def test_relation_span_is_saturated(n, d, w):
    """Extra identity instances and re-wrapped relations never grow the span."""
    component = graded_component(n, d, w)
    index_of = component.tree_index
    rng = random.Random(10 * n + d + w)

    def reduces_to_zero(terms):
        vec = {}
        for coeff, tree in terms:
            sign, ct = canonicalize(tree)
            if sign == 0:
                continue
            idx = index_of[ct]
            vec[idx] = vec.get(idx, Fraction(0)) + coeff * sign
        return not component.reduce(vec)

    for _ in range(30):
        assert reduces_to_zero(_random_identity_instance(rng, n, d, w))

    # wrap lower-weight relations in a non-leading slot
    for v in range(3, w):
        lower = graded_component(n, d, v)
        payload_weight = w - v + n - 2
        if lower.relations.dim == 0 or payload_weight < n - 1:
            continue
        payload_pool = canon_trees(n, d, 1)
        if payload_weight != n - 1 or not payload_pool:
            continue
        for row in lower.relations.basis[:3]:
            payload = tuple(rng.choice(payload_pool) for _ in range(n - 1))
            terms = []
            for col, val in row.items():
                wrapped = (payload[0], lower.trees[col]) + payload[1:]
                terms.append((val, wrapped))
            assert reduces_to_zero(terms)


@pytest.mark.parametrize("n,d,w", [(2, 3, 4), (3, 3, 3)])
def test_doubling_instances_fixes_rank(n, d, w):
    rows = filippov_relations(n, d, w)
    trees = canon_trees(n, d, w)
    once = Subspace.from_vectors(rows, len(trees)).dim
    twice = Subspace.from_vectors(rows + rows, len(trees)).dim
    assert once == twice == graded_component(n, d, w).relations.dim


def test_resource_guard():
    from nlie import free_algebra

    free_algebra.clear_caches()
    with pytest.raises(ResourceLimitError):
        canon_trees(2, 4, 5, max_trees=10)


def test_component_reduce_is_stable():
    component = graded_component(2, 3, 3)
    for idx in range(len(component.trees)):
        residue = component.reduce({idx: Fraction(1)})
        assert set(residue) <= set(component.basis_indices)
        again = component.reduce(residue)
        assert again == residue

