"""The rank oracle generates one n = 3 identity instance per span class and
inserts each representative block's rows in descending order of first
column.  Checked against the routes they replaced, which live only here:
every instance pair, and the rows inserted in the order they are
generated."""

import pytest

from nlie import free_algebra, linalg
from nlie.free_algebra import (
    _encoded,
    _identity_instance_rows,
    _increasing_tuples,
    _instance_row,
    _tree_ids,
    _wrapped_relation_rows,
    canon_trees,
    graded_component,
)
from nlie.linalg import SpanBuilder, Subspace

from test_keys_once import tree_multidegrees
from test_lazy_rref import LAYERS, every_multidegree


# every (n, d, w) with n in {2, 3, 4}, 1 <= d <= 5 and at most 2,000 trees
# (for d < n, up to the first empty layer), by its top weight
TOP_WEIGHT = {
    (2, 1): 2, (2, 2): 10, (2, 3): 6, (2, 4): 5, (2, 5): 5,
    (3, 1): 2, (3, 2): 2, (3, 3): 7, (3, 4): 5, (3, 5): 4,
    (4, 1): 2, (4, 2): 2, (4, 3): 2, (4, 4): 6, (4, 5): 4,
}
REFERENCE_LAYERS = sorted(
    set(LAYERS) | {(n, d, w) for (n, d), top in TOP_WEIGHT.items() for w in range(1, top + 1)}
)


def test_layer_list_reaches_2000_trees():
    # the guard checks only layers not yet interned, so start from cold tables
    free_algebra.clear_caches()
    for (n, d), top in TOP_WEIGHT.items():
        width = len(canon_trees(n, d, top))
        assert width <= 2000
        if width:
            with pytest.raises(free_algebra.ResourceLimitError):
                canon_trees(n, d, top + 1, max_trees=2000)
        else:
            assert len(canon_trees(n, d, top - 1))


def all_pair_instances(n, d, w):
    """``(multidegree, row)`` of the identity instances as generated before
    one per span class was kept: for n = 2 one per set of three trees, for
    n >= 3 every pair (ts, ss), in the same loop order."""
    table = _tree_ids(n, d, w)
    degrees = tree_multidegrees(table)
    ids, start = table.ids, table.starts[w]
    for u in range(2, w):
        company = _increasing_tuples(table.runs, n - 1, w - u + n - 2)
        for t in range(table.starts[u], table.starts[u + 1]):
            ts = table.kids[t]
            for ss in company:
                if n == 2 and ss[0] <= ts[1]:
                    continue
                row = _instance_row(ts, ss, ids, start)
                if row:
                    m = tuple(map(sum, zip(degrees[t], *(degrees[s] for s in ss))))
                    yield m, row


def generation_order_route(n, d, w):
    """R_w as the oracle found it before: every instance pair and the wraps
    of R_{w-1}, each multidegree block's rows inserted in the order they
    are generated, the blocks' subspaces joined by pivot."""
    width = len(canon_trees(n, d, w))
    rows = []
    if w >= 3 and width:
        table = _tree_ids(n, d, w)
        rows = list(all_pair_instances(n, d, w))
        rows += _wrapped_relation_rows(n, d, w, table, every_multidegree(n, d, w), None)
    builders = {}
    for m, row in rows:
        builders.setdefault(m, SpanBuilder(width)).insert(row)
    joined = {}
    for builder in builders.values():
        joined.update(builder.subspace().rows)
    return Subspace(width, joined)


@pytest.mark.parametrize("n,d,w", REFERENCE_LAYERS)
def test_span_classes_and_descending_insertion_match_generation_order(n, d, w):
    free_algebra.clear_caches()
    component = graded_component(n, d, w)
    reference = generation_order_route(n, d, w)
    assert component.rank == reference.dim
    assert component.relations == reference
    assert component.basis_indices == reference.complement_coords()


def _instances_in_block(n, d, w, m):
    """Every instance pair (ts, ss) of the block m of weight w, with its
    row, and the rows :func:`_identity_instance_rows` generates there."""
    table = _tree_ids(n, d, w)
    degrees = tree_multidegrees(table)
    ids, start = table.ids, table.starts[w]
    pairs = []
    for u in range(2, w):
        company = _increasing_tuples(table.runs, n - 1, w - u + n - 2)
        for t in range(table.starts[u], table.starts[u + 1]):
            for ss in company:
                if tuple(map(sum, zip(degrees[t], *(degrees[s] for s in ss)))) == m:
                    ts = table.kids[t]
                    pairs.append((ts, ss, _instance_row(ts, ss, ids, start)))
    keys, base = table.multidegrees(w)
    wanted = {_encoded(m, base): m}
    generated = [row for _, row in _identity_instance_rows(n, w, table, keys, wanted)]
    return pairs, generated


def _rank(rows, width):
    return Subspace.from_vectors(rows, width).dim


def test_five_distinct_letters_keep_a_basis_of_five_splits():
    """Over the letters x1..x5 (the block (1,1,1,1,1) of (3,5,3)) the 10
    splits span 5 dimensions, and the splits with x5 in ss or ss = {x3, x4}
    are a basis of that span."""
    free_algebra.clear_caches()
    width = len(canon_trees(3, 5, 3))
    pairs, generated = _instances_in_block(3, 5, 3, (1, 1, 1, 1, 1))
    assert len(pairs) == 10
    kept = [row for ts, ss, row in pairs if ss[1] == 5 or ss == (3, 4)]
    assert len(kept) == len(generated) == 5
    assert sorted(map(sorted, map(dict.items, generated))) == sorted(
        map(sorted, map(dict.items, kept))
    )
    assert _rank(kept, width) == 5 == _rank([row for _, _, row in pairs], width)
    assert Subspace.from_vectors(kept, width) == Subspace.from_vectors(
        [row for _, _, row in pairs], width
    )


def test_one_shared_letter_is_alternating_in_the_other_three():
    """Over x1 twice and x2, x3, x4 once (the block (2,1,1,1) of (3,4,3)),
    the three instances J((x1,b,c),(x1,s)) are +- the kept one, s = x4."""
    free_algebra.clear_caches()
    pairs, generated = _instances_in_block(3, 4, 3, (2, 1, 1, 1))
    assert sorted((ts, ss) for ts, ss, _ in pairs) == [
        ((1, 2, 3), (1, 4)), ((1, 2, 4), (1, 3)), ((1, 3, 4), (1, 2)),
    ]
    kept = next(row for ts, ss, row in pairs if ss == (1, 4))
    assert kept and generated == [kept]
    negated = {col: -x for col, x in kept.items()}
    for _, _, row in pairs:
        assert row in (kept, negated)


def test_two_shared_letters_give_the_zero_row():
    """J((x1,x2,x3),(x1,x2)) = 0 (the block (2,2,1) of (3,3,3)), so no
    instance of that block is generated."""
    free_algebra.clear_caches()
    pairs, generated = _instances_in_block(3, 3, 3, (2, 2, 1))
    assert [(ts, ss, row) for ts, ss, row in pairs] == [((1, 2, 3), (1, 2), {})]
    assert generated == []


@pytest.mark.parametrize("n,d,w", [(3, 5, 4), (3, 4, 5), (3, 3, 6)])
def test_every_ternary_instance_lies_in_the_span_of_the_kept_ones(n, d, w):
    """Over trees, not only letters: each skipped instance of a whole
    layer reduces to 0 modulo the span of the generated ones."""
    free_algebra.clear_caches()
    width = len(canon_trees(n, d, w))
    table = _tree_ids(n, d, w)
    keys, base = table.multidegrees(w)
    wanted = {_encoded(m, base): m for m in every_multidegree(n, d, w)}
    kept = Subspace.from_vectors(
        [row for _, row in _identity_instance_rows(n, w, table, keys, wanted)], width
    )
    every = [row for _, row in all_pair_instances(n, d, w)]
    assert kept.dim < len(every)
    assert Subspace.from_vectors(every, width) == kept


ORACLE_LAYERS = ((2, 4, 6), (3, 4, 5), (3, 5, 4), (2, 2, 9))


def test_cold_oracle_layers_insert_at_most_1101_rows(monkeypatch):
    """The four layers of the oracle benchmark, each built cold with every
    layer below it, insert at most 1,101 relation rows (1,313 when every
    n = 3 instance pair was generated)."""
    inserted = []
    original = SpanBuilder.insert

    def spy(self, vec, owned=False):
        inserted.append(vec)
        return original(self, vec, owned=owned)

    monkeypatch.setattr(linalg.SpanBuilder, "insert", spy)
    for layer in ORACLE_LAYERS:
        free_algebra.clear_caches()
        graded_component(*layer)
    assert len(inserted) <= 1101


def test_rows_are_inserted_in_descending_order_of_first_column(monkeypatch):
    """Each builder of a layer gets its rows with nonincreasing first
    columns, and the first row of each first column is stored with no
    clearing."""
    seen = {}
    original = SpanBuilder.insert

    def spy(self, vec, owned=False):
        # the builder is kept with its columns, so no id is reused
        _, firsts = seen.setdefault(id(self), (self, []))
        # an owned row may be cleared in place, so its first column is read first
        first = min(vec)
        assert not firsts or first <= firsts[-1]
        stored = len(self.rows)
        fresh = first not in self.rows
        grew = original(self, vec, owned=owned)
        if fresh:
            assert grew and first in self.rows and len(self.rows) == stored + 1
        firsts.append(first)
        return grew

    free_algebra.clear_caches()
    monkeypatch.setattr(linalg.SpanBuilder, "insert", spy)
    graded_component(3, 4, 5)
    assert seen
