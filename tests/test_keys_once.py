"""The rank oracle reads no key of its top layer and wraps only the layer
below: the blocks, rank and representatives come from the partitions of the
leaf count, and R_w is spanned by the identity instances plus R_{w-1}
wrapped with generator payloads.  Checked against the routes they replaced:
blocks read off every weight-w tree's multidegree, and every lower relation
wrapped with every payload."""

import pytest

from nlie import free_algebra
from nlie.free_algebra import (
    _TreeIds,
    _add_bracket,
    _encoded,
    _identity_instance_rows,
    _increasing_tuples,
    _relation_rows,
    _representative,
    _tree_ids,
    free_nilpotent,
    graded_component,
)
from nlie.linalg import SpanBuilder, Subspace

from test_lazy_rref import LAYERS, every_multidegree

# a layer with no generators, layers with fewer generators than the arity,
# and layers on seven generators, on top of the layers of test_lazy_rref
KEY_LAYERS = sorted(set(LAYERS) | {(2, 0, 3), (3, 2, 4), (4, 3, 5), (2, 7, 4), (3, 7, 3)})

# fast layers with n = 2..5 for the wrap lemma, on top of the same layers
WRAP_LAYERS = sorted(
    set(LAYERS)
    | {(2, 2, w) for w in range(3, 10)}
    | {(2, 4, w) for w in range(3, 6)}
    | {(3, 4, w) for w in range(3, 6)}
    | {(3, 5, 4), (4, 5, 3), (4, 5, 4), (5, 6, 3), (5, 5, 3), (4, 6, 3), (3, 3, 6)}
)


def instance_rows(n, d, w):
    """Every generated identity instance of weight w, in every block."""
    table = _tree_ids(n, d, w)
    if w < 3:
        return []
    keys, base = table.multidegrees(w)
    wanted = {_encoded(m, base): m for m in every_multidegree(n, d, w)}
    return [row for _, row in _identity_instance_rows(n, w, table, keys, wanted)]


def general_wrapped_row(relation, offset, payload, ids, start):
    """A lower relation row (columns = ids - ``offset``) in the first slot
    of a bracket with any increasing id tuple ``payload`` in the others,
    each term canonicalized: the wrap before payloads were generators."""
    row = {}
    for col, val in relation.items():
        _add_bracket(row, val, (offset + col,) + payload, ids, start)
    return row


def id_lookup_wrapped_row(relation, offset, payload, ids, start):
    """A lower relation row (columns = ids - ``offset``) in the first slot
    of a bracket with the increasing generator tuple ``payload`` in the
    others, each term's column looked up by its kid tuple: the wrap before
    wraps were shifted as a whole row."""
    sign = -1 if len(payload) % 2 else 1
    return {ids[payload + (offset + col,)] - start: sign * x for col, x in relation.items()}


def all_weight_wraps(n, d, w):
    """The wraps the oracle generated before it wrapped only R_{w-1}: the
    block rows of every lower layer R_v, 3 <= v < w, in the first slot of a
    bracket with every increasing tuple of canonical trees of complementary
    weight in the others."""
    table = _tree_ids(n, d, w)
    ids, start = table.ids, table.starts[w]
    for v in range(3, w):
        lower = graded_component(n, d, v)
        for payload in _increasing_tuples(table.runs, n - 1, w - v + n - 2):
            for m in lower.block_keys:
                for relation in lower.block_rows(m):
                    row = general_wrapped_row(relation, table.starts[v], payload, ids, start)
                    if row:
                        yield row


def tree_multidegrees(table):
    """The leaf multidegree of every interned tree, by id."""
    d = table.d
    degrees = [None] + [tuple(int(g == h) for h in range(d)) for g in range(d)]
    for kids in table.kids[d + 1:]:
        degrees.append(tuple(map(sum, zip(*(degrees[k] for k in kids)))))
    return degrees


def key_route(n, d, w):
    """``(block_keys, rank, representatives)`` as the oracle found them
    before: the blocks read off every weight-w tree's multidegree, rows
    generated for their representatives, and the blocks kept whose
    representative got rows."""
    table = _tree_ids(n, d, w)
    blocks = set(tree_multidegrees(table)[table.starts[w]:table.starts[w + 1]])
    width = table.starts[w + 1] - table.starts[w]
    builders = {}
    for m, row in _relation_rows(n, d, w, {_representative(m) for m in blocks}, None):
        builders.setdefault(m, SpanBuilder(width)).insert(row)
    kept = sorted(m for m in blocks if _representative(m) in builders)
    rank = sum(len(builders[_representative(m)].rows) for m in kept)
    return tuple(kept), rank, set(builders)


def _spy_on_keys(monkeypatch):
    """Record, for each read of the keys, whether it started the key list
    over and how many keys it encoded."""
    reads = []
    original = _TreeIds.multidegrees

    def spy(self, w):
        before = self._keys
        length = len(before)
        out = original(self, w)
        restarted = self._keys is not before
        reads.append((restarted, len(self._keys) - (0 if restarted else length)))
        return out

    monkeypatch.setattr(_TreeIds, "multidegrees", spy)
    return reads


def _assert_each_key_made_once(reads, table):
    assert sum(restarted for restarted, _ in reads) <= 1
    assert sum(made for _, made in reads) == len(table._keys)


@pytest.mark.parametrize("n,d,w", KEY_LAYERS)
def test_blocks_and_rank_from_representatives_match_key_route(n, d, w, monkeypatch):
    free_algebra.clear_caches()
    reads = _spy_on_keys(monkeypatch)
    component = graded_component(n, d, w)
    table = _tree_ids(n, d, w)
    # the weight-w layer is never keyed, and no key is encoded twice
    assert len(table._keys) <= table.starts[w]
    _assert_each_key_made_once(reads, table)
    representatives = set(component._blocks)
    block_keys, rank, key_reps = key_route(n, d, w)
    assert representatives == key_reps
    assert component.rank == rank
    assert component.block_keys == block_keys


@pytest.mark.parametrize("n,d,k", [(2, 2, 5), (2, 3, 4), (3, 3, 3), (3, 4, 3), (4, 5, 3)])
def test_cold_cover_keys_each_tree_once(n, d, k, monkeypatch):
    free_algebra.clear_caches()
    reads = _spy_on_keys(monkeypatch)
    free_nilpotent(n, d, k)
    table = _tree_ids(n, d, k)
    assert reads and len(table._keys) <= table.starts[k]
    _assert_each_key_made_once(reads, table)


def test_a_table_grown_later_is_keyed_again_in_a_larger_base():
    free_algebra.clear_caches()
    small = graded_component(2, 3, 4)
    table = _tree_ids(2, 3, 4)
    assert table._base == 5
    large = graded_component(2, 3, 6)
    assert table._base == 7 and len(table._keys) == table.starts[6]
    assert (small.rank, large.dim) == (len(small.trees) - 18, 116)


@pytest.mark.parametrize("n,d,w", WRAP_LAYERS)
def test_wrapping_the_layer_below_spans_every_lower_wrap(n, d, w):
    """R_w from the instances and R_{w-1} with generator payloads equals
    the span of the instances and every lower relation with every
    payload."""
    component = graded_component(n, d, w)
    reference = Subspace.from_vectors(
        instance_rows(n, d, w) + list(all_weight_wraps(n, d, w)), component.width
    )
    assert component.relations == reference
