"""The rank oracle without re-reduction: a layer's rank is read off its
orbit representatives, the next weight wraps the block rows as they are, and
the reduced echelon basis is built only when something reads it.  Checked
against the full block-by-block route and against outputs pinned before the
change."""

import hashlib
from itertools import combinations

import pytest

from nlie import cli, free_algebra
from nlie.free_algebra import _relation_rows, canon_trees, graded_component
from nlie.linalg import SpanBuilder, Subspace

from layer_record import layer_sha256

LAZY = {"relations", "basis_indices", "basis_position"}


def every_multidegree(n, d, w):
    """Every d-tuple of nonnegative ints summing to the leaf count of weight
    w, by stars and bars."""
    total = (w - 1) * (n - 1) + 1
    if d == 0:
        return []
    out = []
    for bars in combinations(range(total + d - 1), d - 1):
        edges = (-1, *bars, total + d - 1)
        out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return out


def _block_by_block(n, d, w):
    """The full route: every multidegree block eliminated from all of its
    own generated rows (no orbit transport), the blocks' reduced echelon
    rows joined by pivot."""
    width = len(canon_trees(n, d, w))
    builders = {}
    for key, row in _relation_rows(n, d, w, every_multidegree(n, d, w), None):
        builders.setdefault(key, SpanBuilder(width)).insert(row)
    rows = {}
    for builder in builders.values():
        span = builder.subspace()
        rows.update(zip(span.pivots, span.basis))
    pivots = tuple(sorted(rows))
    space = Subspace.from_vectors(rows.values(), width)
    assert space.basis == tuple(rows[p] for p in pivots) and space.pivots == pivots
    return space


# the layers of test_relation_basis_is_pinned, and every (n, d, w) with
# n in {2, 3, 4}, d <= 4 and at most 600 trees (for d < n, up to the first
# empty layer)
TOP_WEIGHT = {
    (2, 1): 2, (2, 2): 9, (2, 3): 6, (2, 4): 5,
    (3, 1): 2, (3, 2): 2, (3, 3): 6, (3, 4): 4,
    (4, 1): 2, (4, 2): 2, (4, 3): 2, (4, 4): 6,
}
LAYERS = sorted(
    {(2, 4, 6), (3, 4, 5), (3, 5, 4), (2, 2, 9), (4, 5, 4)}
    | {(n, d, w) for (n, d), top in TOP_WEIGHT.items() for w in range(1, top + 1)}
)


def test_layer_list_reaches_600_trees():
    # the guard checks only layers not yet interned, so start from cold tables
    free_algebra.clear_caches()
    for (n, d), top in TOP_WEIGHT.items():
        assert len(canon_trees(n, d, top)) <= 600
        if len(canon_trees(n, d, top)):
            with pytest.raises(free_algebra.ResourceLimitError):
                canon_trees(n, d, top + 1, max_trees=600)


@pytest.mark.parametrize("n,d,w", LAYERS)
def test_rank_and_lazy_relations_match_block_by_block_route(n, d, w):
    free_algebra.clear_caches()
    component = graded_component(n, d, w)
    # the rank is known before any reduced echelon basis is built
    assert not LAZY & set(vars(component))
    rank = component.rank
    reference = _block_by_block(n, d, w)
    assert rank == reference.dim
    assert component.dim == len(component.trees) - reference.dim
    assert component.relations == reference
    assert component.basis_indices == reference.complement_coords()


# sha256 of ``nlie graded`` stdout, taken before the reduced echelon basis
# became lazy
GRADED_STDOUT_SHA256 = {
    (2, 4, 6, False): "73d6fbbd0501a2572d3596a7890fbeed3febd3637f1d98b9cc01ae78cdebc80a",
    (2, 4, 6, True): "f6038940dd9624e37a0c69217305eefb80a581c3f74d957cbc997f3a3b910edb",
    (3, 4, 5, False): "259d4443fca1823fd90ecf6c4e6b7b6b0c3e989bf89cf07a398cd1268764a562",
    (3, 4, 5, True): "48f099ab67d102dd280ca664c49a230de316a5e70dbd9e9c67c6c66d5000a3a4",
    (3, 5, 4, False): "29dcdfdc66b16bdcc11843b83819b908b7748565eecd399e6b6e55275c9170bc",
    (3, 5, 4, True): "d296f428edf2ec5de99d14ccb954955ee8cfef670f046abbc7d4b41e0f96f469",
    (2, 2, 9, False): "448bed0ba5cc633984e24b340b93b5f2c25c20eec9df70b3e89deec0bf91007c",
    (2, 2, 9, True): "71a7eaa52968c000cd114c2c0c138594cc5348e292ad104daa527bcb489810ec",
    (4, 5, 4, False): "a85813520490265587b6af613f5c9a829dcaffd41f6d8d7c08bd0c859bb6470a",
    (4, 5, 4, True): "21f41760e2cc3c6b304370c5ab2c01be6fb3f77151a1a68a97f2b4a109616c70",
    (2, 3, 5, False): "5eafbf77049064eee021bf09e7dd939f23c54f15d2fa73ed1ad0bf6198a5f7a6",
    (2, 3, 5, True): "6e5f0dadbb2b87fc091751162f77d33e041ea3643d34765ab2b8cd62dca0a0f2",
}


def _graded_stdout(capsys, n, d, w, *extra):
    free_algebra.clear_caches()
    capsys.readouterr()
    assert cli.main(["graded", "-n", str(n), "-d", str(d), "-w", str(w), *extra]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("n,d,w,basis", sorted(GRADED_STDOUT_SHA256))
def test_graded_stdout_is_pinned(capsys, n, d, w, basis):
    out = _graded_stdout(capsys, n, d, w, *(["--basis"] if basis else []))
    assert hashlib.sha256(out.encode()).hexdigest() == GRADED_STDOUT_SHA256[(n, d, w, basis)]


# sha256 of the layer record (see layer_record.py) of every layer 3..w that
# ``nlie graded`` builds for the four layers of the oracle benchmark: the
# hashes of the files the persisted component cache wrote for them, taken
# before the reduced echelon basis became lazy
LAYER_SHA256 = {
    (2, 4, 6): {
        3: "1d37e413ee241038450a76871adfb4a0047d72c4d6b8d1b2308ceef963dc2471",
        4: "f47b52f8417280aea88a10784613cbe7548538cffc68ad6dfb1acff0e691db30",
        5: "af35bfa7c737f254da96d41354c41f345b7334f9f7eedc64b103cc638ec016ac",
        6: "157b109a093088b1ca237f9f74c54269276252c5fbb018628bb4674430f38d93",
    },
    (3, 4, 5): {
        3: "c600ae05380cc2a571d8d7674e79d285e7d3635812d94cc15524cd15cdd28e5a",
        4: "3dacd45f922db0b31cd3832c72e0fc57308a2759125deb9d5b6568b55695e0af",
        5: "9f1ad321d0260c6575e1547094aec1fc177408085099f53e000442560785fc9c",
    },
    (3, 5, 4): {
        3: "be8027f290421482c168028d6a968987cf9c1b13cc76835f5d695091883583b0",
        4: "bcff0cfb3176ddb78e151ee190d30e14b39c1c40d4a651f62d2f7a8f8412f33b",
    },
    (2, 2, 9): {
        3: "1042b0b017eb0fa60fe06481d59766cd618c5b235d8b573b86cb8948bbe597a2",
        4: "28deaf2009ea5ac6d80c8e484116efa79484be54c9b1be3a53091dd40cec7f05",
        5: "7006642ce69c38dda5f95c0de5f9ecee9bf479162d5d93835a03677e295230e9",
        6: "9d83c281eb813d1a22e6ed53893c6b3a0eaa909524255fa7498f26374b021d4b",
        7: "c5c8d39be96d48105a85fbf5348baaaeac04e634b3dad75d5d43ee88ef22fdf5",
        8: "f834e7067a459c8a5416d993638fb97c325f72477aabe536d1f682a676260419",
        9: "07a20810bd89b11a38eadc70143d61e633444f5cbb56e341254cd26da8f5a4e6",
    },
}


@pytest.mark.parametrize("n,d,w", sorted(LAYER_SHA256))
def test_cache_files_are_pinned(n, d, w):
    free_algebra.clear_caches()
    got = {v: layer_sha256(graded_component(n, d, v)) for v in range(3, w + 1)}
    assert got == LAYER_SHA256[(n, d, w)]
