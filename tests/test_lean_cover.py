"""The multiplier's lean cover against the full structure table.

``FreeNilpotentAlgebra`` gives the multiplier the integer generator maps
(``generator_maps``) and the table entries below the class
(``brackets_below``), and builds the Fraction table, ``StructureAlgebra``
and ``_ad`` only when ``algebra`` is read.  Here the two are checked
against each other on every cover the ``algebra`` benchmark workload
builds and on the edge covers with d = 0 and d < n - 1; the emitted
``free-nilpotent --emit`` files are pinned to their sha256; the tree guard
still stops the multiplier and the catalog; and ``validate`` visits only
the pairs that can fail, with the same report as the exhaustive loop.
"""

import hashlib
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from nlie import free_algebra, multiplier
from nlie.algebra import StructureAlgebra, ValidationReport, _axpy, abelian, heisenberg
from nlie.bounds import catalog_algebras
from nlie.cli import main
from nlie.free_algebra import free_nilpotent
from nlie.multiplier import multiplier_report, present

ROOT = Path(__file__).resolve().parents[1]

# The covers (n, d, k) one pass of the ``algebra`` workload builds, seed 1
# (``test_workload_builds_these_covers`` keeps the list honest).
WORKLOAD_COVERS = [
    (2, 0, 1), (2, 0, 2), (2, 0, 3), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (2, 2, 3),
    (2, 2, 4), (2, 2, 5), (2, 3, 2), (2, 3, 3), (2, 3, 4), (2, 4, 2), (2, 4, 3), (2, 4, 4),
    (2, 6, 3), (3, 0, 1), (3, 0, 2), (3, 0, 3), (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 3, 2),
    (3, 3, 3), (3, 3, 4),
]
# the catalog's F(2,2,1), built when the workload is set up; d < n - 1 with
# a larger class; n = 4; and two larger covers
EXTRA_COVERS = [(2, 2, 1), (3, 1, 5), (4, 2, 3), (4, 3, 2), (4, 4, 3), (2, 3, 5), (3, 4, 3)]

# sha256 of the file ``nlie free-nilpotent -n N -d D -k K --emit FILE`` wrote
# before the table was built lazily
EMIT_SHA256 = {
    (2, 2, 4): "2c1483dcb430b3a0c36d6025bcf963b647ae301614121ef5b1cee8f93197220d",
    (2, 3, 3): "f413634762e8ccf20612d14a1b603c336994b47d06cd4b21c29a0e55a439a912",
    (3, 3, 3): "1a3b44d266cf9a58aa35070164934df6fac0975eab7bd733e29c4582d142a4b5",
    (3, 4, 2): "54a036ee78961fa776bb3ce974ae47bbea62e5d1f2cc3aeef8b43620a1ab28c0",
}


def _cold():
    free_algebra.clear_caches()
    multiplier.clear_cache()


def test_workload_builds_these_covers():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    seen = set()
    for job in workloads.prepare("algebra", 1):
        workloads.clear_memo()
        job.call()
        seen |= set(free_algebra._FREE_CACHE)
    assert sorted(seen) == WORKLOAD_COVERS


def _positive_factor(got: dict, want: dict) -> Fraction | None:
    """The one positive factor f with got == f * want, entry by entry, or
    None when there is none."""
    ratios = {Fraction(got[i][j]) / want[i][j] for i in want for j in want[i]}
    same_support = got.keys() == want.keys() and all(got[i].keys() == want[i].keys() for i in want)
    if same_support and len(ratios) == 1 and next(iter(ratios)) > 0:
        return next(iter(ratios))
    return None


@pytest.mark.parametrize("n,d,k", WORKLOAD_COVERS + EXTRA_COVERS)
def test_generator_maps_are_scaled_table_maps(n, d, k):
    built = free_nilpotent(n, d, k)
    ad = built.algebra._ad
    tuples = list(combinations(range(d), n - 1))
    assert list(built.generator_maps) == [t for t in tuples if t in ad]
    for tup, got in built.generator_maps.items():
        assert all(type(x) is int for row in got.values() for x in row.values())
        assert _positive_factor(got, ad[tup]) is not None, tup


@pytest.mark.parametrize("n,d,k", WORKLOAD_COVERS + EXTRA_COVERS)
def test_brackets_below_are_table_entries(n, d, k):
    built = free_nilpotent(n, d, k)
    table = built.algebra.table
    for low in sorted({0, 1, built.dim // 2, built.dim, *built.layer_offsets}):
        want = [(args, value) for args, value in table.items() if args[-1] < low]
        assert list(built.brackets_below(low).items()) == want


def test_a_negated_map_entry_is_caught():
    """The factor check fails on a map with one entry negated."""
    built = free_nilpotent(2, 2, 4)
    tup, got = next(iter(built.generator_maps.items()))
    i = next(iter(got))
    j = next(iter(got[i]))
    broken = {**got, i: {**got[i], j: -got[i][j]}}
    assert _positive_factor(broken, built.algebra._ad[tup]) is None


@pytest.mark.parametrize("alg,c,k", [(abelian(0, 2), 1, 1), (abelian(1, 3), 1, 2), (abelian(1, 3), 3, 4)])
def test_edge_covers_present(alg, c, k):
    """d = 0 and d < n - 1: no generator tuple, so no map, and E has no
    bracket at all: E = L and the multiplier is 0."""
    p = present(alg, c)
    assert (p.free.n, p.free.d, p.free.k) == (alg.n, alg.dim, k)
    assert p.free.generator_maps == {} == p.free.algebra._ad
    assert p.free.dim == alg.dim
    assert multiplier_report(alg, c).multiplier_dim == 0


def test_multiplier_reads_no_full_table():
    _cold()
    for alg, c in ((heisenberg(2, 2), 2), (heisenberg(3, 1), 2)):
        multiplier_report(alg, c)
    assert free_algebra._FREE_CACHE
    for built in free_algebra._FREE_CACHE.values():
        assert not {"algebra", "basis_trees", "basis_names"} & set(vars(built))
    _cold()


@pytest.mark.parametrize("ndk", sorted(EMIT_SHA256))
def test_emitted_file_is_pinned(ndk, tmp_path, capsys):
    _cold()
    path = tmp_path / "free.json"
    n, d, k = ndk
    assert main(["free-nilpotent", "-n", str(n), "-d", str(d), "-k", str(k), "--emit", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EMIT_SHA256[ndk]


@pytest.mark.parametrize("argv", [
    ["multiplier", "heisenberg(2,2)", "-c", "2", "--max-trees", "20"],
    ["bounds", "--c-max", "2", "--max-trees", "20"],
])
def test_tree_guard_stops_the_cover(argv, capsys):
    _cold()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: more than 20 canonical trees at (n=2, d=4, w=3)\n"
    _cold()


# -- validate ---------------------------------------------------------------------


def exhaustive_validate(alg: StructureAlgebra):
    """The loop ``StructureAlgebra.validate`` replaced: every pair of
    sorted tuples, in order, bracketed in full."""
    checked = 0
    for a in combinations(range(alg.dim), alg.n):
        inner = alg.bracket_basis(a)
        for b in combinations(range(alg.dim), alg.n - 1):
            checked += 1
            defect = alg.bracket(inner, *({x: Fraction(1)} for x in b))
            for i in range(alg.n):
                replaced = alg.bracket_basis((a[i],) + b)
                if replaced:
                    args = [{x: Fraction(1)} for x in a]
                    args[i] = replaced
                    _axpy(defect, Fraction(-1), alg.bracket(*args))
            if defect:
                return ValidationReport(False, checked, (a, b), defect)
    return ValidationReport(True, checked, None, None)


CATALOG = catalog_algebras()


@pytest.mark.parametrize("alg", [alg for _, alg in CATALOG], ids=[label for label, _ in CATALOG])
def test_validate_matches_exhaustive_on_catalog(alg):
    assert alg.validate() == exhaustive_validate(alg)


def _broken_tables():
    """The textbook table that breaks the identity, and catalog algebras
    and free covers with their last n basis vectors made to bracket to the
    first one (or, where they already bracket, to twice that plus the
    first).  On a free cover the last n vectors have the top weight, so the
    identity on them and a generator fails late in the tuple order."""
    yield "textbook", StructureAlgebra(2, 3, table={(0, 1): {2: 1}, (0, 2): {0: 1}})
    covers = [(f"F{ndk}", free_nilpotent(*ndk).algebra) for ndk in ((2, 2, 4), (2, 3, 3), (2, 2, 5), (3, 3, 3), (3, 4, 2))]
    for label, alg in CATALOG + covers:
        if alg.dim >= 3:
            key = tuple(range(alg.dim - alg.n, alg.dim))
            value = {j: 2 * x for j, x in alg.table.get(key, {}).items()}
            value[0] = value.get(0, 0) + 1
            yield label, StructureAlgebra(alg.n, alg.dim, alg.basis_names, {**alg.table, key: value})


BROKEN = list(_broken_tables())


@pytest.mark.parametrize("alg", [alg for _, alg in BROKEN], ids=[label for label, _ in BROKEN])
def test_validate_matches_exhaustive_on_broken_tables(alg):
    assert alg.validate() == exhaustive_validate(alg)


def test_broken_tables_fail_after_skipped_pairs():
    """Most broken tables fail, and some only after whole tuples a whose
    pairs the new loop skips, so the skipped count is exercised."""
    reports = [alg.validate() for _, alg in BROKEN]
    assert sum(not r.valid for r in reports) >= 10
    assert sum(r.checked > comb(alg.dim, alg.n - 1) for r, (_, alg) in zip(reports, BROKEN) if not r.valid) >= 5


def test_validate_counts_every_pair_of_a_large_cover():
    report = free_nilpotent(3, 4, 3).algebra.validate()
    assert report.valid and report.checked == comb(28, 3) * comb(28, 2)
