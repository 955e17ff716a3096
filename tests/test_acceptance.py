"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value below is either a hand-derived transcription
fixture, an independently computable count (Witt/necklace numbers,
binomials), or a classical dimension the engine must reproduce.
"""

import hashlib
import json
import subprocess
import sys
import time
from math import comb

from sympy import divisors, mobius

from nlie.algebra import (
    abelian, direct_sum, gamma_term, heisenberg, quotient_algebra, to_json_dict, z_term,
)
from nlie.bounds import run_catalog, violations
from nlie.cli import main
from nlie.counting import compare_table, formula_count
from nlie.free_algebra import free_nilpotent, graded_dimension
from nlie.linalg import subspace_intersect
from nlie.multiplier import multiplier_report, z_star


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def witt(d: int, w: int) -> int:
    return sum(int(mobius(e)) * d ** (w // e) for e in divisors(w)) // w


def test_criterion_1_oracle_correctness():
    start = time.monotonic()
    ok = all(
        graded_dimension(2, d, w) == witt(d, w) for d in (2, 3, 4) for w in range(1, 6)
    )
    ok = ok and all(
        graded_dimension(n, d, 2) == comb(d, n) for n in (2, 3, 4) for d in range(1, 7)
    )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _criterion(1, ok, f"rank oracle matches Witt numbers and C(d,n) ({elapsed:.1f}s)")


def test_criterion_2_formula_transcription():
    fixtures_ok = (
        formula_count(2, 2, 3) == 2
        and formula_count(3, 2, 3) == 9
        and formula_count(4, 2, 3) == 24
    )
    rows = compare_table(2, [3], [3])
    flagged = rows[0].formula == 9 and rows[0].oracle == 8 and not rows[0].agree
    _criterion(2, fixtures_ok and flagged,
               "transcription fixtures hold; (3,2,3) disagreement is flagged")


def test_criterion_3_abelian_multipliers():
    start = time.monotonic()
    ok = True
    for d in (1, 2, 3):
        for c in (1, 2, 3):
            ok = ok and multiplier_report(abelian(d, 2), c).multiplier_dim == graded_dimension(2, d, c + 1)
    for c in (1, 2):
        ok = ok and multiplier_report(abelian(3, 3), c).multiplier_dim == graded_dimension(3, 3, c + 1)
    for d in (1, 2, 3, 4):
        ok = ok and multiplier_report(abelian(d, 2), 1).multiplier_dim == d * (d - 1) // 2
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    _criterion(3, ok, f"abelian multipliers equal oracle layer dims ({elapsed:.1f}s)")


def test_criterion_4_heisenberg_schur_multipliers():
    start = time.monotonic()
    dims = (
        multiplier_report(heisenberg(2, 1), 1).multiplier_dim,
        multiplier_report(heisenberg(2, 2), 1).multiplier_dim,
        multiplier_report(heisenberg(3, 1), 1).multiplier_dim,
    )
    elapsed = time.monotonic() - start
    ok = dims == (2, 5, 3) and dims[1] == comb(4, 2) - 1 and elapsed < 300
    _criterion(4, ok, f"Schur multipliers of H(2,1), H(2,2), H(3,1) are {dims} ({elapsed:.1f}s)")


def test_criterion_5_heisenberg_c_multipliers():
    start = time.monotonic()
    got1 = multiplier_report(heisenberg(2, 1), 2).multiplier_dim
    got2 = multiplier_report(heisenberg(2, 2), 2).multiplier_dim
    want1 = graded_dimension(2, 2, 3) + graded_dimension(2, 2, 4)
    want2 = graded_dimension(2, 4, 3)
    elapsed = time.monotonic() - start
    ok = (got1, got2) == (want1, want2) == (5, 20) and elapsed < 900
    _criterion(5, ok, f"c=2 multipliers: H(2,1) -> {got1}, H(2,2) -> {got2} ({elapsed:.1f}s)")


def test_criterion_6_capability():
    star1, capable1 = z_star(heisenberg(2, 1), 1)
    h22 = heisenberg(2, 2)
    star2, capable2 = z_star(h22, 1)
    ok = (
        capable1
        and star1.dim == 0
        and not capable2
        and star2.dim == 1
        and star2 == gamma_term(h22, 2)
    )
    _criterion(6, ok, "Z_1^*(H(2,1)) = 0 and Z_1^*(H(2,2)) = derived subalgebra (dim 1)")


def test_criterion_7_bound_suite():
    start = time.monotonic()
    checks = run_catalog(2)
    bad = violations(checks)
    abelian_gen = [
        ck for ck in checks
        if ck.variant == "oracle" and ck.name in ("generator-lower", "generator-upper")
        and ck.descriptor.startswith("L=A(")
    ]
    slack_ok = all(ck.slack == 0 for ck in abelian_gen)
    elapsed = time.monotonic() - start
    ok = not bad and slack_ok and abelian_gen and elapsed < 1800
    _criterion(
        7,
        bool(ok),
        f"{len(checks)} checks, {len(bad)} oracle violations, abelian bounds attained ({elapsed:.1f}s)",
    )


def test_criterion_8_equivalence_identity():
    h22 = heisenberg(2, 2)
    m = gamma_term(h22, 2)
    c = 2
    quotient, _ = quotient_algebra(h22, m)
    lhs = multiplier_report(quotient, c).multiplier_dim
    cap = subspace_intersect(m, gamma_term(h22, c + 1)).dim
    rhs = multiplier_report(h22, c).multiplier_dim + cap
    star, _ = z_star(h22, c)
    ok = (
        cap == 0
        and lhs == rhs == 20
        and star.contains_subspace(m)
        and z_term(h22, c).contains_subspace(m)
    )
    _criterion(8, ok, "additive multiplier identity holds for M = derived subalgebra of H(2,2), c = 2")


def test_criterion_9_determinism():
    first = run_catalog(1)
    second = run_catalog(1)
    in_process = json.dumps([ck.to_dict() for ck in first]) == json.dumps(
        [ck.to_dict() for ck in second]
    )
    ok = in_process
    for cmd in (
        ["table", "-n", "2", "--d-max", "4", "--w-max", "4"],
        ["bounds", "--c-max", "1"],
    ):
        argv = [sys.executable, "-m", "nlie.cli"] + cmd
        run_a = subprocess.run(argv, capture_output=True, check=True)
        run_b = subprocess.run(argv, capture_output=True, check=True)
        ok = ok and run_a.stdout and run_a.stdout == run_b.stdout
    _criterion(9, bool(ok), "repeated full runs produce byte-identical reports")


# sha256 of `nlie bounds --c-max C` stdout (JSON, then --tsv): a change to
# the checkers must leave the report byte-identical.
BOUNDS_SHA256 = {
    1: ("2e35f59c9549b71aaaf06225cc98171bbc97b2ef1797adc04c7f130c7b47d21b",
        "5e3526bd3db36ec9a53a5b7d89bf5d595c9fb24f388c8293afb274209de1bb11"),
    2: ("c8e11a448de22e21d83cd37be5a43f25284835d903b08e1d23b4129b1d795280",
        "66ec230b1bed97b56fd707ec0b40b1f4fe08ad9c3caaf27f4ad2c6daae140328"),
    3: ("e96cc304c0efe38dbbb8ddc03f40d60754896d2671d878a2c626e89b7812b292",
        "b63165061874224e5d21b21c5f5123794252b87adb5fad48cbbc9facc1529b54"),
    4: ("76c68606eb751fa1e69f7a0d3143f1dc5e2262b44d664ca18c353c6d7693dd38",
        "51cbd567d8d4604157f8ae11ffec664fcd60a204e5cc0d0ba05f1a8702ad1eca"),
    5: ("f2f64a559b2e1c4edb3296cc960d112656c0ccabc00a9891ae4cd35befcf06c4",
        "877f2b772ac22bea55ac29df65e596afa78e1ee61105044743c69838e6b8ffbb"),
}


def test_bounds_output_is_pinned(capsys):
    for c_max, pinned in BOUNDS_SHA256.items():
        got = []
        for extra in ([], ["--tsv"]):
            assert main(["bounds", "--c-max", str(c_max)] + extra) == 0
            got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert tuple(got) == pinned, c_max


CATALOG_DIR_FILES = {
    "h21_a1.json": lambda: direct_sum(heisenberg(2, 1), abelian(1, 2)),
    "h21_a2.json": lambda: direct_sum(heisenberg(2, 1), abelian(2, 2)),
    "h21_h21.json": lambda: direct_sum(heisenberg(2, 1), heisenberg(2, 1)),
    "h22.json": lambda: heisenberg(2, 2),
    "h31.json": lambda: heisenberg(3, 1),
    "f223.json": lambda: free_nilpotent(2, 2, 3).algebra,
}
CATALOG_DIR_SHA256 = (
    "656df5233d183dfb09c077ee94082d4d7172bf06f1f2bf93743169f13a8d7e27",
    "c241e654095c497bcf3f90a29a0dafd70c9a702f4ff3c021cc8ca881515a659e",
)


def test_bounds_catalog_dir_output_is_pinned(tmp_path, capsys):
    """A user catalog whose centres give exploratory central-tensor rows:
    the JSON and TSV output of ``bounds --catalog DIR --c-max 3``."""
    for name, build in CATALOG_DIR_FILES.items():
        (tmp_path / name).write_text(json.dumps(to_json_dict(build())) + "\n")
    got = []
    for extra in ([], ["--tsv"]):
        assert main(["bounds", "--catalog", str(tmp_path), "--c-max", "3"] + extra) == 0
        out = capsys.readouterr().out
        got.append(hashlib.sha256(out.encode()).hexdigest())
        if not extra:
            rows = json.loads(out)
    assert tuple(got) == CATALOG_DIR_SHA256
    assert sum(r["variant"] == "exploratory" for r in rows) == 9
