import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from nlie import cli, free_algebra, multiplier
from nlie.bounds import BoundCheck
from nlie.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_both_matches_documented_output(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "2", "-d", "3", "-w", "3")
    assert code == 0
    assert out == '{"formula": 9, "oracle": 8, "agree": false}\n'
    # an object payload prints one key and value per line
    code, out, _ = run_cli(capsys, "count", "-n", "2", "-d", "3", "-w", "3", "--tsv")
    assert code == 0
    assert out == "formula\t9\noracle\t8\nagree\tfalse\n"


def test_count_single_modes(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "2", "-d", "3", "-w", "3", "--oracle")
    assert code == 0 and json.loads(out) == {"oracle": 8}
    code, out, _ = run_cli(capsys, "count", "-n", "2", "-d", "5", "-w", "2", "--formula")
    assert code == 0 and json.loads(out) == {"formula": 10}


def test_table_tsv(capsys):
    code, out, _ = run_cli(capsys, "table", "-n", "2", "--d-max", "3", "--w-max", "3", "--tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t")[:3] == ["d", "n", "w"]
    assert len(lines) == 1 + 9


def test_graded_with_basis(capsys):
    code, out, _ = run_cli(capsys, "graded", "-n", "2", "-d", "2", "-w", "3", "--basis")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert doc["canonical_trees"] == 2
    assert doc["basis"] == ["[x1,[x1,x2]]", "[x2,[x1,x2]]"]


def test_multiplier_constructor_expression(capsys):
    code, out, _ = run_cli(capsys, "multiplier", "heisenberg(2,1)", "-c", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplier_dim"] == 2
    assert doc["capable_c"] is True


def test_zcstar(capsys):
    code, out, _ = run_cli(capsys, "zcstar", "heisenberg(2,2)", "-c", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["zcstar_dim"] == 1
    assert doc["capable_c"] is False


# sha256 of `nlie zcstar SPEC -c C` stdout, basis included, taken before the
# upper central series of E/U stopped at Z_c and below the known part.
ZCSTAR_SHA256 = {
    ("heisenberg(2,2)", 1): "65733f8cebeb1f88e7f66453860a2c3fe3f6030cd2c742b83f44ec3e931b190e",
    ("heisenberg(2,2)", 2): "54c0b538f5614c8d69f6b4442f895d9d653787119549d13ddd09648ab4812d13",
    ("heisenberg(2,2)", 3): "b1aa160ce6135462fa48a920dd2fda176881e85c1a2b6c81a635b0bb67ec201f",
    ("heisenberg(3,1)", 1): "e432e19d59b0e47c518d9feb8f16ce2ba8839a349c9fbf89b92080d651d89d26",
    ("heisenberg(3,1)", 2): "953b1ea4d6dceaa1e0f70b253158aef97979de71591df8867903059ffc052d70",
    ("heisenberg(3,1)", 3): "65c56da157e287a882d07f616fb6340cf423960ee65da2c5d66eadc797ad621f",
    ("direct_sum(heisenberg(2,1),abelian(2))", 1): "28f59c0ba078a8e64f8c680bc75b7f8f4c6e5fe8a919ef0a9447a63fba901c5b",
    ("direct_sum(heisenberg(2,1),abelian(2))", 2): "405f2b409a7958bda45ab8b9e283f13bec47d60d46ce0d71da9c5bd60cd9c7d7",
    ("direct_sum(heisenberg(2,1),abelian(2))", 3): "ff86e89315db8cf2028ff5d1e8ad11ecda2429afb11e9b760151457aea5d78c3",
    ("free_nilpotent(2,2,3)", 1): "707e8069ec2ddb0e0054f13f0638e45b4a3178d2d52d4e738299ee227d5b9a23",
    ("free_nilpotent(2,2,3)", 2): "45488f9fc4a34fee6135ce852d8cce804ba7ae426ba12b0293ab432ac3300459",
    ("free_nilpotent(2,2,3)", 3): "62ad38c635468a40f394b287a193515efec2cdcedc5b8352c0315ee399b58f7b",
}


@pytest.mark.parametrize("spec,c", sorted(ZCSTAR_SHA256))
def test_zcstar_output_is_pinned(capsys, spec, c):
    code, out, _ = run_cli(capsys, "zcstar", spec, "-c", str(c))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ZCSTAR_SHA256[(spec, c)]


def test_validate_constructor(capsys):
    # abelian(3,3) has arity 3: one basis triple times C(3, 2) outer pairs
    for spec, checked in (("abelian(5)", 50), ("abelian(3,3)", 3)):
        code, out, _ = run_cli(capsys, "validate", spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True and doc["violation"] is None and doc["checked"] == checked


def test_series_roundtrip_through_file(tmp_path, capsys):
    path = tmp_path / "h21.json"
    code, out, _ = run_cli(capsys, "heisenberg", "-n", "2", "-m", "1", "--emit", str(path))
    assert code == 0 and json.loads(out)["dim"] == 3
    code, out, _ = run_cli(capsys, "series", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [3, 1, 0] and doc["class"] == 2
    code, out, _ = run_cli(capsys, "series", str(path), "--upper")
    assert code == 0
    assert json.loads(out)["dims"] == [0, 1, 3]


def test_free_nilpotent_emit_and_validate(tmp_path, capsys):
    path = tmp_path / "fn.json"
    code, out, _ = run_cli(capsys, "free-nilpotent", "-n", "2", "-d", "2", "-k", "3",
                           "--emit", str(path))
    assert code == 0
    assert json.loads(out)["layer_dims"] == [2, 1, 2]
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and json.loads(out)["valid"] is True


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "dim": 2, "basis": ["a", "b"], "brackets": [{"args": [2, 1], "value": []}]}')
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "strictly increasing" in err


def test_unknown_spec_is_input_error(capsys):
    code, _, err = run_cli(capsys, "series", "no-such-file.json")
    assert code == 2
    assert "neither" in err


def test_invalid_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "line" in err


def test_bounds_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "bounds", "--c-max", "1")
    assert code == 0
    rows = json.loads(out)
    assert all(r["holds"] for r in rows if r["variant"] == "oracle" and r["applicable"])

    failing = BoundCheck("demo", "L=X, c=1", "oracle", 2, 1, "<=", False, -1, True, ())
    monkeypatch.setattr("nlie.cli.run_catalog", lambda *a, **k: [failing])
    code, out, _ = run_cli(capsys, "bounds", "--c-max", "1")
    assert code == 3


def test_bounds_catalog_dir(tmp_path, capsys):
    run_cli(capsys, "heisenberg", "-n", "2", "-m", "1", "--emit", str(tmp_path / "h.json"))
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "bounds", "--c-max", "1", "--catalog", str(tmp_path))
    assert code == 0
    rows = json.loads(out)
    assert rows and all(r["descriptor"].startswith("L=h.json") for r in rows)


def test_byte_identical_repeats(capsys):
    _, first, _ = run_cli(capsys, "table", "-n", "2", "--d-max", "3", "--w-max", "4")
    _, second, _ = run_cli(capsys, "table", "-n", "2", "--d-max", "3", "--w-max", "4")
    assert first == second


def test_cache_dir_option_is_gone(tmp_path, capsys, monkeypatch):
    free_algebra.clear_caches()
    code, plain, _ = run_cli(capsys, "graded", "-n", "2", "-d", "3", "-w", "4")
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["graded", "-n", "2", "-d", "3", "-w", "4", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
    # the environment variable that once selected the cache is ignored
    cache = tmp_path / "envcache"
    cache.mkdir()
    monkeypatch.setenv("NLIE_CACHE_DIR", str(cache))
    free_algebra.clear_caches()
    code, out, _ = run_cli(capsys, "graded", "-n", "2", "-d", "3", "-w", "4")
    assert code == 0 and out == plain
    assert not os.listdir(cache)


def test_max_trees_guard(capsys):
    free_algebra.clear_caches()
    code, _, err = run_cli(capsys, "graded", "-n", "2", "-d", "4", "-w", "5",
                           "--max-trees", "10")
    assert code == 2
    assert "canonical trees" in err


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["graded", "-n", "2", "-d", "1", "-w", "5000"], 0,
         '{"n": 2, "d": 1, "w": 5000, "canonical_trees": 0, "relation_rank": 0, "dim": 0}\n', ""),
        (["count", "-n", "3", "-d", "2", "-w", "3000"], 0,
         '{"formula": 0, "oracle": 0, "agree": true}\n', ""),
        (["graded", "-n", "2", "-d", "3", "-w", "5000", "--max-trees", "1000"], 2, "",
         "error: more than 1000 canonical trees at (n=2, d=3, w=7)\n"),
    ],
)
def test_large_weight_exits_without_traceback(capsys, argv, code, out, err):
    """The tree table grows a layer at a time in a loop, so a weight in the
    thousands neither recurses once per weight nor walks every empty lower
    layer for relation rows."""
    free_algebra.clear_caches()
    started = time.perf_counter()
    assert run_cli(capsys, *argv) == (code, out, err)
    assert time.perf_counter() - started < 5


NON_FILIPPOV = {
    "n": 2,
    "dim": 5,
    "basis": ["a", "b", "c", "d", "e"],
    "brackets": [
        {"args": [1, 2], "value": [[1, 1, 4]]},
        {"args": [3, 4], "value": [[1, 1, 5]]},
    ],
}


def test_non_filippov_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NON_FILIPPOV))
    for argv in (["multiplier", str(path), "-c", "1"], ["series", str(path)],
                 ["zcstar", str(path), "-c", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "bracket_args [1, 2], outer_args [3]" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and json.loads(out)["valid"] is False


SOLVABLE = {"n": 2, "dim": 2, "basis": ["e1", "e2"],
            "brackets": [{"args": [1, 2], "value": [[1, 1, 1]]}]}


def test_error_paths_exit_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "solvable.json"
    path.write_text(json.dumps(SOLVABLE))
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("no algebra here")
    not_nilpotent = "error: free presentation requires a nilpotent algebra\n"
    cases = [
        (["multiplier", str(path), "-c", "1"], not_nilpotent),
        (["zcstar", str(path), "-c", "1"], not_nilpotent),
        (["count", "-n", "2", "-d", "2", "-w", "0", "--formula"],
         "error: need d >= 1, n >= 2, w >= 1\n"),
        (["series", "heisenberg(1,1)"], "error: arity must be at least 2\n"),
        (["bounds", "--c-max", "6"], "error: c_max must be between 1 and 5\n"),
        (["table", "-n", "2", "--d-max", "21", "--w-max", "20"],
         "error: comparison grid has 420 cells, limit is 400\n"),
        (["table", "-n", "2", "--d-max", "0", "--w-max", "3"],
         "error: --d-max and --w-max must be at least 1\n"),
        (["table", "-n", "2", "--d-max", "-1", "--w-max", "3"],
         "error: --d-max and --w-max must be at least 1\n"),
        (["table", "-n", "2", "--d-max", "3", "--w-max", "0"],
         "error: --d-max and --w-max must be at least 1\n"),
        (["graded", "-n", "2", "-d", "2", "-w", "2", "--max-trees", "0"],
         "error: --max-trees must be at least 1\n"),
        (["count", "-n", "2", "-d", "2", "-w", "2", "--max-trees", "-1"],
         "error: --max-trees must be at least 1\n"),
        (["zcstar", "heisenberg(2,1)+abelian(2)", "-c", "2"],
         "error: 'heisenberg(2,1)+abelian(2)' is not one constructor call; "
         "combine algebras with direct_sum(A, B)\n"),
        (["multiplier", "heisenberg(2,1))", "-c", "1"],
         "error: unbalanced parentheses in 'heisenberg(2,1))'\n"),
        (["count", "-n", "2", "-d", "0", "-w", "2"], "error: need d >= 1\n"),
        (["series", "direct_sum(heisenberg(2,1))"],
         "error: direct_sum expects two algebra arguments\n"),
        (["series", "direct_sum(heisenberg(2,1), h.json)"],
         "error: direct_sum arguments must be constructor expressions\n"),
        (["bounds", "--c-max", "1", "--catalog", str(tmp_path / "missing")],
         f"error: {tmp_path / 'missing'}: [Errno 2] No such file or directory: "
         f"'{tmp_path / 'missing'}'\n"),
        (["bounds", "--c-max", "1", "--catalog", str(empty)],
         f"error: {empty}: no .json algebra files found\n"),
    ]
    for argv, message in cases:
        assert run_cli(capsys, *argv) == (2, "", message), argv


HEISENBERG = {"n": 2, "dim": 3, "basis": ["x", "y", "z"],
              "brackets": [{"args": [1, 2], "value": [[1, 1, 3]]}]}


@pytest.mark.parametrize(
    "path,message",
    [
        (("n",), "$.n: arity must be an integer >= 2"),
        (("dim",), "$.dim: dimension must be a nonnegative integer"),
        (("brackets", 0, "args", 0),
         "$.brackets[0].args: indices must be 1-based and within the dimension"),
        (("brackets", 0, "value", 0, 0), "$.brackets[0].value[0]: entries must be integers"),
        (("brackets", 0, "value", 0, 1), "$.brackets[0].value[0]: entries must be integers"),
        (("brackets", 0, "value", 0, 2), "$.brackets[0].value[0]: entries must be integers"),
    ],
    ids=["n", "dim", "args", "numerator", "denominator", "basis-index"],
)
def test_json_boolean_in_a_numeric_field_is_input_error(tmp_path, capsys, path, message):
    """``true`` is a Python int but not a JSON number: each numeric field
    rejects it with its field path instead of reading it as 1."""
    obj = json.loads(json.dumps(HEISENBERG))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = True
    file = tmp_path / "bool.json"
    file.write_text(json.dumps(obj))
    assert run_cli(capsys, "multiplier", str(file), "-c", "1") == (2, "", f"error: {file}: {message}\n")


def test_unwritable_emit_path_exits_2_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    cases = [
        (["free-nilpotent", "-n", "2", "-d", "2", "-k", "3", "--emit", str(missing)],
         f"error: cannot write {missing}: No such file or directory\n"),
        (["heisenberg", "-n", "2", "-m", "1", "--emit", str(tmp_path)],
         f"error: cannot write {tmp_path}: Is a directory\n"),
    ]
    for argv, message in cases:
        assert run_cli(capsys, *argv) == (2, "", message), argv
    assert not missing.parent.exists()


def test_failed_self_check_exits_4_with_one_line(capsys, monkeypatch):
    from nlie import multiplier

    def broken(*args):
        raise AssertionError("bracket not respected on basis tuple (0, 1)")

    monkeypatch.setattr(multiplier, "_check_homomorphism", broken)
    multiplier.clear_cache()
    try:
        got = run_cli(capsys, "multiplier", "heisenberg(2,1)", "-c", "1")
    finally:
        multiplier.clear_cache()
    message = "error: internal self-check failed: bracket not respected on basis tuple (0, 1)\n"
    assert got == (4, "", message)


def test_bounds_max_trees_guards_the_covers(capsys):
    free_algebra.clear_caches()
    multiplier.clear_cache()
    assert run_cli(capsys, "bounds", "--c-max", "2", "--max-trees", "20") == (
        2, "", "error: more than 20 canonical trees at (n=2, d=4, w=3)\n"
    )


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    """main builds the parser once per process: a graded run, an exit-2
    input, a usage error and a --tsv run in one process print what each
    prints in a process of its own."""
    runs = [
        ["graded", "-n", "2", "-d", "3", "-w", "4"],
        ["graded", "-n", "2", "-d", "2", "-w", "2", "--max-trees", "0"],
        ["graded", "-n", "2"],
        ["count", "-n", "2", "-d", "3", "-w", "3", "--tsv"],
    ]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    together = []
    for argv in runs:
        free_algebra.clear_caches()
        try:
            together.append(run_cli(capsys, *argv))
        except SystemExit as exc:
            captured = capsys.readouterr()
            together.append((exc.code, captured.out, captured.err))
    cli._parser.cache_clear()
    assert built == [1]
    for argv, (code, out, err) in zip(runs, together):
        alone = subprocess.run(
            [sys.executable, "-m", "nlie.cli", *argv], capture_output=True, text=True
        )
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
    assert [code for code, _, _ in together] == [0, 2, 2, 0]
