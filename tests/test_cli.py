import json
import os

from nlie import free_algebra
from nlie.bounds import BoundCheck
from nlie.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_both_matches_documented_output(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "2", "-d", "3", "-w", "3")
    assert code == 0
    assert out == '{"formula": 9, "oracle": 8, "agree": false}\n'


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


def test_validate_constructor(capsys):
    code, out, _ = run_cli(capsys, "validate", "abelian(5)")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["violation"] is None


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


def test_component_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache"
    free_algebra.clear_caches()
    code, first, _ = run_cli(capsys, "graded", "-n", "2", "-d", "3", "-w", "4",
                             "--cache-dir", str(cache))
    assert code == 0
    files = sorted(os.listdir(cache))
    assert any(name.startswith("component_n2_d3") for name in files)

    # a fresh in-memory state must load from the persisted cache
    free_algebra.clear_caches()
    code, second, _ = run_cli(capsys, "graded", "-n", "2", "-d", "3", "-w", "4",
                              "--cache-dir", str(cache))
    assert code == 0 and second == first

    # corrupt entries are ignored and recomputed
    target = cache / "component_n2_d3_w4.json"
    target.write_text('{"format": "something-else"}')
    free_algebra.clear_caches()
    code, third, _ = run_cli(capsys, "graded", "-n", "2", "-d", "3", "-w", "4",
                             "--cache-dir", str(cache))
    assert code == 0 and third == first


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("NLIE_CACHE_DIR", str(cache))
    free_algebra.clear_caches()
    code, _, _ = run_cli(capsys, "graded", "-n", "2", "-d", "2", "-w", "3")
    assert code == 0
    assert cache.exists() and os.listdir(cache)


def test_max_trees_guard(capsys):
    free_algebra.clear_caches()
    code, _, err = run_cli(capsys, "graded", "-n", "2", "-d", "4", "-w", "5",
                           "--max-trees", "10")
    assert code == 2
    assert "canonical trees" in err


def test_unusable_cache_dir_warns_and_runs_uncached(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    free_algebra.clear_caches()
    code, plain, _ = run_cli(capsys, "graded", "-n", "2", "-d", "2", "-w", "4")
    free_algebra.clear_caches()
    code, out, err = run_cli(capsys, "graded", "-n", "2", "-d", "2", "-w", "4",
                             "--cache-dir", str(blocker / "sub"))
    assert code == 0 and out == plain
    assert err.startswith("warning: cache directory") and err.count("\n") == 1


def test_stale_v1_cache_entry_is_recomputed_as_v2(tmp_path, capsys):
    free_algebra.clear_caches()
    comp = free_algebra.graded_component(2, 3, 4)
    old = free_algebra.component_to_json(comp)
    del old["relation_rows"]
    old["format"] = "nlie-graded-component-v1"
    old["relation_basis"] = [
        [str(row.get(c, 0)) for c in range(len(comp.trees))] for row in comp.relations.basis
    ]
    target = tmp_path / "component_n2_d3_w4.json"
    target.write_text(json.dumps(old))
    free_algebra.clear_caches()
    code, out, _ = run_cli(capsys, "graded", "-n", "2", "-d", "3", "-w", "4",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["dim"] == comp.dim
    assert json.loads(target.read_text())["format"] == free_algebra.COMPONENT_FORMAT


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
    not_nilpotent = "error: free presentation requires a nilpotent algebra\n"
    cases = [
        (["multiplier", str(path), "-c", "1"], not_nilpotent),
        (["zcstar", str(path), "-c", "1"], not_nilpotent),
        (["count", "-n", "2", "-d", "2", "-w", "0", "--formula"],
         "error: need d >= 1, n >= 2, w >= 1\n"),
        (["series", "heisenberg(1,1)"], "error: arity must be at least 2\n"),
        (["table", "-n", "2", "--d-max", "21", "--w-max", "20"],
         "error: comparison grid has 420 cells, limit is 400\n"),
    ]
    for argv, message in cases:
        assert run_cli(capsys, *argv) == (2, "", message), argv
