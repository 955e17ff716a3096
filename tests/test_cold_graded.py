"""A cold ``nlie graded`` pays only for its own work: one subcommand's
parser instead of all ten, relation rows handed to the builders with no
copy, and wrapped relations shifted as whole rows.  Checked against the
routes they replaced: the full parser, a copying insert, and the wrap that
looked each column up by its kid tuple."""

import contextlib
import io
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlie import cli, free_algebra, multiplier
from nlie.algebra import StructureAlgebra, heisenberg
from nlie.free_algebra import _relation_rows, _tree_ids, _wrapped_relation_rows, graded_component
from nlie.linalg import AmbientMismatchError, SpanBuilder

from test_keys_once import id_lookup_wrapped_row
from test_lazy_rref import LAYERS, every_multidegree

# one valid input per subcommand, and inputs with a bad type and with a
# missing required argument (bounds has none, so its --c-max lacks a value)
VALID = {
    "count": ["-n", "2", "-d", "2", "-w", "3", "--oracle"],
    "table": ["-n", "2", "--d-max", "2", "--w-max", "2"],
    "graded": ["-n", "2", "-d", "2", "-w", "3", "--basis"],
    "free-nilpotent": ["-n", "2", "-d", "2", "-k", "2", "--emit", "out.json"],
    "series": ["heisenberg(2,1)", "--upper"],
    "multiplier": ["heisenberg(2,1)", "-c", "1"],
    "zcstar": ["heisenberg(2,1)", "-c", "1", "--tsv"],
    "heisenberg": ["-n", "2", "-m", "1"],
    "bounds": ["--c-max", "1", "--max-trees", "20"],
    "validate": ["heisenberg(2,1)"],
}
BAD_TYPE = {
    "count": ["-n", "x", "-d", "2", "-w", "3"],
    "table": ["-n", "2", "--d-max", "two", "--w-max", "2"],
    "graded": ["-n", "2", "-d", "2", "-w", "3.5"],
    "free-nilpotent": ["-n", "2", "-d", "2", "-k", "k"],
    "series": ["heisenberg(2,1)", "--max-trees", "many"],
    "multiplier": ["heisenberg(2,1)", "-c", "one"],
    "zcstar": ["heisenberg(2,1)", "-c", ""],
    "heisenberg": ["-n", "2", "-m", "1e3"],
    "bounds": ["--c-max", "x"],
    "validate": ["heisenberg(2,1)", "--max-trees", "0x10"],
}
MISSING = {
    "count": ["-n", "2", "-d", "2"],
    "table": ["-n", "2", "--w-max", "2"],
    "graded": ["-d", "2", "-w", "3"],
    "free-nilpotent": ["-n", "2", "-k", "2"],
    "series": ["--upper"],
    "multiplier": ["heisenberg(2,1)"],
    "zcstar": ["-c", "1"],
    "heisenberg": ["-m", "1"],
    "bounds": ["--c-max"],
    "validate": [],
}


def test_every_subcommand_has_its_cases():
    assert set(VALID) == set(BAD_TYPE) == set(MISSING) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(VALID))
def test_one_command_parser_gives_the_full_parsers_namespace(command):
    argv = [command, *VALID[command]]
    fast = cli.build_command_parser(command).parse_args(argv[1:])
    assert vars(fast) == vars(cli.build_parser().parse_args(argv))
    assert vars(fast) == vars(cli._parse(argv))


def _outcome(parse, argv):
    """(exit code or None, stdout, stderr, namespace) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def _inputs(command):
    valid = [command, *VALID[command]]
    return [
        [command, "-h"],
        [command, "--help"],
        [*valid, "--help"],
        [*valid, "--he"],
        [*valid, "--no-such-option"],
        [command, *BAD_TYPE[command]],
        [command, *MISSING[command]],
        [*valid, "extra"],
    ]


@pytest.mark.parametrize("command", sorted(VALID))
def test_help_and_errors_are_the_full_parsers(command):
    """Help and every parse error print the full parser's text and exit
    code: the one-command parser prints nothing of its own."""
    for argv in _inputs(command):
        got = _outcome(cli._parse, argv)
        want = _outcome(lambda a: cli.build_parser().parse_args(a), argv)
        assert got == want, argv
        code, out, err, namespace = got
        assert code in (0, 2) and namespace is None, argv
        assert (err if code else out).startswith("usage: nlie"), argv


def test_cold_valid_call_builds_no_full_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    cli._parser.cache_clear()
    try:
        free_algebra.clear_caches()
        assert cli.main(["graded", "-n", "2", "-d", "2", "-w", "3"]) == 0
        with pytest.raises(AssertionError, match="full parser"):
            cli.main(["graded", "-n", "2"])
    finally:
        cli._parser.cache_clear()
    assert capsys.readouterr().out == (
        '{"n": 2, "d": 2, "w": 3, "canonical_trees": 2, "relation_rank": 0, "dim": 2}\n'
    )


@pytest.mark.parametrize(
    "argv", [["graded", "-n", "2", "-d", "2", "-w", "3"], ["graded", "-n", "2", "-d", "2", "-w", "0"]]
)
def test_python_dash_m_nlie_is_the_cli(argv):
    runs = [
        subprocess.run([sys.executable, "-m", module, *argv], capture_output=True)
        for module in ("nlie", "nlie.cli")
    ]
    package, module = ((r.returncode, r.stdout, r.stderr) for r in runs)
    assert package == module
    assert package[0] == (0 if argv[-1] == "3" else 2)


# -- shifted wraps ---------------------------------------------------------------


def id_lookup_wraps(n, d, w, targets):
    """The wrapped rows of weight w as generated before they were shifted:
    each column of each wrap looked up by its kid tuple."""
    table = _tree_ids(n, d, w)
    lower = graded_component(n, d, w - 1)
    for m in targets:
        for payload in combinations(range(1, d + 1), n - 1):
            below = list(m)
            for g in payload:
                below[g - 1] -= 1
            if min(below) < 0:
                continue
            for relation in lower.block_rows(tuple(below)):
                yield m, id_lookup_wrapped_row(
                    relation, table.starts[w - 1], payload, table.ids, table.starts[w]
                )


@pytest.mark.parametrize("n,d,w", [layer for layer in LAYERS if layer[2] >= 4])
def test_shifted_wraps_equal_id_lookup_wraps(n, d, w):
    targets = every_multidegree(n, d, w)
    table = _tree_ids(n, d, w)
    got = list(_wrapped_relation_rows(n, d, w, table, targets, None))
    assert got == list(id_lookup_wraps(n, d, w, targets))


@pytest.mark.parametrize("n,d,w", [layer for layer in LAYERS if layer[2] >= 3])
def test_trees_with_one_generator_payload_are_one_id_run(n, d, w):
    """The shift lemma: for an increasing generator payload p, the trees
    (p, t) with t of weight w - 1 have the ids of the run starting at
    (p, starts[w-1]), in the order of t."""
    table = _tree_ids(n, d, w)
    below = range(table.starts[w - 1], table.starts[w])
    for payload in combinations(range(1, d + 1), n - 1):
        if below:
            first = table.ids[payload + (below[0],)]
            assert [table.ids[payload + (t,)] for t in below] == [first + i for i in range(len(below))]
        prefixed = [i for i in range(table.starts[w], table.starts[w + 1])
                    if table.kids[i][:-1] == payload]
        assert [table.kids[i][-1] for i in prefixed] == list(below)


# -- owned inserts ---------------------------------------------------------------


@pytest.mark.parametrize("n,d,w", [(2, 4, 6), (3, 4, 5), (3, 5, 4), (2, 2, 9), (4, 5, 4)])
def test_owned_insert_leaves_the_rows_a_copying_insert_leaves(n, d, w):
    width = len(free_algebra.canon_trees(n, d, w))
    owned, copied = {}, {}
    for m, row in _relation_rows(n, d, w, every_multidegree(n, d, w), None):
        kept = dict(row)
        grew = owned.setdefault(m, SpanBuilder(width)).insert(row, owned=True)
        assert copied.setdefault(m, SpanBuilder(width)).insert(dict(kept)) == grew
    assert owned.keys() == copied.keys()
    for m in owned:
        assert owned[m].rows == copied[m].rows


@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-4, 4).filter(bool), max_size=6)))
def test_owned_and_copying_inserts_agree_on_integer_rows(rows):
    owned, copied = SpanBuilder(6), SpanBuilder(6)
    for row in rows:
        assert owned.insert(dict(row), owned=True) == copied.insert(dict(row))
        assert owned.rows == copied.rows


def test_public_insert_leaves_the_callers_row_and_checks_its_range():
    builder = SpanBuilder(3)
    builder.insert({0: 1, 1: 2})
    row = {0: 2, 2: 3}
    builder.insert(row)
    assert row == {0: 2, 2: 3}
    for bad in ({-1: 1}, {0: 1, 3: 1}):
        with pytest.raises(AmbientMismatchError):
            builder.insert(bad)
    assert builder.dim == 2


# -- the algebra key -------------------------------------------------------------


def key_reference(algebra):
    """The canonical key as built on every call before it was kept."""
    items = tuple(
        (args, tuple(sorted(algebra.table[args].items()))) for args in sorted(algebra.table)
    )
    return (algebra.n, algebra.dim, items)


def test_canonical_key_is_built_once_and_unchanged():
    a, b = heisenberg(3, 2), heisenberg(3, 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.canonical_key() is a.canonical_key()
    assert a.canonical_key() == key_reference(a) == key_reference(b)
    assert hash(a) == hash(key_reference(a))
    other = StructureAlgebra(2, 3, table={(0, 1): {2: 1}})
    assert other != a and other.canonical_key() == key_reference(other)


def test_equal_algebras_share_one_analysis(monkeypatch):
    """An equal but distinct algebra hits the analysis cache; another c
    misses it."""
    multiplier.clear_cache()
    presented = []
    original = multiplier.present

    def spy(*args, **kwargs):
        presented.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(multiplier, "present", spy)
    try:
        first = multiplier.multiplier_report(heisenberg(2, 1), 2)
        cold = len(presented)
        again = multiplier.multiplier_report(heisenberg(2, 1), 2)
        hit = len(presented)
        multiplier.multiplier_report(heisenberg(2, 1), 1)
    finally:
        multiplier.clear_cache()
    assert first == again and cold == hit > 0
    assert len(presented) > hit
