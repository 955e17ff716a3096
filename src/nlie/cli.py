"""Command-line interface.

Every subcommand prints a single JSON document (or TSV with ``--tsv``) on
stdout; identical invocations produce byte-identical output.  Exit status:
0 on success, 2 on input errors (bad flags, malformed algebra files,
resource-guard hits), 3 when a bounds run finds a violated oracle-variant
check.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .algebra import (
    AlgebraFormatError,
    StructureAlgebra,
    abelian,
    direct_sum,
    from_json_dict,
    heisenberg,
    lower_central_series,
    nilpotency_class,
    to_json_dict,
    upper_central_series,
)
from .bounds import run_catalog, violations
from .counting import GridLimitError, compare_table, convention_count
from .free_algebra import (
    DEFAULT_MAX_TREES,
    ResourceLimitError,
    free_nilpotent,
    graded_component,
    graded_dimension,
)
from .linalg import frac_str
from .multiplier import multiplier_report, z_star
from .trees import tree_to_str


class InputError(ValueError):
    """User-facing input problem; maps to exit status 2."""


# -- algebra argument parsing ---------------------------------------------------


def _split_top_level(text: str) -> list[str]:
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise InputError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return [p.strip() for p in parts]


def _parse_constructor(text: str, max_trees: int | None) -> StructureAlgebra | None:
    match = re.fullmatch(r"\s*([A-Za-z_][\w-]*)\((.*)\)\s*", text)
    if not match:
        return None
    name = match.group(1).lower().replace("-", "_")
    try:
        raw_args = _split_top_level(match.group(2)) if match.group(2).strip() else []
    except InputError:
        # the regex spans the first '(' to the last ')', so balanced text
        # such as "heisenberg(2,1)+abelian(2)" lands here too; truly
        # unbalanced text raises again here, on the whole argument
        _split_top_level(text)
        raise InputError(
            f"{text.strip()!r} is not one constructor call; "
            "combine algebras with direct_sum(A, B)"
        ) from None

    def ints(expected: int) -> list[int]:
        if len(raw_args) != expected or not all(re.fullmatch(r"-?\d+", a) for a in raw_args):
            raise InputError(f"{name} expects {expected} integer arguments, got {raw_args}")
        return [int(a) for a in raw_args]

    if name in ("heisenberg", "h"):
        n, m = ints(2)
        return heisenberg(n, m)
    if name in ("abelian", "a"):
        if len(raw_args) == 1:
            return abelian(ints(1)[0], 2)
        d, n = ints(2)
        return abelian(d, n)
    if name in ("free_nilpotent", "f"):
        n, d, k = ints(3)
        return free_nilpotent(n, d, k, max_trees).algebra
    if name in ("direct_sum", "sum"):
        if len(raw_args) != 2:
            raise InputError(f"{name} expects two algebra arguments")
        left = _parse_constructor(raw_args[0], max_trees)
        right = _parse_constructor(raw_args[1], max_trees)
        if left is None or right is None:
            raise InputError(f"{name} arguments must be constructor expressions")
        return direct_sum(left, right)
    return None


def load_algebra_arg(
    text: str, max_trees: int | None, check_identity: bool = True
) -> tuple[str, StructureAlgebra]:
    """Resolve an algebra argument: a constructor expression like
    ``heisenberg(2,1)``, ``abelian(3)``, ``free_nilpotent(2,2,3)`` or
    ``direct_sum(...)``, or else a path to an algebra JSON file.

    A file is also checked against the Filippov identity unless
    ``check_identity`` is false; constructors satisfy it by construction."""
    constructed = _parse_constructor(text, max_trees)
    if constructed is not None:
        return text.strip(), constructed
    if not os.path.exists(text):
        raise InputError(
            f"{text!r} is neither a recognized constructor expression nor an existing file"
        )
    try:
        with open(text, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{text}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deep for the decoder
        raise InputError(f"{text}: {exc}") from exc
    try:
        algebra = from_json_dict(obj)
    except AlgebraFormatError as exc:
        raise InputError(f"{text}: {exc}") from exc
    if check_identity:
        report = algebra.validate()
        if not report.valid:
            a, b = ([i + 1 for i in args] for args in report.violation)
            raise InputError(
                f"{text}: not an n-Lie algebra: the Filippov identity fails at "
                f"bracket_args {a}, outer_args {b}"
            )
    return os.path.basename(text), algebra


# -- output -----------------------------------------------------------------------


def _tsv_escape(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ";".join(_tsv_escape(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_tsv_escape(v)}" for k, v in value.items())
    return str(value)


def _emit(payload, tsv: bool) -> None:
    if not tsv:
        sys.stdout.write(json.dumps(payload) + "\n")
        return
    if isinstance(payload, list):
        if not payload:
            return
        keys = list(payload[0].keys())
        sys.stdout.write("\t".join(keys) + "\n")
        for row in payload:
            sys.stdout.write("\t".join(_tsv_escape(row.get(k)) for k in keys) + "\n")
    else:
        for key, value in payload.items():
            sys.stdout.write(f"{key}\t{_tsv_escape(value)}\n")


# -- subcommands --------------------------------------------------------------------


def cmd_count(args) -> int:
    if args.d < 1:
        raise InputError("need d >= 1")
    payload = {}
    if args.mode in ("formula", "both"):
        payload["formula"] = convention_count(args.d, args.n, args.w)
    if args.mode in ("oracle", "both"):
        payload["oracle"] = graded_dimension(args.n, args.d, args.w, args.max_trees)
    if args.mode == "both":
        payload["agree"] = payload["formula"] == payload["oracle"]
    _emit(payload, args.tsv)
    return 0


def cmd_table(args) -> int:
    if args.d_max < 1 or args.w_max < 1:
        raise InputError("--d-max and --w-max must be at least 1")
    rows = compare_table(
        args.n,
        range(1, args.d_max + 1),
        range(1, args.w_max + 1),
        max_trees=args.max_trees,
    )
    _emit([row.to_dict() for row in rows], args.tsv)
    return 0


def cmd_graded(args) -> int:
    component = graded_component(args.n, args.d, args.w, args.max_trees)
    payload = {
        "n": args.n,
        "d": args.d,
        "w": args.w,
        "canonical_trees": component.width,
        "relation_rank": component.rank,
        "dim": component.dim,
    }
    if args.basis:
        payload["basis"] = [tree_to_str(t) for t in component.basis_trees]
    _emit(payload, args.tsv)
    return 0


def _write_algebra(path: str, algebra) -> None:
    """Write the algebra JSON to ``path``, which must be writable."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(to_json_dict(algebra), fh)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_free_nilpotent(args) -> int:
    built = free_nilpotent(args.n, args.d, args.k, args.max_trees)
    payload = {
        "n": args.n,
        "d": args.d,
        "k": args.k,
        "dim": built.dim,
        "layer_dims": list(built.layer_dims()),
    }
    if args.emit:
        _write_algebra(args.emit, built.algebra)
        payload["emitted"] = args.emit
    _emit(payload, args.tsv)
    return 0


def cmd_series(args) -> int:
    label, algebra = load_algebra_arg(args.algebra, args.max_trees)
    if args.upper:
        chain = upper_central_series(algebra)
        payload = {
            "algebra": label,
            "kind": "upper",
            "dims": [s.dim for s in chain],
            "reaches_algebra": chain[-1].dim == algebra.dim,
        }
    else:
        chain = lower_central_series(algebra)
        cls = nilpotency_class(algebra)
        payload = {
            "algebra": label,
            "kind": "lower",
            "dims": [s.dim for s in chain],
            "nilpotent": cls is not None,
            "class": cls,
        }
    _emit(payload, args.tsv)
    return 0


def cmd_multiplier(args) -> int:
    label, algebra = load_algebra_arg(args.algebra, args.max_trees)
    report = multiplier_report(algebra, args.c, max_trees=args.max_trees)
    payload = {"algebra": label}
    payload.update(report.to_dict())
    _emit(payload, args.tsv)
    return 0


def cmd_zcstar(args) -> int:
    label, algebra = load_algebra_arg(args.algebra, args.max_trees)
    star, capable = z_star(algebra, args.c)
    payload = {
        "algebra": label,
        "c": args.c,
        "zcstar_dim": star.dim,
        "capable_c": capable,
        "basis": [
            [frac_str(row.get(i, 0)) for i in range(algebra.dim)] for row in star.basis
        ],
    }
    _emit(payload, args.tsv)
    return 0


def cmd_heisenberg(args) -> int:
    algebra = heisenberg(args.n, args.m)
    payload = {"n": args.n, "m": args.m, "dim": algebra.dim}
    if args.emit:
        _write_algebra(args.emit, algebra)
        payload["emitted"] = args.emit
    _emit(payload, args.tsv)
    return 0


def cmd_bounds(args) -> int:
    algebras = None
    if args.catalog:
        algebras = []
        try:
            names = sorted(os.listdir(args.catalog))
        except OSError as exc:
            raise InputError(f"{args.catalog}: {exc}") from exc
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(args.catalog, name)
            label, algebra = load_algebra_arg(path, args.max_trees)
            algebras.append((label, algebra))
        if not algebras:
            raise InputError(f"{args.catalog}: no .json algebra files found")
    checks = run_catalog(args.c_max, algebras, args.max_trees)
    _emit([ck.to_dict() for ck in checks], args.tsv)
    return 3 if violations(checks) else 0


def cmd_validate(args) -> int:
    label, algebra = load_algebra_arg(args.algebra, args.max_trees, check_identity=False)
    report = algebra.validate()
    payload = {
        "algebra": label,
        "valid": report.valid,
        "checked": report.checked,
        "violation": None,
    }
    if not report.valid:
        a, b = report.violation
        payload["violation"] = {
            "bracket_args": [i + 1 for i in a],
            "outer_args": [i + 1 for i in b],
            "defect": {str(i + 1): frac_str(c) for i, c in sorted(report.defect.items())},
        }
    _emit(payload, args.tsv)
    return 0


# -- parser -----------------------------------------------------------------------

_INT = {"type": int, "required": True}
_ALGEBRA = ("algebra", {"help": "algebra file or constructor expression"})

# Every subcommand once: name -> (help, description, arguments).  An argument
# is (flag, options); a list of them is a mutually exclusive group.  The
# subcommand runs cmd_<name>, looked up when its parser is built.
_COMMANDS: dict[str, tuple[str, str, list]] = {
    "count": (
        "basic-commutator count: closed formula vs rank oracle",
        "Evaluate the number of basic commutators of weight w on d "
        "generators: the closed counting formula and/or the rank oracle "
        "(the true graded dimension of the free n-Lie algebra).",
        [
            ("-n", dict(_INT, help="bracket arity")),
            ("-d", dict(_INT, help="generator count")),
            ("-w", dict(_INT, help="weight")),
            [(f"--{mode}", {"dest": "mode", "action": "store_const", "const": mode,
                            "default": "both"}) for mode in ("formula", "oracle", "both")],
        ],
    ),
    "table": (
        "formula-vs-oracle comparison table",
        "Tabulate the basic-commutator counting formula against the "
        "rank oracle over a (d, w) grid; disagreements are reported, not asserted.",
        [("-n", _INT), ("--d-max", _INT), ("--w-max", _INT)],
    ),
    "graded": (
        "one weight layer of the free n-Lie algebra",
        "Compute a graded component of the free n-Lie algebra: "
        "canonical trees, relation rank, and the layer dimension.",
        [
            ("-n", _INT), ("-d", _INT), ("-w", _INT),
            ("--basis", {"action": "store_true", "help": "include the basis trees"}),
        ],
    ),
    "free-nilpotent": (
        "free nilpotent quotient with structure constants",
        "Build the free nilpotent n-Lie algebra on d generators of "
        "class at most k; optionally emit its structure constants as JSON.",
        [
            ("-n", _INT), ("-d", _INT), ("-k", _INT),
            ("--emit", {"metavar": "FILE", "help": "write the algebra JSON here"}),
        ],
    ),
    "series": (
        "lower or upper central series",
        "Compute the lower central series (default) or upper central "
        "series of an algebra given by structure constants.",
        [
            _ALGEBRA,
            [
                ("--lower", {"action": "store_true", "help": "lower central series (default)"}),
                ("--upper", {"action": "store_true", "help": "upper central series"}),
            ],
        ],
    ),
    "multiplier": (
        "c-nilpotent multiplier of a nilpotent algebra",
        "Compute the c-nilpotent multiplier dimension (and the full "
        "report of presentation dimensions) for a nilpotent n-Lie algebra.",
        [_ALGEBRA, ("-c", dict(_INT, help="nilpotency degree of the multiplier"))],
    ),
    "zcstar": (
        "c-th star centre and c-capability",
        "Compute the image of the c-th centre of the free c-central "
        "extension (the c-th star centre); the algebra is c-capable iff it is zero.",
        [_ALGEBRA, ("-c", _INT)],
    ),
    "heisenberg": (
        "Heisenberg n-Lie algebra constructor",
        "Construct the Heisenberg n-Lie algebra H(n, m) of dimension "
        "m*n + 1 and optionally emit its structure constants.",
        [("-n", _INT), ("-m", _INT), ("--emit", {"metavar": "FILE"})],
    ),
    "bounds": (
        "run the multiplier bound-check catalog",
        "Run every dimension-bound checker (quotient, central-tensor, "
        "generator, class, hypercenter, dim-cap, maximal-class) over the built-in "
        "catalog or a directory of algebra files.  Exit status 3 if any "
        "oracle-variant check fails.",
        [
            ("--c-max", {"type": int, "default": 2}),
            ("--catalog", {"metavar": "DIR", "help": "directory of algebra JSON files"}),
        ],
    ),
    "validate": (
        "check the Filippov identity on structure constants",
        "Check every instance of the generalized Jacobi (Filippov) "
        "identity on basis tuples; reports the first violation if any.",
        [_ALGEBRA],
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """Give ``parser`` the options every subcommand shares, then the
    arguments and the function of the subcommand ``name``."""
    parser.add_argument("--tsv", action="store_true", help="emit TSV instead of JSON")
    parser.add_argument(
        "--max-trees",
        type=int,
        default=DEFAULT_MAX_TREES,
        help="resource guard on canonical-tree enumeration (default 200000)",
    )
    for argument in _COMMANDS[name][2]:
        if isinstance(argument, list):
            group = parser.add_mutually_exclusive_group()
            for flag, options in argument:
                group.add_argument(flag, **options)
        else:
            parser.add_argument(argument[0], **argument[1])
    parser.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlie",
        description="Exact-arithmetic workbench for n-Lie (Filippov) algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, description, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary, description=description), name)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built on the first call in a
    process that needs it and reused by every later :func:`main`; parsing
    never changes it."""
    return build_parser()


def build_command_parser(name: str) -> argparse.ArgumentParser:
    """A parser of the subcommand ``name`` alone, configured as the full
    parser configures its subparser (prog, description, help option,
    arguments and defaults) plus its ``command``: a valid input parses to
    the same namespace, and help and errors print the same text."""
    parser = argparse.ArgumentParser(prog=f"nlie {name}", description=_COMMANDS[name][1])
    _add_arguments(parser, name)
    parser.set_defaults(command=name)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of :func:`build_command_parser`, built once per process."""
    return build_command_parser(name)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of ``argv``, read by the parser of its subcommand alone
    when ``argv`` starts with one; that parser prints help and errors as
    the full parser's subparser does.  Arguments it leaves over, and an
    ``argv`` that starts with no subcommand, go to the full parser, which
    prints the help or the error and exits."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.max_trees < 1:
            raise InputError("--max-trees must be at least 1")
        return args.func(args)
    except (ValueError, ResourceLimitError, GridLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a failed internal self-check (the free presentation, the cover
        # analysis): the answer it guards is not printed
        print(f"error: internal self-check failed: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
