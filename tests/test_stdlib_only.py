"""The runtime stays stdlib-only: every absolute import in the package
names a standard-library module or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "nlie").glob("*.py"))


def test_package_sources_are_found():
    assert {"__init__.py", "linalg.py", "algebra.py", "cli.py"} <= {p.name for p in SRC}


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_absolute_imports_are_stdlib_or_nlie(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = {
        name for name in names
        if name.split(".")[0] != "nlie" and name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside, f"{path.name} imports non-stdlib modules: {sorted(outside)}"
