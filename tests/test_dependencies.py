"""The package imports exactly the third-party modules it declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vaikit"
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def _third_party_imports() -> set[str]:
    found = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(name.split(".")[0] for name in names)
    return {name for name in found
            if name not in sys.stdlib_module_names and name != "__future__"}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as handle:
        declared = tomllib.load(handle)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in declared}
    assert _third_party_imports() == names
