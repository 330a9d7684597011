"""The package imports exactly the third-party modules it declares, and
uses every name it imports."""

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


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation names its classes in a string
    annotations = [getattr(node, field, None) for node in ast.walk(tree)
                   for field in ("annotation", "returns")]
    used.update(name for a in annotations if a is not None for node in ast.walk(a)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                for name in re.findall(r"[A-Za-z_]\w*", node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    unused = [entry for path in sorted(PACKAGE.rglob("*.py"))
              for entry in _unused_imports(path)]
    assert unused == []


def _definitions(tree: ast.Module):
    """(node, is_method) for the top-level defs and classes, and for the
    non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from ((m, True) for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(paths, strings=()) -> dict:
    """name -> [(path, line, is_attribute)] for each loaded Name, Attribute
    and import alias in `paths`, and each part of a dotted-name string in
    `strings`' files (how perfbench's TARGETS keep names alive), which
    counts as an attribute."""
    found: dict = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named = [(node.id, False)]
            elif isinstance(node, ast.Attribute):
                named = [(node.attr, True)]
            elif isinstance(node, ast.alias):
                named = [(node.name, False)]
            elif (path in strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and _DOTTED.fullmatch(node.value)):
                named = [(part, True) for part in node.value.split(".")]
            else:
                continue
            for name, is_attribute in named:
                found.setdefault(name, []).append((path, node.lineno, is_attribute))
    return found


def _named_elsewhere(node, path, names, is_method=False) -> bool:
    """Whether `names` (from `_names`) holds node's name outside node's own
    body; a method is named only as an attribute."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return any((is_attribute or not is_method)
               and (other != path or not first <= line <= node.end_lineno)
               for other, line, is_attribute in names.get(node.name, ()))


def test_every_top_level_definition_is_used():
    """Each top-level def or class of the package, and each non-dunder
    method of a top-level class, is named somewhere in src/ or perfbench/
    outside its own body: by a loaded name, an attribute, an import or,
    in perfbench/, a dotted-name string.  A method counts only as an
    attribute or such a string.  Docstrings, comments and local variables
    do not count, nor do tests: what only tests need lives in tests/."""
    root = PACKAGE.parent.parent
    perfbench = sorted((root / "perfbench").rglob("*.py"))
    names = _names(sorted((root / "src").rglob("*.py")) + perfbench, set(perfbench))
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in sorted(PACKAGE.rglob("*.py"))
              for node, is_method in _definitions(ast.parse(path.read_text(), str(path)))
              if not _named_elsewhere(node, path, names, is_method)]
    assert unused == []


def test_every_test_helper_is_used():
    """Each module-level def or class in tests/ other than a test (test_*
    functions, Test* classes) is named somewhere in tests/ outside its own
    body, by the rule above, so no helper outlives the tests that needed it."""
    paths = sorted(Path(__file__).resolve().parent.rglob("*.py"))
    names = _names(paths)
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in paths for node in ast.parse(path.read_text(), str(path)).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith(("test_", "Test"))
              and not _named_elsewhere(node, path, names)]
    assert unused == []


def test_only_volume_imports_numpy():
    """numpy is the estimator's dependency; every other module stays exact,
    so `check` and `witness` never load it."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else [])
            found += [path.name for name in names if name.split(".")[0] == "numpy"]
    assert set(found) == {"volume.py"}


def test_package_reads_no_environment_variable():
    """Nothing under src/vaikit reads or sets an environment variable:
    every choice the program makes is an argument or worked out."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([node.attr] if isinstance(node, ast.Attribute) else
                     [node.id] if isinstance(node, ast.Name) else
                     [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("environ", "environb", "getenv", "getenvb", "putenv", "unsetenv")]
    assert found == []
