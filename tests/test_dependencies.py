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
    """Top-level defs and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _named_elsewhere(node, path, lines, texts) -> bool:
    """Whether node's name appears in `texts` (path -> text) outside node's
    own definition and outside any other `def` of the same name (a sibling
    class's method of that name is no use of it); `lines` are path's lines."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    outside = lines[:first - 1] + lines[node.end_lineno:]
    word = re.compile(rf"(?<!def )\b{node.name}\b")
    return any(word.search(text) for text in (
        "\n".join(outside), *(t for other, t in texts.items() if other != path)))


def test_every_top_level_definition_is_used():
    """Each top-level def or class of the package, and each non-dunder
    method of a top-level class, is named somewhere in src/ or perfbench/
    outside its own definition.  Tests do not count as callers: what only
    tests need lives in tests/."""
    root = PACKAGE.parent.parent
    lines = {path: path.read_text().splitlines() for folder in ("src", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))}
    texts = {path: "\n".join(text) for path, text in lines.items()}
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in sorted(PACKAGE.rglob("*.py"))
              for node in _definitions(ast.parse(texts[path], str(path)))
              if not _named_elsewhere(node, path, lines[path], texts)]
    assert unused == []


def test_every_test_helper_is_used():
    """Each module-level def or class in tests/ other than a test (test_*
    functions, Test* classes) is named somewhere in tests/ outside its own
    definition, so no helper outlives the tests that needed it."""
    tests = Path(__file__).resolve().parent
    lines = {path: path.read_text().splitlines() for path in sorted(tests.rglob("*.py"))}
    texts = {path: "\n".join(text) for path, text in lines.items()}
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, text in texts.items() for node in ast.parse(text, str(path)).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith(("test_", "Test"))
              and not _named_elsewhere(node, path, lines[path], texts)]
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
