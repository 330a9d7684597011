"""Every function the benchmark's trace wraps still exists in vaikit.

``perfbench/spans.py`` names its targets as strings, so a rename in the
package would otherwise only surface in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_trace_targets_resolve():
    targets = _targets()
    assert "exact" in targets and "rref" in targets["exact"]
    missing = []
    for layer, names in targets.items():
        module = importlib.import_module(f"vaikit.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{name}")
    assert missing == []
