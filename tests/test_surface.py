"""The library's public surface: every public name has a use.

A public top-level function or class in src/tunnelclock must be referenced
somewhere in src/ (a call, an attribute, an annotation or a re-export),
named in the README, or timed by perfbench/tracer.py.  A reference that
only the tests use belongs in tests/oracles.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tunnelclock"


def _tracer_targets() -> set[str]:
    """module.name of each TARGETS entry: its class, else its function."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            entries = [[ast.literal_eval(e) for e in entry.elts[:3]]
                       for entry in node.value.elts]
            return {f"{module}.{owner or attr}"
                    for module, owner, attr in entries}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def unused_public_names() -> list[str]:
    definitions, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        definitions += [
            (path.stem, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    readme = (ROOT / "README.md").read_text()
    targets = _tracer_targets()
    return [f"{module}.{name}" for module, name in definitions
            if name not in referenced
            and not re.search(rf"\b{name}\b", readme)
            and f"{module}.{name}" not in targets]


def test_every_public_name_is_used_documented_or_traced():
    assert unused_public_names() == []
