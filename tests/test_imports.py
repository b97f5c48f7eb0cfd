"""Every module-level import in the package is used.

A stdlib `ast` scan: a name bound by a top-level `import` or `from ... import`
must be read somewhere in the module, or be listed in its `__all__`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lcgspec"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_unused_and_honours_all():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .errors import A, B as C, D\n"
        "__all__ = ['D']\n"
        "def f():\n"
        "    return json.dumps(A)\n"
    )
    assert unused_imports(source) == ["C (line 3)", "os (line 2)"]
