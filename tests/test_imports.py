"""Every module under src/obtf and tests uses every name it imports, and
binds every name its __all__ lists.

An ast scan: a name bound by an import counts as used when the module
reads it anywhere or lists it in __all__.  `from __future__ import ...`
binds nothing and is skipped.  Because __all__ counts as a use, a stale
__all__ entry is caught by the second scan, over the module's top-level
bindings.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "obtf").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


def unbound_exports(source: str) -> list[str]:
    """The names in __all__ that no top-level statement binds."""
    bound = set()
    exported = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_all_names_only_bound_names(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nprint(sys)\n") == [
        "line 1: os", "line 3: c"]
    assert unused_imports("from __future__ import annotations\n"
                          "from a import b\n__all__ = ['b']\n") == []


def test_scan_sees_an_unbound_export():
    assert unbound_exports("from a import b\nc = 1\nx, (y, z) = 1, (2, 3)\n"
                           "def f(): pass\nclass K: pass\n"
                           "__all__ = ['b', 'c', 'f', 'K', 'y', 'Gone']\n") == ["Gone"]
    assert unbound_exports("def f():\n    g = 1\n__all__ = ['f', 'g']\n") == ["g"]
