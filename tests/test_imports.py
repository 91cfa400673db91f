"""No module of the package or of the tests imports a name it never reads,
and the package reads every private function and constant it defines.

AST scans in place of a linter (none is a dependency): a name bound by
an import counts as read if the module loads it anywhere, or lists it in
`__all__` (a re-export); a private top-level name of the package counts
as read if some module of the package loads it by name or as an
attribute.  Reads from the tests do not count, so no rule lives on only
for its tests.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dpsched").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "import json\nimport os.path as osp\nfrom math import pi, tau\n__all__ = ['tau']\nprint(pi)\n"
    assert unused_imports(source) == ["line 1: json", "line 2: osp"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level functions and constants (a name with one
    leading underscore) defined in the modules of `sources` (module name to
    source) that none of them reads."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module} line {node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{where}: {name}" for name, where in sorted(defined.items()) if name not in read]


def test_package_reads_its_private_names():
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_scan_finds_an_unread_private_name():
    sources = {
        "a.py": "_RATE = 2\n_UNUSED = 3\n__version__ = '1'\n"
                "def _helper():\n    return _RATE\n"
                "def _dead():\n    return _helper()\n",
        "b.py": "from a import _helper\nimport a\nx = _helper() + a._RATE\n",
    }
    assert unread_private_names(sources) == ["a.py line 2: _UNUSED", "a.py line 6: _dead"]
