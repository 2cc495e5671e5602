"""Every name that a module of the package or of scripts/ imports is used there or exported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "tritangle").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            try:
                exported = set(ast.literal_eval(node.value))
            except ValueError:
                pass  # a computed list is not read, and exempts no import
    return sorted(imported - used - exported)


def test_scan_finds_an_unused_name():
    source = "from typing import Callable, Sequence\nimport numpy as np\nf: Callable = np.abs\n"
    assert unused_imports(source) == ["Sequence"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from .a import b\n__all__ = sorted(['b'])\n") == ["b"]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
