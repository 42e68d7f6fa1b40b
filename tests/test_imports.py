"""Every name a bfcorr module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bfcorr"

# Imported on purpose without a use: the benchmark's tracer test looks these
# names up in the importing module (each import says so in a comment).
KEPT = {
    "correspondence": {"vertex_A"},
    "fields": {"apply_mode_A", "apply_mode_B"},
}


def _exported(tree: ast.Module) -> set:
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_has_no_unused_imports(path):
    unused = set(unused_imports(path.read_text())) - KEPT.get(path.stem, set())
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def test_unused_import_is_flagged():
    source = "from typing import Dict, Iterable\nx: Dict = {}\n__all__ = ['y']\nfrom m import y\n"
    assert unused_imports(source) == ["Iterable"]
