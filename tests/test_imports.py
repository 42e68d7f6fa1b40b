"""Every name a bfcorr or test module imports is used in that module, every
function, class and method it defines is named by the package or the
benchmark (a test does not count), and no module writes a float."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bfcorr"

# Imported on purpose without a use: the benchmark's tracer test looks these
# names up in the importing module (each import says so in a comment).
KEPT = {
    "correspondence": {"vertex_A"},
    "fields": {"apply_mode_A", "apply_mode_B"},
}

# Defined in the package but named by no other module of it and by no
# benchmark file: each is kept for the reason given, a test oracle or the
# ROADMAP item that will call it.
KEPT_FOR = {
    "heis_apply_A": "ROADMAP item 1: sigma_h applies the boson h_{-n} to the type A vacua",
    "heis_apply_B": "ROADMAP item 1: sigma_h applies the boson h_{-n} to the type B vacua",
    "basis": "ROADMAP items 1 and 9: FockVector.basis starts sigma at a basis state",
    "coefficient": "ROADMAP items 1 and 9: FockVector.coefficient reads sigma's coefficients",
    "mode": "ROADMAP items 1 and 9: Field.mode gives the field modes that sigma intertwines",
    "parse_series": "test oracle: the one reader of negative exponents, the inverse of format_series",
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: p.stem)
def test_module_has_no_unused_imports(path):
    unused = set(unused_imports(path.read_text())) - KEPT.get(path.stem, set())
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def test_unused_import_is_flagged():
    source = "from typing import Dict, Iterable\nx: Dict = {}\n__all__ = ['y']\nfrom m import y\n"
    assert unused_imports(source) == ["Iterable"]


def _named(tree: ast.AST) -> set:
    """Identifiers ``tree`` names, as ("name", identifier) where a bare
    variable names it and as ("attr", identifier) where an attribute, an
    import or a string does (``getattr``, ``monkeypatch.setattr`` and the
    tracer name functions by string)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(("name", node.id))
        elif isinstance(node, ast.Attribute):
            names.add(("attr", node.attr))
        elif isinstance(node, ast.alias):
            names.update(("attr", name) for name in (*node.name.split("."), node.asname))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(("attr", node.value))
    return names


def dead_definitions(source: str, named_elsewhere=frozenset()) -> list:
    """Functions, classes and non-dunder methods defined in ``source`` that
    neither ``source`` names nor ``named_elsewhere`` holds.  A method counts
    as named only as an attribute or a string: a local variable of the same
    name does not call it."""
    tree = ast.parse(source)
    named = _named(tree) | named_elsewhere
    methods = {node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    return sorted({node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not (node.name.startswith("__") and node.name.endswith("__"))
                   and ("attr", node.name) not in named
                   and (node in methods or ("name", node.name) not in named)})


def named_in_use(sources: dict) -> set:
    """Identifiers that the package's modules (not the re-exports of its
    ``__init__``) and the benchmark's files name, from {path: source}; a
    name in a test keeps nothing alive."""
    return set().union(*(_named(ast.parse(source)) for path, source in sources.items()
                         if path.parent == SRC and path.name != "__init__.py"
                         or path.parent == ROOT / "perfbench"))


def test_every_definition_is_named_somewhere():
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    named = named_in_use({path: path.read_text() for path in paths})
    dead = {name for path in SRC.glob("*.py") for name in dead_definitions(path.read_text(), named)}
    unkept, stale = dead - set(KEPT_FOR), set(KEPT_FOR) - dead
    assert not unkept, f"defined but named by no module or benchmark: {sorted(unkept)}"
    assert not stale, f"KEPT_FOR names now in use: {sorted(stale)}"


def test_unused_definition_is_flagged():
    source = ("class Box:\n    def __init__(self):\n        pass\n\n"
              "    def unread(self):\n        pass\n\n"
              "def used():\n    return Box()\n\n"
              "def unused():\n    return used()\n")
    assert dead_definitions(source) == ["unread", "unused"]
    # named only in a test or in the re-exports of __init__, it is still dead
    caller = "from bfcorr.box import unused\nunused()\n"
    for path in (ROOT / "tests" / "test_box.py", SRC / "__init__.py"):
        assert dead_definitions(source, named_in_use({path: caller})) == ["unread", "unused"]
    assert dead_definitions(source, named_in_use({SRC / "other.py": caller})) == ["unread"]
    # a method is called only as an attribute or by its string; a local
    # variable of the same name does not keep it
    for use, dead in (("mode = Box()", ["mode"]), ("Box().mode()", []), ("getattr(Box(), 'mode')", [])):
        assert dead_definitions(f"class Box:\n    def mode(self):\n        pass\n\n{use}\n") == dead, use


def float_uses(source: str) -> list:
    """Lines of ``source`` with a float literal or a ``float(...)`` call."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_writes_no_float(path):
    assert not float_uses(path.read_text()), f"{path.name} writes a float: all arithmetic is exact"


def test_float_use_is_flagged():
    source = ("x = 1\ny = 0.5\nz = float(x)\nw = 2e3 + 1j\n"
              "ok = isinstance(x, float) and '0.5' and Fraction(1, 2)\n")
    assert float_uses(source) == [2, 3, 4]
