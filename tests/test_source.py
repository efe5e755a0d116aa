"""Checks on the package source and its documents, standard library only."""

import ast
from pathlib import Path

import pytest

from toi.certificates import _FLAG_LEVELS, REQUIREMENT_LEVELS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toi"
# __init__ imports names only to export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names
                            if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_import_check_finds_them():
    source = ("from __future__ import annotations\nimport os\nimport a.b\n"
              "from c import d, e as f\nprint(d, a.b)\n")
    assert unused_imports(source) == ["f", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_helpers(sources: list) -> list:
    """The module-level private functions and classes of ``sources`` that no
    code outside their own body reads, sorted.  A read is a ``Name``, an
    ``Attribute`` or an import alias, in any of the sources."""
    defined, read = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and stmt.name.startswith("_"):
                own = stmt.name
                defined.add(own)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name is not None and name != own:
                    read.add(name)
    return sorted(defined - read)


def test_unread_private_helper_check_finds_them():
    sources = ["def _a():\n    return _a()\n"
               "def _b():\n    pass\n"
               "class _C:\n    pass\n"
               "def _d():\n    return _b, x._C\n"
               "def _e():\n    pass\n"
               "def f():\n    return _d()\n",
               "from m import _e\nclass _F:\n    y = _F\n"]
    assert unread_private_helpers(sources) == ["_F", "_a"]


def test_every_private_helper_is_read_in_the_package():
    # a private helper that only tests reach is code the package does not need
    assert unread_private_helpers(
        [path.read_text(encoding="utf-8")
         for path in sorted(PACKAGE.glob("*.py"))]) == []


def _words(text: str) -> str:
    """``text`` with table rules, code marks and line breaks dropped."""
    return " ".join(text.replace("|", " ").replace("`", "").split())


@pytest.mark.parametrize("text", [
    ast.get_docstring(ast.parse((PACKAGE / "certificates.py").read_text(
        encoding="utf-8"))),
    (ROOT / "README.md").read_text(encoding="utf-8"),
], ids=["certificates-docstring", "readme"])
def test_documented_levels_match_the_tables(text):
    # each row: level, the claim_level it reports, the flags it adds to the
    # weaker levels
    words = _words(text)
    for level, claim in REQUIREMENT_LEVELS.items():
        added = ", ".join(name for name, needed_by in _FLAG_LEVELS.items()
                          if needed_by == level)
        assert f"{level} {claim} {added}" in words, level
