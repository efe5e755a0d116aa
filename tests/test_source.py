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
