"""The package's export list matches what it imports."""

import ast
from pathlib import Path

import treecost


def _imported_public_names():
    tree = ast.parse(Path(treecost.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in treecost.__all__ if not hasattr(treecost, name)]
    assert missing == []
    assert len(set(treecost.__all__)) == len(treecost.__all__)


def test_every_public_import_is_exported():
    assert _imported_public_names() == set(treecost.__all__)
