"""The package's public surface, and the hygiene of its source files."""

import ast
from pathlib import Path

import pytest

import seqgme


def test_every_exported_name_resolves():
    missing = [name for name in seqgme.__all__ if not hasattr(seqgme, name)]
    assert missing == []
    assert len(set(seqgme.__all__)) == len(seqgme.__all__)


SOURCE_DIR = Path(seqgme.__file__).parent


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: loaded names (the roots of attribute
    chains among them) and the entries of __all__, which re-export."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("path", sorted(SOURCE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []
