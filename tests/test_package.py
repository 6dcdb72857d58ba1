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


def test_only_pauli_reads_the_terms_of_a_sum():
    # Every other module reads a sum's columns(), which a built witness makes
    # without making its strings.
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE_DIR.glob("*.py"))
        if path.name != "pauli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    ]
    assert readers == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private names (_x, not __x__) that the module's top-level
    statements define by assignment, def or class."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: loaded names, attributes (a module's
    private name read as module._x) and names imported from a module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_every_private_module_name_is_read():
    # A private constant or helper that no source module reads any more, say
    # a knob left behind when the code using it went, is dead code.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE_DIR.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    unread = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]
    assert unread == []
