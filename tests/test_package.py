"""The package's public surface, and the hygiene of its source files."""

import ast
import io
import re
import tokenize
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


def _defined_names(tree: ast.Module) -> set[str]:
    """Every name the module defines anywhere: functions, classes, assigned
    names and attributes, parameters and import aliases."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
        elif isinstance(node, ast.alias):
            defined.add(node.asname or node.name)
    return defined


def _prose(source: str, tree: ast.Module) -> list[tuple[int, str]]:
    """The module's comments and docstrings, each with its line (a
    docstring's is its owner's)."""
    prose = [
        (token.start[0], token.string)
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if doc := ast.get_docstring(node, clean=False):
                prose.append((getattr(node, "lineno", 1), doc))
    return prose


# A private name (_x, not __x__) as a word of its own, module._x among them.
_PRIVATE_WORD = re.compile(r"\b_[A-Za-z0-9]\w*")


def test_comments_name_only_private_names_that_exist():
    # A comment or docstring that names a helper the code no longer has
    # describes a path that is gone.
    sources = {path.name: path.read_text() for path in sorted(SOURCE_DIR.glob("*.py"))}
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = set().union(*map(_defined_names, trees.values()))
    stale = [
        f"{module}:{line}:{word}"
        for module, source in sources.items()
        for line, text in _prose(source, trees[module])
        for word in _PRIVATE_WORD.findall(text)
        if not word.endswith("__") and word not in defined
    ]
    assert stale == []
