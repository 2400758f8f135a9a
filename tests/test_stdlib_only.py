"""caproof is a pure-stdlib tool: every import in its modules is relative or
names a standard-library module, and none is left unused."""

import ast
import sys
from pathlib import Path

import caproof

SOURCES = sorted(Path(caproof.__file__).parent.glob("*.py"))


def test_every_import_is_relative_or_stdlib():
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert SOURCES and not foreign, foreign


def test_every_import_is_used():
    """Each name a module binds by a top-level import is read in it as a name,
    alone or as the base of an attribute. The package's __init__ re-exports
    what it imports, so it is left out."""
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert len(SOURCES) > 1 and not unused, unused
