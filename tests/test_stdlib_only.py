"""caproof is a pure-stdlib tool: every import in its modules is relative or
names a standard-library module."""

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
