"""caproof is a pure-stdlib tool: every import in its modules is relative or
names a standard-library module, none is left unused, and a command loads no
zip-import machinery."""

import ast
import os
import subprocess
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


def test_start_up_imports_no_zip_machinery(tmp_path):
    """The catalog is read as the files it is installed as: a whole command,
    run without site (whose .pth files may preload them), loads neither
    importlib.resources nor zipfile."""
    child = ("import sys; from caproof import cli; "
             "cli.run(['agent-profile', '--model', 'dense-70b', '--hardware', 'b200-node8', "
             "'--out', sys.argv[1]]); "
             "print(sorted({'importlib.resources', 'zipfile'} & set(sys.modules)))")
    src = str(Path(caproof.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-S", "-c", child, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"
    assert (tmp_path / "agent-profile.csv").exists()
