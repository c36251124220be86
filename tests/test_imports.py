"""No module under src/ or tests/ imports a name it never uses, and
importing the CLI stays light.

A name counts as used when the module reads it anywhere (a bare name,
or the root of an attribute chain) or lists it in ``__all__``.
``from __future__`` imports are directives, not names, and are skipped.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddosgate

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module binds by import -> the line it is bound on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_every_file_is_scanned():
    names = {path.name for path in FILES}
    assert {"analyzer.py", "pipeline.py", "test_imports.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert unused == [], f"{path.relative_to(ROOT)}: unused imports (line, name): {unused}"


# Modules that ``import ddosgate.cli`` must not load: ``dataclasses`` (which
# loads ``inspect``) and ``socket`` cost most of the CLI's start-up time.
HEAVY_MODULES = ("dataclasses", "inspect", "socket")


def test_cli_import_loads_no_heavy_module():
    """A fresh interpreter loads none of HEAVY_MODULES for ``import
    ddosgate.cli``; modules that loaded before it, say from a ``.pth``
    file at start-up, do not count."""
    package_parent = str(Path(ddosgate.__file__).resolve().parent.parent)
    script = ("import json, sys; before = set(sys.modules); import ddosgate.cli; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_parent}, timeout=60, check=True)
    added = set(json.loads(proc.stdout))
    assert "ddosgate.cli" in added
    assert sorted(added.intersection(HEAVY_MODULES)) == []
