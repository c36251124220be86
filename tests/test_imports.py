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


# The one function in src/ that may load the HTTP stack.
NETWORK_PATH = ("blacklist.py", "fetch_feed")


def _network_imports(path: Path) -> list[tuple[str, str | None, str]]:
    """(file, enclosing function or None, module) of each import of
    ``urllib`` or ``http`` in the file."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                modules = []
            found.extend((path.name, function, module) for module in modules
                         if module.partition(".")[0] in ("urllib", "http"))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def test_only_fetch_feed_imports_the_http_stack():
    found = [hit for path in FILES if ROOT / "src" in path.parents for hit in _network_imports(path)]
    assert found and {(name, function) for name, function, _ in found} == {NETWORK_PATH}, found


def test_run_and_gen_with_a_feed_load_no_http_stack(tmp_path):
    """A ``gen`` and a ``run`` that both read a feed file leave the HTTP
    stack unloaded in a fresh interpreter."""
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n")
    script = """if True:
        import json, sys
        from ddosgate.cli import main
        feed, out = sys.argv[1:]
        gen = main(["gen", "--scenario", "blacklist_mix", "--param", f"feed={feed}",
                    "--duration", "5", "--out", f"{out}/trace.jsonl"])
        run = main(["run", "--trace", f"{out}/trace.jsonl", "--out", f"{out}/v.jsonl",
                    "--stats", f"{out}/stats.json", "--set", f"blacklist.path={feed}",
                    "--set", f"sandbox.log_path={out}/s.jsonl"])
        print(json.dumps([gen, run, sorted({"urllib.request", "http.client"} & set(sys.modules))]))
    """
    package_parent = str(Path(ddosgate.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script, str(feed), str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_parent}, timeout=60, check=True)
    assert json.loads(proc.stdout) == [0, 0, []]
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["verdicts"]["reject_blacklisted"] > 0
