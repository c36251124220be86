"""No module under src/ or tests/ imports a name it never uses, no
module in src/ binds a private name that src/ never reads, nothing in
src/ declares a ``global`` or states an ``assert``, only the CLI's
``_writing`` opens a file for writing, and importing the CLI stays light.

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


def _private_bindings(tree: ast.Module) -> dict[str, int]:
    """Each private name (``_x``, not a dunder) bound at module level by
    ``def``, ``class`` or assignment -> the line it is bound on."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                        names[sub.id] = node.lineno
    return {name: line for name, line in names.items()
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded bare names, attribute names and the
    names it imports from other modules."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_private_name_in_src_goes_unread():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted((ROOT / "src" / "ddosgate").glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    unread = sorted((str(path.relative_to(ROOT)), line, name) for path, tree in trees.items()
                    for name, line in _private_bindings(tree).items() if name not in read)
    assert unread == [], f"private names bound in src/ but never read (file, line, name): {unread}"


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


def _in_functions(path: Path):
    """(enclosing function or None, node) for each node of the file."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            yield function, child
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if is_function else function)

    return visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)


def _network_imports(path: Path) -> list[tuple[str, str | None, str]]:
    """(file, enclosing function or None, module) of each import of
    ``urllib`` or ``http`` in the file."""
    found = []
    for function, node in _in_functions(path):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        found.extend((path.name, function, module) for module in modules
                     if module.partition(".")[0] in ("urllib", "http"))
    return found


def test_only_fetch_feed_imports_the_http_stack():
    found = [hit for path in FILES if ROOT / "src" in path.parents for hit in _network_imports(path)]
    assert found and {(name, function) for name, function, _ in found} == {NETWORK_PATH}, found


def test_no_global_in_src():
    """No function in src/ rebinds module state: what one call hands to
    another goes through arguments, as ``run_trace`` hands each line to
    the capture."""
    found = [(path.name, function, name) for path in sorted((ROOT / "src" / "ddosgate").glob("*.py"))
             for function, node in _in_functions(path) if isinstance(node, ast.Global) for name in node.names]
    assert found == []


def test_no_assert_in_src():
    """A check in src/ is code that runs: ``python -O`` drops an
    ``assert``, and a failing one names nothing."""
    found = [(path.name, node.lineno) for path in sorted((ROOT / "src" / "ddosgate").glob("*.py"))
             for _, node in _in_functions(path) if isinstance(node, ast.Assert)]
    assert found == []


def _opens_for_writing(node) -> bool:
    """Whether ``node`` is an ``open(...)`` call whose mode may write: one
    that holds w, x, a or +, or one that is no literal."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wxa+"))


def test_only_the_cli_writer_opens_files_for_writing():
    """Every output goes through cli._writing, which swaps a new file in
    whole or leaves the old one; an ``open`` for writing anywhere else
    would truncate its file before the command had done its work."""
    found = [(path.name, function) for path in sorted((ROOT / "src" / "ddosgate").glob("*.py"))
             for function, node in _in_functions(path) if _opens_for_writing(node)]
    assert found == [("cli.py", "_writing")] * 2


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
