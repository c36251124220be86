"""Where the tests find ``ddosgate``, and the ``cli_run`` and
``bench_inputs_root`` fixtures.

The tests import the ``ddosgate`` that the environment provides (an
install, or ``PYTHONPATH``), so ``PYTHONPATH=<checkout>/src`` decides
which checkout they test. Only when no ``ddosgate`` can be imported at
all is this checkout's ``src`` appended to ``sys.path``, so a plain
checkout runs as ``python -m pytest`` without installing.

The ``cli_run`` child runs ``python -m ddosgate`` with the interpreter
running the tests, and its ``PYTHONPATH`` starts with the directory
holding the ``ddosgate`` package this process imported. So the child
runs the same code as the tests, from any working directory, installed
or not, also when the tests found the package through the fallback.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import ddosgate
except ModuleNotFoundError as exc:
    if exc.name != "ddosgate":
        raise
    sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))
    import ddosgate


@pytest.fixture
def cli_run():
    """``cli_run(args, **kwargs)`` runs ``python -m ddosgate *args`` and
    returns the ``CompletedProcess`` (text output captured); ``kwargs`` go
    to ``subprocess.run``, e.g. ``input=`` for piping."""
    package_parent = str(Path(ddosgate.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_parent, os.environ.get("PYTHONPATH")) if p)}

    def run(args, **kwargs):
        return subprocess.run([sys.executable, "-m", "ddosgate", *args],
                              capture_output=True, text=True, env=env, **kwargs)

    return run


@pytest.fixture(scope="session")
def bench_inputs_root(tmp_path_factory) -> str:
    """One input cache for ``perfbench/workloads.prepare`` per test run, so
    each benchmark trace is generated once however many tests read it."""
    return str(tmp_path_factory.mktemp("bench-inputs"))
