"""The tests import the ``ddosgate`` that ``PYTHONPATH`` names, not
this checkout's ``src`` behind its back."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pythonpath_decides_which_ddosgate_the_tests_import(tmp_path):
    # A stub package without submodules: collection can only succeed if
    # something puts this checkout's src ahead of PYTHONPATH.
    (tmp_path / "ddosgate").mkdir()
    (tmp_path / "ddosgate" / "__init__.py").write_text("")
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", "tests/test_ratelimit.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0, proc.stdout
    assert "No module named 'ddosgate.ratelimit'" in proc.stdout
