"""Golden digests: the four benchmark workloads at the reference seed give
byte-identical verdicts, sandbox captures and stats.

The digests live in one place, ``perfbench/reference.json``; this test
reads them and runs each workload through ``ddosgate.cli.main`` in this
process. ``perfbench`` is a directory of scripts, not a package, so
``workloads.py`` is loaded by file path. A change that alters the output
format on purpose regenerates ``reference.json``
(``python3 perfbench/run.py --record-reference``) in the same change.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from ddosgate import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_outputs_match_reference(workload, tmp_path):
    ref = REFERENCE["workloads"][workload]
    inputs = workloads.prepare(workload, REFERENCE["seed"], str(tmp_path / "inputs"))
    assert (_sha256(inputs.trace), inputs.events) == (ref["trace"], ref["events"])

    out = {name: tmp_path / name for name in ("verdicts", "sandbox", "stats")}
    argv = ["run", "--trace", inputs.trace, "--out", str(out["verdicts"]),
            "--stats", str(out["stats"]), "--set", f"sandbox.log_path={out['sandbox']}"]
    for item in inputs.overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    assert {name: _sha256(path) for name, path in out.items()} == {
        name: ref[name] for name in out}
