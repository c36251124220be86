"""The benchmark's span and state-size targets exist in the program, and
the pipeline calls every span.

``perfbench/child.py`` wraps the entry points in its ``SPANS`` and
reads the engine attributes in its ``STATE_SIZES``; a target that a
change renames or inlines is only reported as missing in a traced
benchmark run, and one the pipeline stops calling reads 0 there. Here
every target must resolve, and every span but ``events.serialize_event``
must be called on the benchmark workloads' traces, each per-event span
once per event. That one is never entered there, since a capture takes
the line its event was read from; the set of spans never called is
pinned, so another span going dark fails, and so does this one being
entered again.
``child.py`` is loaded by file path and only read.
"""

import importlib
import importlib.util
import itertools
from pathlib import Path

import pytest

from ddosgate import cli
from ddosgate.pipeline import Engine
from test_golden import REFERENCE, workloads

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _load_child()


@pytest.mark.parametrize("span, module, path", child.SPANS, ids=[span for span, _, _ in child.SPANS])
def test_span_target_resolves(span, module, path):
    owner, name = child._resolve(importlib.import_module(module), path)
    assert callable(getattr(owner, name))


@pytest.mark.parametrize("name, path", child.STATE_SIZES, ids=[name for name, _ in child.STATE_SIZES])
def test_state_size_target_resolves(name, path):
    owner, attr = child._resolve(Engine(), path)
    assert len(getattr(owner, attr)) == 0


PREFIX_EVENTS = 1000  # of each workload's trace


def test_every_span_is_called_on_the_benchmark_workloads(tmp_path, bench_inputs_root, monkeypatch):
    calls = {span: 0 for span, _, _ in child.SPANS}

    def counted(span, fn):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    for span, module, path in child.SPANS:
        owner, name = child._resolve(importlib.import_module(module), path)
        monkeypatch.setattr(owner, name, counted(span, getattr(owner, name)))
    for workload in workloads.WORKLOADS:
        inputs = workloads.prepare(workload, REFERENCE["seed"], bench_inputs_root)
        trace = tmp_path / f"{workload}.jsonl"
        with open(inputs.trace, encoding="utf-8") as fh:
            trace.write_text("".join(itertools.islice(fh, PREFIX_EVENTS)), encoding="utf-8")
        argv = ["run", "--trace", str(trace), "--out", str(tmp_path / "verdicts"),
                "--set", f"sandbox.log_path={tmp_path / 'sandbox'}"]
        for item in inputs.overrides:
            argv += ["--set", item]
        assert cli.main(argv) == 0
    assert {span for span, n in calls.items() if not n} == {"events.serialize_event"}
    # every line of these prefixes is an event that reaches L1: no span
    # that each event passes through may be bypassed for some of them
    per_event = ("events.parse", "pipeline.decide", "events.serialize_verdict", "ratelimit.acquire")
    lines = len(workloads.WORKLOADS) * PREFIX_EVENTS
    assert {span: calls[span] for span in per_event} == dict.fromkeys(per_event, lines)
