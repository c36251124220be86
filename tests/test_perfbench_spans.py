"""The benchmark's span and state-size targets exist in the program.

``perfbench/child.py`` wraps the entry points in its ``SPANS`` and
reads the engine attributes in its ``STATE_SIZES``; a target that a
change renames or inlines is only reported as missing in a traced
benchmark run. Here every target must resolve. ``child.py`` is loaded
by file path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ddosgate.pipeline import Engine

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
