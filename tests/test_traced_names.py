"""Every function a benchmark workload must call under the tracer is
still a public function of its ``tlc`` module.

``perfbench/workloads.py`` lists, per workload, the ``layer.name`` spans
a traced run must record; the tracer wraps only public functions (and
``FeatureMap.__post_init__``, recorded as ``tensor.FeatureMap``). A name
that is deleted, renamed or made private would make a traced run fail
its check, so this test catches it first. The file is loaded without
writing a bytecode cache beside it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _traced(name: str) -> bool:
    layer, attr = name.split(".", 1)
    mod = importlib.import_module(f"tlc.{layer}")
    fn = getattr(mod, attr, None)
    if name == "tensor.FeatureMap":
        return inspect.isfunction(getattr(fn, "__post_init__", None))
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__)


def test_every_expected_span_is_a_public_function_of_its_module(workloads):
    expected = set().union(*(spec.expect for spec in workloads.WORKLOADS.values()))
    assert "tensor.FeatureMap" in expected
    assert [name for name in sorted(expected) if not _traced(name)] == []
