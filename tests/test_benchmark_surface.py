"""The library surface the benchmark harness (perfbench/) reaches into.

``perfbench/spans.py`` wraps every ``(module, function)`` in its TARGETS by
module attribute, and the workloads read ``len(bundle.label_models)``. A
renamed or deleted function would make a traced benchmark run die with an
AttributeError, so this test keeps the two in step.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from datawords.model import ModelBundle

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports only the standard library
    return module


@pytest.mark.parametrize("module, function", load_spans().TARGETS)
def test_traced_function_exists(module, function):
    owner = importlib.import_module(f"datawords.{module}")
    assert callable(getattr(owner, function, None)), f"datawords.{module}.{function}"


def test_bundle_keeps_label_models():
    assert "label_models" in {f.name for f in dataclasses.fields(ModelBundle)}
