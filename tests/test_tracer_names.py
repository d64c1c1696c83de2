"""The traced benchmark (perfbench/tracer.py) wraps package functions
and ParamConfig methods by name; a rename in the package must fail here
rather than break the traced run."""

import importlib
from pathlib import Path

import pytest

from blobalg.params import ParamConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_traced_functions_exist(tracer):
    for _, module, func in tracer.SPANS:
        assert callable(getattr(importlib.import_module(module), func, None)), (
            "%s.%s" % (module, func))


def test_counted_param_methods_exist(tracer):
    for method in tracer.PARAM_METHODS:
        assert callable(getattr(ParamConfig, method, None)), method
