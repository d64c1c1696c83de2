"""The traced benchmark (perfbench/tracer.py) wraps package functions
and ParamConfig methods by name and reads attributes of what they
return; a rename or deletion in the package must fail here rather than
break the traced run."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blobalg.params import ParamConfig

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_traced_run_passes(workload):
    # the whole traced run at the self-test size: its observers read
    # package attributes (calibrated.dense_bytes sums Seminormal.nbytes)
    # that no command reads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), "--workload", workload,
         "--size", "tiny", "--seed", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failed"] == 0, result["errors"]
