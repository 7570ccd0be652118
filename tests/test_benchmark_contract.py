"""The benchmark in perfbench/ reaches into the package by name: the tracer
looks up each layer function with getattr, and the solver workloads build
SolverConfig from keyword pairs. A rename or removal in the package breaks
those runs without failing any other test, so this file checks the names.
The perfbench files are only read, never changed."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

from ilt_admm.solver import SolverConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_exist(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    for modname, names in tracing.LAYERS.items():
        module = importlib.import_module(f"ilt_admm.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"


def test_workload_solver_keys_are_config_fields(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    solver_workloads = [w for w in workloads.WORKLOADS.values()
                        if hasattr(w, "solver_args")]
    assert solver_workloads
    for w in solver_workloads:
        keys = {key for key, _ in w.solver_args}
        assert keys <= fields, (w.name, keys - fields)
