"""The benchmark in perfbench/ reaches into the package by name: the tracer
looks up each layer function with getattr, and the solver workloads build
SolverConfig from keyword pairs. A rename or removal in the package breaks
those runs without failing any other test, so this file checks the names,
and that the traced layers still see every convolution the solver makes.
The perfbench files are only read, never changed."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import ilt_admm
from ilt_admm import optics
from ilt_admm.optics import OpticsConfig
from ilt_admm.solver import SolverConfig, admm_optimize
from ilt_admm.targets import ten_rectangles

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


def test_tracer_sees_every_solver_convolution(monkeypatch):
    # the per-layer convolution counts are the traced optics.convolve and
    # optics.convolve_adjoint spans: a solver path that reached the FFT
    # operator another way would read as zero convolutions, so the spans
    # must count every call of the operator itself
    tracing = _load("tracing", monkeypatch)
    calls = {"forward": 0, "adjoint": 0}
    for name in calls:
        def counted(self, x, _name=name, _method=getattr(optics._ConvOperator, name)):
            calls[_name] += 1
            return _method(self, x)
        monkeypatch.setattr(optics._ConvOperator, name, counted)
    cfg = SolverConfig(outer_max_iters=2, bregman_max_iters=2, descent_max_iters=3)
    for defocus in (0.0, 50.0):
        calls.update(forward=0, adjoint=0)
        tracer = tracing.Tracer()
        with tracer.installed(ilt_admm):
            admm_optimize(ten_rectangles(48),
                          OpticsConfig(kernel_size=20, defocus_nm=defocus), cfg)
        summary = tracer.summary()
        assert calls["forward"] > 0 and calls["adjoint"] > 0
        assert summary.n("optics.convolve") == calls["forward"], defocus
        assert summary.n("optics.convolve_adjoint") == calls["adjoint"], defocus
