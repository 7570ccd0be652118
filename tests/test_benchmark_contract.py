"""The benchmark in perfbench/ reaches into the package by name: the tracer
looks up each layer function with getattr, the solver workloads build
SolverConfig from keyword pairs, and the process-window workload reads
each report's error and EPE map. A rename or removal in the package breaks
those runs without failing any other test, so this file checks the names
and the report fields, and that the traced layers still see every
convolution the solver makes.
The perfbench files are only read, never changed."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

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


def _short_window(monkeypatch):
    """The workloads module, the process_window workload and its case,
    warmed up, on a shortened sweep of one binary and one gray mask at two
    focus settings, which runs the same code as the full one."""
    workloads = _load("workloads", monkeypatch)
    monkeypatch.setattr(workloads, "DEFOCUS_SWEEP_NM", (0.0, 50.0))
    target = ten_rectangles(workloads.N)
    gray = np.clip(target + 0.3 * np.random.default_rng(3).normal(
        size=target.shape), 0.0, 1.0)
    workload = workloads.WORKLOADS["process_window"]
    case = workloads.WindowCase([(target, target), (gray, target)])
    workload.warm_up(case)
    return workloads, workload, case


def test_process_window_reads_report_fields(monkeypatch):
    # the sweep keeps report.error for every image and checks report.epe
    # of the sampled ones against an independent reference
    workloads, workload, case = _short_window(monkeypatch)
    target = case.masks[0][1]
    sample = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    result = workload.run(case, workloads.no_span, sample)
    assert len(result.sampled) == len(sample)
    for _, _, _, report in result.sampled:
        assert type(report.error) is float
        assert report.epe.dtype == np.float64
        assert report.epe.shape == target.shape
    assert all(type(e) is float for e in result.errors)
    assert workload.check(case, result)[:2] == (4, 0)  # (attempted, failed)


def test_process_window_traces_one_convolution_per_image(monkeypatch):
    # process_window's per-layer convolution count is its traced
    # optics.convolve spans: evaluate must image every mask through it,
    # in focus and out
    tracing = _load("tracing", monkeypatch)
    _, workload, case = _short_window(monkeypatch)
    tracer = tracing.Tracer()
    with tracer.installed(ilt_admm):
        workload.run(case, tracer.span, frozenset())
    summary = tracer.summary()
    assert summary.n("metrics.evaluate") == workload.ops(case) == 4
    assert summary.n("optics.convolve") == workload.ops(case)
    assert summary.child_calls[("metrics.evaluate", "optics.convolve")] == 4


def test_tracer_sees_every_solver_convolution(monkeypatch):
    # the per-layer convolution counts are the traced optics.convolve and
    # optics.convolve_adjoint spans: a solver path that reached the FFT
    # operator another way would read as zero convolutions, so the spans
    # must count every call of the operator itself. A forward image is
    # either the operator's forward or, for the start-up image of a
    # defocused solve, its image from the cached mask spectrum.
    tracing = _load("tracing", monkeypatch)
    calls = {"forward": 0, "image": 0, "adjoint": 0}
    for name in calls:
        def counted(self, x, _name=name, _method=getattr(optics._ConvOperator, name)):
            calls[_name] += 1
            return _method(self, x)
        monkeypatch.setattr(optics._ConvOperator, name, counted)
    cfg = SolverConfig(outer_max_iters=2, bregman_max_iters=2, descent_max_iters=3)
    for defocus, images in ((0.0, 0), (50.0, 1)):
        calls.update(forward=0, image=0, adjoint=0)
        tracer = tracing.Tracer()
        with tracer.installed(ilt_admm):
            admm_optimize(ten_rectangles(48),
                          OpticsConfig(kernel_size=20, defocus_nm=defocus), cfg)
        summary = tracer.summary()
        assert calls["forward"] > 0 and calls["adjoint"] > 0
        assert calls["image"] == images, defocus
        assert (summary.n("optics.convolve")
                == calls["forward"] + calls["image"]), defocus
        assert summary.n("optics.convolve_adjoint") == calls["adjoint"], defocus
