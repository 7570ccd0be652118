"""Span tracing of the package's layers, installed from outside the package.

The tracer wraps the layer functions named in ``LAYERS`` and rebinds every
module attribute of the ``ilt_admm`` package that refers to them. This matters
because callers look functions up in different places: ``solver`` imports
``convolve``, ``phi``, ``shrink`` and ``epe_error`` by name, while
``metrics.evaluate`` calls ``optics.convolve`` through the module attribute.
Rebinding every reference catches both. Nothing in the package changes on
disk, and leaving ``installed`` puts every original back.

Each call records a span (name, parent span, start, end). Functions that are
not wrapped, such as the ``grids`` helpers or ``regularization.tv_norm``,
count in the self time of the wrapped function that called them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

# The functions traced, by defining module. They are the layer boundaries
# that the per-layer metrics of BENCHMARK.json name.
LAYERS = {
    "optics": ("build_psf", "convolve", "convolve_adjoint"),
    "regularization": ("phi", "shrink", "diff_adjoint"),
    "solver": ("admm_optimize", "u_subproblem", "grad_F", "v_subproblem",
               "dual_update", "augmented_lagrangian", "grad_h"),
    "metrics": ("evaluate", "epe_error"),
}

# Spans whose self time makes up solver.diagnostics.self_s: the monitors that
# admm_optimize evaluates once per outer iteration.
DIAGNOSTICS = ("solver.augmented_lagrangian", "solver.grad_h",
               "metrics.epe_error")


@dataclass
class Tracer:
    """Spans kept in memory: ``spans[i] = [name, parent index, start, end]``."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every function in LAYERS wherever the package binds it, for
        the duration of the block."""
        restore = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for modname, names in LAYERS.items():
            home = sys.modules[f"{package.__name__}.{modname}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(f"{modname}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            restore.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def summary(self) -> "SpanSummary":
        return SpanSummary.of(self.spans)


@dataclass
class SpanSummary:
    calls: dict
    self_s: dict
    total_s: dict
    # (parent name, child name) -> number of child spans with such a parent
    child_calls: dict

    @classmethod
    def of(cls, spans: list) -> "SpanSummary":
        calls, self_s, total_s, child_calls = {}, {}, {}, {}
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
                key = (spans[parent][0], name)
                child_calls[key] = child_calls.get(key, 0) + 1
        for i, (name, _, start, end) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        return cls(calls, self_s, total_s, child_calls)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def self_time(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)
