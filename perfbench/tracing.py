"""Spans around calls into precursor_lab, installed from outside the package.

Nothing under ``src/`` changes.  :meth:`Tracer.install` replaces every
public function of each layer module with a wrapper that records a span,
at every place the program looks the name up: the defining module's own
namespace (which its functions use as globals) and every other package
module that bound the function by name, such as ``cli``'s
``forward_transform`` or ``propagate``'s ``transfer_function``.  The
``quad`` that ``stochastic`` bound from scipy gets a call counter.
:meth:`Tracer.uninstall` puts every original back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or -1.  Spans stay in memory; the harness writes them out
when the run ends.  The program runs on one thread (``--threads 1``), so a
single stack tracks the parent.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("config", "grid", "signals", "media", "propagate", "stochastic", "_kernels", "analysis")

ANALYSIS_METRICS = ("peak", "rms_width", "energy_ratio", "fit_decay_exponent", "causality_metric")

# per-layer metric -> spans it sums; a span nested inside another span of
# the same metric is not counted twice
INCLUSIVE = {
    "grid.transform_s": ("grid.forward_transform", "grid.inverse_transform"),
    "media.transfer_s": ("media.transfer_function", "media.transfer_between"),
    "stochastic.quadrature_s": ("stochastic.averaged_transfer_quadrature",),
    "stochastic.observed_s": ("stochastic.observed_output",),
    "kernels.gamma_draws_s": ("_kernels.gamma_draws",),
    "analysis.metrics_s": tuple(f"analysis.{name}" for name in ANALYSIS_METRICS),
}
# per-layer metric -> spans whose self time (duration minus children) it sums
SELF = {
    "propagate.fft_s": ("propagate.propagate_fft", "propagate.impulse_response_fft"),
    "stochastic.monte_carlo_s": ("stochastic.monte_carlo_output",),
    "cli.self_s": ("cli.main",),
}
TRANSFORMS = ("grid.forward_transform", "grid.inverse_transform")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.quad_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    def _quad_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.quad_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"precursor_lab.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("precursor_lab.cli"))
        layer_of = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    layer_of[id(obj)] = layer
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in layer_of:
                    name = f"{layer_of[id(obj)]}.{attr}"
                    self._patch(module, attr, self._span_wrapper(name, obj))
        stochastic = importlib.import_module("precursor_lab.stochastic")
        self._patch(stochastic, "quad", self._quad_counter(stochastic.quad))

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.quad_calls = 0

    # -- per-layer numbers -------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer seconds and counts for the spans recorded since :meth:`reset`."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for metric, names in INCLUSIVE.items():
            out[metric] = sum(
                end - start
                for name, start, end, parent in spans
                if name in names and not self._inside(parent, names)
            )
        for metric, names in SELF.items():
            out[metric] = sum(
                (end - start) - child_time[i]
                for i, (name, start, end, _) in enumerate(spans)
                if name in names
            )
        out["grid.transforms"] = sum(1 for span in spans if span[0] in TRANSFORMS)
        out["stochastic.quad_calls"] = self.quad_calls
        return out

    def _inside(self, index: int, names) -> bool:
        while index >= 0:
            if self.spans[index][0] in names:
                return True
            index = self.spans[index][3]
        return False
