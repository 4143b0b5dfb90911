"""Span tracer that wraps tcm2d's layer entry points from outside the package.

Each wrapped callable is replaced, at the attribute where the package looks
it up, by a wrapper that records a span ``[layer, start, end, parent, fields,
bytes]``.  Parents are tracked on a stack, so a span's self time is its
duration minus the durations of its direct children.  Spans stay in memory
and are handed to the caller at the end.

A wrapped name that no longer exists raises ``TraceWiringError`` instead of
silently reporting zero; a refactor that renames a layer entry point must
update ``WRAP_POINTS`` in the same change.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter


# Exit code of child.py when a traced entry point is missing.
EXIT_WIRING = 3


class TraceWiringError(RuntimeError):
    """A layer entry point named in WRAP_POINTS is missing or was never called."""


# (layer, module, attribute path).  The attribute path is looked up on the
# module; a dotted path names a method on a class.
WRAP_POINTS = [
    ("spectral.fft", "scipy.fft", "rfft2"),
    ("spectral.fft", "scipy.fft", "irfft2"),
    ("spectral.fft", "numpy.fft", "rfft2"),
    ("spectral.fft", "numpy.fft", "irfft2"),
    ("model.tendency", "tcm2d.integrator", "nonlinear_tendency"),
    ("model.tendency", "tcm2d.model", "nonlinear_tendency"),
    ("integrator.step", "tcm2d.integrator", "step"),
    ("integrator.stable_dt", "tcm2d.integrator", "stable_dt"),
    ("diagnostics.record", "tcm2d.cli", "compute_record"),
    ("diagnostics.writer", "tcm2d.diagnostics", "CsvWriter.write"),
    ("diagnostics.writer", "tcm2d.diagnostics", "JsonlWriter.write"),
    ("cli.parse", "tcm2d.cli", "parse_run_config"),
    ("cli.initial_data", "tcm2d.cli", "make_initial_data"),
    ("cli.summary", "tcm2d.cli", "_monotonicity_verdict"),
    ("cli.summary", "tcm2d.cli", "_fit_block"),
    ("cli.run", "tcm2d.cli", "execute_run"),
    ("cli.run", "tcm2d.cli", "execute_sweep"),
]

# Layers every workload must exercise.  numpy.fft is wrapped so that a switch
# of FFT backend stays visible, but the package does not call it today.
REQUIRED_LAYERS = sorted({layer for layer, _, _ in WRAP_POINTS})

FFT_LAYER = "spectral.fft"


def _fields(x) -> int:
    """2-D fields in one rfft2/irfft2 call: the product of the leading dimensions."""
    return math.prod(x.shape[:-2])


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self, points=WRAP_POINTS) -> None:
        for layer, module_name, path in points:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
                if owner is None:
                    raise TraceWiringError(f"{module_name}.{path}: {name} not found")
            original = getattr(owner, attr, None)
            if not callable(original):
                raise TraceWiringError(f"{module_name}.{path} not found; update WRAP_POINTS")
            setattr(owner, attr, self._wrap(layer, original))

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        is_fft = layer == FFT_LAYER

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if is_fft:
                span[4] = _fields(args[0])
                span[5] = args[0].nbytes + result.nbytes
            return result

        return traced

    def check_coverage(self) -> None:
        seen = {span[0] for span in self.spans}
        missing = [layer for layer in REQUIRED_LAYERS if layer not in seen]
        if missing:
            raise TraceWiringError(f"traced layers never called: {missing}; update WRAP_POINTS")
