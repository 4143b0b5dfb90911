"""2D periodic pseudo-spectral simulator and diagnostics for the
temperature-dependent tropical climate model."""

__version__ = "0.1.0"

from .spectral import (
    SpectralField,
    SpectralGrid,
    derivative,
    inner_product,
    lambda_pow,
    sobolev_norm,
)
from .model import (
    ModelParams,
    Plan,
    TcmState,
    derive_delta1,
    derive_lambda,
)
from .integrator import StepperConfig, run, stable_dt, step
from .diagnostics import (
    DecayFit,
    DiagnosticsConfig,
    DiagnosticsRecord,
    Spectra,
    decay_fit,
    theory_exponent,
)
from .inequality_lab import (
    InequalityReport,
    check_composition,
    check_gn,
    check_interpolation,
    check_kato_ponce,
)
from .cli import RunConfig, make_initial_data

__all__ = [
    "SpectralField",
    "SpectralGrid",
    "derivative",
    "inner_product",
    "lambda_pow",
    "sobolev_norm",
    "ModelParams",
    "Plan",
    "TcmState",
    "derive_delta1",
    "derive_lambda",
    "StepperConfig",
    "run",
    "stable_dt",
    "step",
    "DecayFit",
    "DiagnosticsConfig",
    "DiagnosticsRecord",
    "Spectra",
    "decay_fit",
    "theory_exponent",
    "InequalityReport",
    "check_composition",
    "check_gn",
    "check_interpolation",
    "check_kato_ponce",
    "RunConfig",
    "make_initial_data",
]
