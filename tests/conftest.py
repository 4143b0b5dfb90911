import numpy as np
import pytest

from tcm2d.model import ModelParams, Plan, TcmState, nonlinear_tendency
from tcm2d.spectral import (
    SpectralGrid,
    leray_project_coeffs,
    power_law_amplitude,
    random_coeffs,
)


@pytest.fixture(scope="session")
def grid64():
    return SpectralGrid(64, 2 * np.pi)


@pytest.fixture(scope="session")
def grid32():
    return SpectralGrid(32, 2 * np.pi)


def make_random_state(grid, seed=0, amplitude=1.0, slope=1.0, peak_index=8):
    """Band-limited, mean-free, div-free-u random state scaled to |coeff|_max = amplitude."""
    rng = np.random.default_rng(seed)
    k_peak = peak_index * 2 * np.pi / grid.box_length
    amp = power_law_amplitude(slope, k_peak)
    c = np.stack([random_coeffs(grid, rng, amp, width=grid.band) for _ in range(5)])
    c[0], c[1] = leray_project_coeffs(c[0], c[1], grid)
    c *= grid.dealias_mask[:, : grid.band]
    c *= amplitude / np.max(np.abs(c))
    return TcmState(grid, c, 0.0)


def evaluate(state, params):
    """The state's evaluation on a fresh plan, as the integrator hands it to stable_dt and compute_record."""
    return nonlinear_tendency(state.coeffs, Plan(state.grid, params))


def stage1(evaluation):
    """Stage 1 of a step from the evaluated state: its (tendency, dissipation), as run passes it."""
    return evaluation.tendency, evaluation.dissipation


@pytest.fixture
def small_state(grid64):
    return make_random_state(grid64, seed=7, amplitude=0.01)


@pytest.fixture
def params_undamped():
    return ModelParams(alpha=0.0, beta=1.0, mu_lower=1.0, s=1.5)


@pytest.fixture
def params_damped():
    return ModelParams(alpha=0.5, beta=1.0, mu_lower=1.0, s=1.5)
