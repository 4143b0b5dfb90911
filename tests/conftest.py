import numpy as np
import pytest

from tcm2d.model import NCOMP, ModelParams, Plan, TcmState, nonlinear_tendency
from tcm2d.spectral import (
    SpectralField,
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


def coords(grid):
    """Physical mesh (x, y), indexed [ix, iy]."""
    x = np.arange(grid.n) * grid.spacing
    return np.meshgrid(x, x, indexing="ij")


def field_of(grid, fn):
    """The half-spectrum field of fn(x, y) on the grid's mesh."""
    return SpectralField.from_phys(grid, fn(*coords(grid)))


def zero_field(grid):
    return SpectralField(grid, np.zeros(grid.shape_spec, dtype=np.complex128))


def state_of(u, v, theta, time=0.0):
    """The state of five half-spectrum fields, stacked from their band columns."""
    band = theta.grid.band
    return TcmState(theta.grid, np.stack([f.coeffs[:, :band] for f in (*u, *v, theta)]), time)


def fields_of(state):
    """A state's components [u_x, u_y, v_x, v_y, theta] as half-spectrum fields, zero-padded from its band."""
    full = np.zeros((NCOMP,) + state.grid.shape_spec, dtype=np.complex128)
    full[..., : state.grid.band] = state.coeffs
    return [SpectralField(state.grid, row) for row in full]


def shear_state(grid):
    """u = (sin y, 0), v = 0, theta = 0."""
    zero = zero_field(grid)
    return state_of((field_of(grid, lambda x, y: np.sin(y)), zero), (zero, zero), zero)


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
