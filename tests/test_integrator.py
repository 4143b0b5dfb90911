"""Integrator tests: exact linear decay, step bounds, convergence, determinism."""

import numpy as np
import pytest

from tcm2d.integrator import DT_FLOOR, StepperConfig, run, stable_dt, step
from tcm2d.model import BlowUpError, ModelParams, TcmState, energy
from tcm2d.spectral import SpectralField

from conftest import evaluate, make_random_state


def shear_state(grid):
    st = TcmState.zero(grid)
    st.coeffs[0] = SpectralField.from_function(grid, lambda x, y: np.sin(y)).coeffs
    return st


class TestStableDt:
    def test_zero_state_formula(self, grid64):
        p = ModelParams(alpha=0.0, beta=1.0)
        zero = TcmState.zero(grid64)
        dt = stable_dt(zero, p, evaluate(zero, p), cfl=0.5)
        assert dt == pytest.approx(0.5 / (1.0 + grid64.kmax_dealiased), rel=1e-12)

    def test_linear_in_cfl(self, grid64, params_undamped):
        st = make_random_state(grid64, seed=4, amplitude=0.3)
        ev = evaluate(st, params_undamped)
        assert stable_dt(st, params_undamped, ev, 1.0) == pytest.approx(
            2.0 * stable_dt(st, params_undamped, ev, 0.5), rel=1e-12
        )

    def test_decreases_with_velocity(self, grid64, params_undamped):
        st = make_random_state(grid64, seed=4, amplitude=0.3)
        faster = TcmState(grid64, st.coeffs * 3.0, 0.0)
        p = params_undamped
        assert stable_dt(faster, p, evaluate(faster, p), 0.5) < stable_dt(st, p, evaluate(st, p), 0.5)

    def test_floor(self, grid64):
        st = make_random_state(grid64, seed=4, amplitude=1e12)
        p = ModelParams()
        assert stable_dt(st, p, evaluate(st, p), 0.5) == DT_FLOOR


class TestStep:
    def test_shear_mode_exact_decay(self, grid64):
        # Linear dynamics sit entirely in the integrating factor: machine exact.
        p = ModelParams(alpha=0.3, beta=1.0, mu_lower=1.0, viscosity="constant")
        s = shear_state(grid64)
        for _ in range(100):
            s, _ = step(s, p, 1e-2, evaluate(s, p)[:2])
        yy = grid64.coords()[1]
        expected = np.exp(-1.3) * np.sin(yy)
        assert np.max(np.abs(s.u[0].values() - expected)) < 1e-12

    def test_constant_v_decay(self, grid64):
        p = ModelParams(alpha=0.0, beta=2.0, mu_lower=1.0)
        st = TcmState.zero(grid64)
        st.coeffs[2][0, 0] = 0.7
        s = st
        for _ in range(50):
            s, _ = step(s, p, 1e-2, evaluate(s, p)[:2])
        exact = 0.7 * np.exp(-2.0 * 0.5)
        assert s.coeffs[2][0, 0].real == pytest.approx(exact, rel=1e-13)
        # imex-euler is first order: error ~ dt
        s = st
        for _ in range(50):
            s, _ = step(s, p, 1e-2, evaluate(s, p)[:2], scheme="imex-euler")
        err = abs(s.coeffs[2][0, 0].real - exact)
        assert 0 < err < 0.05 * exact

    def test_zero_fixed_point(self, grid64, params_undamped):
        zero = TcmState.zero(grid64)
        z, w = step(zero, params_undamped, 0.1, evaluate(zero, params_undamped)[:2])
        assert np.max(np.abs(z.coeffs)) == 0.0
        assert w == 0.0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_blow_up_detection(self, grid64, params_undamped):
        st = make_random_state(grid64, seed=6, amplitude=10.0)
        with pytest.raises(BlowUpError) as exc:
            s = st
            for _ in range(200):
                s, _ = step(s, params_undamped, 0.5, evaluate(s, params_undamped)[:2])  # far above the stable dt
        assert exc.value.time > 0

    def test_divergence_stays_clean(self, grid64, params_damped):
        s = make_random_state(grid64, seed=8, amplitude=0.05)
        dt = stable_dt(s, params_damped, evaluate(s, params_damped), 0.5)
        for _ in range(5):
            s, _ = step(s, params_damped, dt, evaluate(s, params_damped)[:2])
        g = grid64
        div = 1j * (g.kx * s.coeffs[0] + g.ky * s.coeffs[1])
        scale = np.sqrt(np.sum(np.abs(s.coeffs[0]) ** 2 + np.abs(s.coeffs[1]) ** 2))
        assert np.max(np.abs(div)) <= 1e-12 * scale

    def test_per_step_energy_budget_order(self, grid32):
        # Change in energy over one step matches -integral of dissipation to
        # O(dt^5): halving dt shrinks the mismatch ~32x.
        p = ModelParams(alpha=0.1, beta=1.0, mu_lower=0.5)
        st = make_random_state(grid32, seed=9, amplitude=1.0)
        mismatch = {}
        for dt in (2e-3, 1e-3):
            s1, w = step(st, p, dt, evaluate(st, p)[:2])
            mismatch[dt] = abs((energy(s1) - energy(st)) + w)
        ratio = mismatch[2e-3] / mismatch[1e-3]
        assert ratio > 20.0


class TestRun:
    def test_t_end_zero_returns_initial(self, grid32, params_undamped):
        st = make_random_state(grid32, seed=3, amplitude=0.01)
        seen = []
        out = run(st, params_undamped, StepperConfig(t_end=0.0), lambda s, dt, w, ev: seen.append(s.time))
        assert seen == [0.0]
        np.testing.assert_array_equal(out.coeffs, st.coeffs)

    def test_shear_envelope_over_unit_time(self, grid64):
        p = ModelParams(alpha=0.0, beta=1.0, mu_lower=1.0, viscosity="constant")
        out = run(shear_state(grid64), p, StepperConfig(t_end=1.0, dt=1e-2, sample_every=0.5))
        yy = grid64.coords()[1]
        rel = np.max(np.abs(out.u[0].values() - np.exp(-1.0) * np.sin(yy))) / np.exp(-1.0)
        assert rel < 1e-8

    def test_sampling_cadence(self, grid32, params_undamped):
        st = make_random_state(grid32, seed=3, amplitude=0.01)
        times = []
        run(st, params_undamped, StepperConfig(t_end=1.0, dt=0.05, sample_every=0.25),
            lambda s, dt, w, ev: times.append(s.time))
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0, abs=1e-9)
        assert len(times) == 5

    def test_deterministic_trajectories(self, grid32, params_damped):
        st = make_random_state(grid32, seed=14, amplitude=0.02)
        outs = []
        for _ in range(2):
            outs.append(run(st, params_damped, StepperConfig(t_end=0.5, dt="auto", cfl=0.4)))
        np.testing.assert_array_equal(outs[0].coeffs, outs[1].coeffs)

    def test_richardson_self_convergence_order(self, grid32):
        # Nonlinear run at O(1) amplitude; three-level Richardson ratio.
        p = ModelParams(alpha=0.0, beta=1.0, mu_lower=1.0)
        st = make_random_state(grid32, seed=10, amplitude=0.5)
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            finals[dt] = run(st, p, StepperConfig(t_end=0.2, dt=dt)).coeffs
        e_coarse = np.max(np.abs(finals[4e-3] - finals[2e-3]))
        e_fine = np.max(np.abs(finals[2e-3] - finals[1e-3]))
        order = np.log2(e_coarse / e_fine)
        assert order >= 3.7

    def test_imex_euler_first_order(self, grid32):
        p = ModelParams(alpha=0.0, beta=1.0, mu_lower=1.0)
        st = make_random_state(grid32, seed=10, amplitude=0.5)
        finals = {}
        for dt in (1e-3, 5e-4, 2.5e-4):
            finals[dt] = run(st, p, StepperConfig(t_end=0.1, dt=dt, scheme="imex-euler")).coeffs
        e_coarse = np.max(np.abs(finals[1e-3] - finals[5e-4]))
        e_fine = np.max(np.abs(finals[5e-4] - finals[2.5e-4]))
        order = np.log2(e_coarse / e_fine)
        assert order >= 0.9


class TestStepperConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, scheme="rk2")
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, cfl=0.0)
        with pytest.raises(ValueError):
            StepperConfig(t_end=-1.0)
        with pytest.raises(ValueError, match="imex-euler"):
            StepperConfig(t_end=1.0, dt="auto", scheme="imex-euler")
        assert StepperConfig(t_end=1.0, dt="auto").dt == "auto"
