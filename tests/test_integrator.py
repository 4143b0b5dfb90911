"""Integrator tests: exact linear decay, step bounds, convergence, determinism."""

import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from tcm2d.diagnostics import Spectra
from tcm2d.integrator import DT_FLOOR, DtFloorError, StepperConfig, run, stable_dt, step
from tcm2d.model import NCOMP, BlowUpError, ModelParams, Plan, TcmState, nonlinear_tendency
from tcm2d.spectral import (
    SpectralField,
    SpectralGrid,
    derivative,
    gradient,
    inner_product,
    lambda_pow,
    leray_project_coeffs,
    lp_norm,
    sobolev_norm,
    to_phys,
)

from conftest import (
    coords,
    evaluate,
    field_of,
    fields_of,
    make_random_state,
    shear_state,
    stage1,
    state_of,
    zero_field,
)


class TestStableDt:
    def test_zero_state_formula(self, grid64):
        p = ModelParams(alpha=0.0, beta=1.0)
        zero = TcmState.zero(grid64)
        dt = stable_dt(Plan(grid64, p), evaluate(zero, p), cfl=0.5)
        assert dt == pytest.approx(0.5 / (1.0 + grid64.kmax_dealiased), rel=1e-12)

    def test_linear_in_cfl(self, grid64, params_undamped):
        st = make_random_state(grid64, seed=4, amplitude=0.3)
        plan = Plan(grid64, params_undamped)
        ev = nonlinear_tendency(st.coeffs, plan)
        assert stable_dt(plan, ev, 1.0) == pytest.approx(2.0 * stable_dt(plan, ev, 0.5), rel=1e-12)

    def test_decreases_with_velocity(self, grid64, params_undamped):
        st = make_random_state(grid64, seed=4, amplitude=0.3)
        faster = TcmState(grid64, st.coeffs * 3.0, 0.0)
        plan = Plan(grid64, params_undamped)
        assert stable_dt(plan, nonlinear_tendency(faster.coeffs, plan), 0.5) < stable_dt(
            plan, nonlinear_tendency(st.coeffs, plan), 0.5
        )

    def test_floor(self, grid64):
        st = make_random_state(grid64, seed=4, amplitude=1e12)
        p = ModelParams()
        assert stable_dt(Plan(grid64, p), evaluate(st, p), 0.5) == DT_FLOOR

    @pytest.mark.parametrize("viscosity", ["quadratic", "constant", "gauss-bump"])
    def test_the_bound_is_the_formula_of_the_states_fields(self, grid64, viscosity):
        # Bitwise the formula of the docstring, of the sup norms and viscosity
        # deviation taken from the state's own physical fields.
        params = ModelParams(alpha=0.3, viscosity=viscosity)
        st = make_random_state(grid64, seed=4, amplitude=0.3)
        vals = to_phys(st.coeffs, grid64)
        sup_u = float(np.max(np.sqrt(vals[0] ** 2 + vals[1] ** 2)))
        sup_v = float(np.max(np.sqrt(vals[2] ** 2 + vals[3] ** 2)))
        mu_dev = 0.0 if viscosity == "constant" else float(np.max(np.abs(params.mu(vals[4]) - params.mu0)))
        kmax = grid64.kmax_dealiased
        expected = 0.5 / (kmax * (sup_u + sup_v) + kmax**2 * mu_dev + params.beta + params.alpha + kmax)
        assert stable_dt(Plan(grid64, params), evaluate(st, params), 0.5) == expected

    def test_run_stops_at_the_floor(self, grid64):
        # Stepping on at the floor would take about 1e8 steps per time unit:
        # the run stops instead, after the sink has seen the initial state.
        st = make_random_state(grid64, seed=4, amplitude=1e12)
        seen = []
        with pytest.raises(DtFloorError) as err:
            run(st, ModelParams(), StepperConfig(t_end=1.0), lambda s, plan, dt, w, ev: seen.append((s.time, dt)))
        assert err.value.time == 0.0
        assert seen == [(0.0, DT_FLOOR)]


class TestStep:
    def test_shear_mode_exact_decay(self, grid64):
        # Linear dynamics sit entirely in the integrating factor: machine exact.
        p = ModelParams(alpha=0.3, beta=1.0, mu_lower=1.0, viscosity="constant")
        s = shear_state(grid64)
        plan = Plan(grid64, p)
        for _ in range(100):
            s, _ = step(s, plan, 1e-2, stage1(nonlinear_tendency(s.coeffs, plan)))
        yy = coords(grid64)[1]
        expected = np.exp(-1.3) * np.sin(yy)
        assert np.max(np.abs(to_phys(s.coeffs[0], grid64) - expected)) < 1e-12

    def test_constant_v_decay(self, grid64):
        p = ModelParams(alpha=0.0, beta=2.0, mu_lower=1.0)
        st = TcmState.zero(grid64)
        st.coeffs[2][0, 0] = 0.7
        plan = Plan(grid64, p)
        s = st
        for _ in range(50):
            s, _ = step(s, plan, 1e-2, stage1(nonlinear_tendency(s.coeffs, plan)))
        exact = 0.7 * np.exp(-2.0 * 0.5)
        assert s.coeffs[2][0, 0].real == pytest.approx(exact, rel=1e-13)
        # imex-euler is first order: error ~ dt
        s = st
        for _ in range(50):
            s, _ = step(s, plan, 1e-2, stage1(nonlinear_tendency(s.coeffs, plan)), scheme="imex-euler")
        err = abs(s.coeffs[2][0, 0].real - exact)
        assert 0 < err < 0.05 * exact

    def test_zero_fixed_point(self, grid64, params_undamped):
        zero = TcmState.zero(grid64)
        z, w = step(zero, Plan(grid64, params_undamped), 0.1, stage1(evaluate(zero, params_undamped)))
        assert np.max(np.abs(z.coeffs)) == 0.0
        assert w == 0.0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_blow_up_detection(self, grid64, params_undamped):
        st = make_random_state(grid64, seed=6, amplitude=10.0)
        plan = Plan(grid64, params_undamped)
        with pytest.raises(BlowUpError) as exc:
            s = st
            for _ in range(200):
                s, _ = step(s, plan, 0.5, stage1(nonlinear_tendency(s.coeffs, plan)))  # far above the stable dt
        assert exc.value.time > 0

    def test_divergence_stays_clean(self, grid64, params_damped):
        s = make_random_state(grid64, seed=8, amplitude=0.05)
        plan = Plan(grid64, params_damped)
        dt = stable_dt(plan, nonlinear_tendency(s.coeffs, plan), 0.5)
        for _ in range(5):
            s, _ = step(s, plan, dt, stage1(nonlinear_tendency(s.coeffs, plan)))
        g = grid64
        div = 1j * (g.kx * s.coeffs[0] + g.ky[:, : g.band] * s.coeffs[1])
        scale = np.sqrt(np.sum(np.abs(s.coeffs[0]) ** 2 + np.abs(s.coeffs[1]) ** 2))
        assert np.max(np.abs(div)) <= 1e-12 * scale

    def test_per_step_energy_budget_order(self, grid32):
        # Change in energy over one step matches -integral of dissipation to
        # O(dt^5): halving dt shrinks the mismatch ~32x.
        p = ModelParams(alpha=0.1, beta=1.0, mu_lower=0.5)
        st = make_random_state(grid32, seed=9, amplitude=1.0)
        mismatch = {}
        for dt in (2e-3, 1e-3):
            s1, w = step(st, Plan(grid32, p), dt, stage1(evaluate(st, p)))
            mismatch[dt] = abs((Spectra(s1).energy() - Spectra(st).energy()) + w)
        ratio = mismatch[2e-3] / mismatch[1e-3]
        assert ratio > 20.0


    @pytest.mark.parametrize("scheme", ["if-rk4", "imex-euler"])
    def test_step_writes_neither_input(self, grid32, params_damped, scheme):
        # The stages run in the plan's buffers, never in stage1 or the state,
        # and the new state is a new array: a step with another dt on the same
        # plan leaves the first step's state as it was and equals a step on a
        # fresh plan, and a second step from the state repeats the first.
        plan = Plan(grid32, params_damped)
        st = make_random_state(grid32, seed=11, amplitude=0.3)
        coeffs = st.coeffs.copy()
        k1_d1 = stage1(nonlinear_tendency(st.coeffs, plan))
        k1 = k1_d1[0].copy()
        first, w_first = step(st, plan, 1e-3, k1_d1, scheme)
        z_first = first.coeffs.copy()
        other = step(st, plan, 2e-3, k1_d1, scheme)[0]
        np.testing.assert_array_equal(first.coeffs, z_first)
        fresh = step(st, Plan(grid32, params_damped), 2e-3, stage1(evaluate(st, params_damped)), scheme)[0]
        np.testing.assert_array_equal(other.coeffs, fresh.coeffs)
        second, w_second = step(st, plan, 1e-3, k1_d1, scheme)
        np.testing.assert_array_equal(second.coeffs, z_first)
        assert w_second == w_first
        np.testing.assert_array_equal(st.coeffs, coeffs)
        np.testing.assert_array_equal(k1_d1[0], k1)


def _reference_step(z0, plan, dt, stage1, scheme):
    """One step as the plain expressions on the full (n, n/2 + 1) half
    spectrum, with E = exp(dt L) of its own symbol and each stage tendency,
    of the band columns of its stage state, zero-padded to that width:
    Lawson RK4 for if-rk4, (z0 + dt N) / (1 - dt L) for imex-euler."""
    g, params = plan.grid, plan.params
    linear = np.zeros((NCOMP,) + g.shape_spec)
    linear[0] = linear[1] = -(params.mu0 * g.k2 + params.alpha)
    linear[2] = linear[3] = -params.beta

    def full(tendency):
        out = np.zeros_like(z0)
        out[..., : g.band] = tendency
        return out

    def N(z):
        evaluation = nonlinear_tendency(np.ascontiguousarray(z[..., : g.band]), plan)
        return full(evaluation.tendency), evaluation.dissipation

    k1, d1 = full(stage1[0]), stage1[1]
    if scheme == "imex-euler":
        return (z0 + dt * k1) / (1.0 - dt * linear), dt * d1
    E, E2 = np.exp(dt * linear), np.exp(0.5 * dt * linear)
    k2, d2 = N(E2 * (z0 + (0.5 * dt) * k1))
    k3, d3 = N(E2 * z0 + (0.5 * dt) * k2)
    k4, d4 = N(E * z0 + dt * (E2 * k3))
    z1 = E * z0 + (dt / 6.0) * (E * k1 + 2.0 * E2 * (k2 + k3) + k4)
    return z1, (dt / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)


class TestStepReference:
    @pytest.mark.parametrize("scheme", ["if-rk4", "imex-euler"])
    @pytest.mark.parametrize("dt", [2e-3, "auto"])
    @pytest.mark.parametrize("viscosity", ["quadratic", "constant"])
    def test_step_is_the_plain_expressions_bit_for_bit(self, grid32, viscosity, dt, scheme):
        # The band layout, the plan's buffers and the in-place ufuncs keep the
        # operation order of the plain expressions: three steps from a band
        # state, each from the state the last one returned, equal the
        # full-spectrum reference bit for bit, and the reference is exactly
        # zero past the band.
        params = ModelParams(alpha=0.5, beta=1.0, mu_lower=0.5, viscosity=viscosity)
        plan = Plan(grid32, params)
        band = grid32.band
        st = make_random_state(grid32, seed=12, amplitude=0.3)
        z_ref = np.zeros((NCOMP,) + grid32.shape_spec, dtype=complex)
        z_ref[..., :band] = st.coeffs
        for _ in range(3):
            evaluation = nonlinear_tendency(st.coeffs, plan)
            h = stable_dt(plan, evaluation) if dt == "auto" else dt
            st, w = step(st, plan, h, stage1(evaluation), scheme)
            z_ref, w_ref = _reference_step(z_ref, plan, h, stage1(evaluation), scheme)
            assert st.coeffs.shape == (NCOMP, grid32.n, band)
            np.testing.assert_array_equal(st.coeffs, z_ref[..., :band])
            assert np.all(z_ref[..., band:] == 0)
            assert w == w_ref


class TestStepAllocation:
    def test_a_step_allocates_the_new_state_only(self, grid64, monkeypatch):
        # An if-rk4 step at n = 64 forms its stage states in the plan's state
        # rows and writes stages 2-4 into the plan's stage vectors, so
        # outside its three tendency calls it allocates the new state, 5 B
        # (B = n band complex, 22 KiB), and that state's finiteness mask, and
        # it holds no array across a call.  A stage vector or tendency of the
        # full layout, 5 S (S = n (n/2 + 1) complex, 33 KiB), allocated
        # anywhere in the step, or a new band one held across a call, breaks
        # a bound.  The peak within a call is test_tendency_allocation_peak's.
        from tcm2d import integrator

        tendency = integrator.nonlinear_tendency
        held, peaks = [], []

        def tendency_outside_peaks(coeffs, plan, out=None):
            current, peak = tracemalloc.get_traced_memory()
            held.append(current)
            peaks.append(peak)
            dissipation = tendency(coeffs, plan, out).dissipation  # the physical fields are freed here
            tracemalloc.reset_peak()
            return SimpleNamespace(dissipation=dissipation)

        params = ModelParams(alpha=0.3, viscosity="quadratic")
        plan = Plan(grid64, params)
        st = make_random_state(grid64, seed=4, amplitude=0.5)
        st = step(st, plan, 1e-3, stage1(nonlinear_tendency(st.coeffs, plan)))[0]
        k1_d1 = stage1(nonlinear_tendency(st.coeffs, plan))
        step(st, plan, 2e-3, k1_d1)  # warm-up
        monkeypatch.setattr(integrator, "nonlinear_tendency", tendency_outside_peaks)
        B = grid64.n * grid64.band * 16
        tracemalloc.start()
        try:
            new, _ = step(st, plan, 1e-3, k1_d1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(held) == 3
        assert new.coeffs.shape == (NCOMP, grid64.n, grid64.band)
        assert max(held) <= 4096
        assert max(peaks) <= 5 * B + 5 * B // 16 + 4096

    @pytest.mark.parametrize("viscosity", ["quadratic", "constant"])
    def test_a_run_holds_one_inverse_output_at_a_time(self, grid64, viscosity):
        # Beyond its plan, a run at n = 64 holds three band arrays (its state,
        # the state a step makes and the tendency buffer), 15 B, and one
        # evaluation's inverse output, 9 F (7 F with the constant law) with
        # the pruned inverse's kx-pass transient of as many B; 2 B of slack
        # covers the rest (measured: 1.7 B and 1.8 B under the bound).  A run
        # that kept an evaluation's physical fields across a step would hold
        # two inverse outputs and break the bound.
        params = ModelParams(alpha=0.3, viscosity=viscosity)
        state = make_random_state(grid64, seed=3, amplitude=0.3)
        stepper = StepperConfig(t_end=0.02, sample_every=0.01)
        run(state, params, stepper)  # warm-up: transform plans, lazy imports
        F = grid64.n**2 * 8
        B = grid64.n * grid64.band * 16
        tracemalloc.start()
        try:
            plan = Plan(grid64, params)
            plan_bytes = tracemalloc.get_traced_memory()[0]
            rows = len(plan.spec) - 1
            del plan
            tracemalloc.reset_peak()
            run(state, params, stepper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= plan_bytes + rows * (F + B) + 17 * B


class TestRun:
    def test_the_law_is_evaluated_once_per_tendency_call(self, grid32, monkeypatch):
        # With a variable law and auto dt, mu(theta) is evaluated in the
        # tendency alone, once per call: four times per if-rk4 step plus the
        # initial evaluation.  The step bound reads the evaluation's mu_dev.
        from tcm2d import integrator

        params = ModelParams(alpha=0.3, viscosity="quadratic")
        counts = {"mu": 0, "mu in bound": 0, "step": 0}
        real_mu, real_bound, real_step = ModelParams.mu, integrator.stable_dt, integrator.step

        def mu(self, theta):
            counts["mu"] += 1
            return real_mu(self, theta)

        def bound(*args):
            before = counts["mu"]
            dt = real_bound(*args)
            counts["mu in bound"] += counts["mu"] - before
            return dt

        def counted_step(*args):
            counts["step"] += 1
            return real_step(*args)

        monkeypatch.setattr(ModelParams, "mu", mu)
        monkeypatch.setattr(integrator, "stable_dt", bound)
        monkeypatch.setattr(integrator, "step", counted_step)
        run(make_random_state(grid32, seed=3, amplitude=0.2), params, StepperConfig(t_end=0.05, sample_every=0.01))
        assert counts["step"] >= 2
        assert counts["mu in bound"] == 0
        assert counts["mu"] == 4 * counts["step"] + 1

    def test_a_tiny_sample_interval_costs_nothing_per_step(self, params_undamped, monkeypatch):
        # The next sample time is counted in whole intervals from the start,
        # not reached by adding sample_every once per interval: with steps of
        # about 10^7 intervals each, the run finishes at once and samples
        # every step.
        from tcm2d import integrator

        grid = SpectralGrid(16, 2 * np.pi)
        steps = []

        def counted(*args):
            steps.append(args[2])
            return step(*args)

        monkeypatch.setattr(integrator, "step", counted)
        times = []
        start = time.perf_counter()
        run(make_random_state(grid, seed=3, amplitude=0.1), params_undamped,
            StepperConfig(t_end=0.2, dt="auto", sample_every=1e-9), lambda s, plan, dt, w, ev: times.append(s.time))
        assert time.perf_counter() - start < 2.0
        assert len(steps) >= 3
        assert len(times) == len(steps) + 1
        assert times == sorted(set(times))
        assert times[-1] == pytest.approx(0.2, abs=1e-12)

    def test_t_end_zero_returns_initial(self, grid32, params_undamped):
        st = make_random_state(grid32, seed=3, amplitude=0.01)
        seen = []
        out = run(st, params_undamped, StepperConfig(t_end=0.0), lambda s, plan, dt, w, ev: seen.append(s.time))
        assert seen == [0.0]
        assert out.coeffs is not st.coeffs
        np.testing.assert_array_equal(out.coeffs, st.coeffs)

    def test_entry_zeroes_the_modes_outside_the_mask(self, grid32, params_undamped):
        # Of the band columns, the mask drops the rows |jx| > (n-1)//3.  Noise
        # there (in every component, u's not divergence-free) is zeroed by
        # run on its own copy, so the t = 0 sample is dealiased exactly.
        outside = ~grid32.dealias_mask[:, : grid32.band]
        noisy = make_random_state(grid32, seed=3, amplitude=0.3).coeffs
        noisy[:, outside] = 1e-17 * (1 + 1j)
        st = TcmState(grid32, noisy.copy())
        seen = []
        run(st, params_undamped, StepperConfig(t_end=0.0), lambda s, plan, dt, w, ev: seen.append(s.coeffs.copy()))
        assert np.all(seen[0][:, outside] == 0)
        np.testing.assert_array_equal(seen[0][:, ~outside], noisy[:, ~outside])
        np.testing.assert_array_equal(st.coeffs, noisy)

    def test_sink_gets_the_runs_own_read_only_band_states(self, grid32, params_undamped):
        # The sink is handed the state the next step reads, in the band layout
        # the loop holds, with no copy; it cannot write to it, so a sink that
        # only reads leaves the trajectory bit for bit as it is with no sink.
        st = make_random_state(grid32, seed=3, amplitude=0.3)
        stepper = StepperConfig(t_end=0.2, dt="auto", sample_every=0.05)
        seen = []
        out = run(st, params_undamped, stepper, lambda s, plan, dt, w, ev: seen.append(s.coeffs))
        assert len(seen) >= 5 and seen[-1] is out.coeffs
        for coeffs in seen:
            assert coeffs.shape == (NCOMP, grid32.n, grid32.band)
            assert coeffs.flags.c_contiguous and not coeffs.flags.writeable
        np.testing.assert_array_equal(out.coeffs, run(st, params_undamped, stepper).coeffs)

        def writer(s, plan, dt, w, ev):
            s.coeffs[0, 1, 1] += 1.0

        with pytest.raises(ValueError, match="read-only"):
            run(st, params_undamped, stepper, writer)

    @pytest.mark.parametrize(
        "helper",
        [
            lambda th, v1: sobolev_norm(th, 1.0),
            lambda th, v1: lp_norm(th, 4.0),
            lambda th, v1: inner_product(th, v1),
            lambda th, v1: th.values(),
            lambda th, v1: lambda_pow(th, 1.5).coeffs,
            lambda th, v1: derivative(th, "y").coeffs,
            lambda th, v1: [d.coeffs for d in gradient(th)],
            lambda th, v1: leray_project_coeffs(v1.coeffs, th.coeffs, th.grid),
        ],
        ids=["sobolev_norm", "lp_norm", "inner_product", "values", "lambda_pow", "derivative",
             "gradient", "leray_project"],
    )
    def test_spectral_helpers_take_the_fields_of_a_band_state(self, grid32, params_undamped, helper):
        # run returns a band state; its physical fields, to_phys(state.coeffs),
        # made into half-spectrum fields give each helper what it gives on the
        # state's band columns zero-padded to that width, to rounding.
        out = run(make_random_state(grid32, seed=3, amplitude=0.3), params_undamped, StepperConfig(t_end=0.05, dt=0.01))
        phys = to_phys(out.coeffs, grid32)
        theta, v1 = (SpectralField.from_phys(grid32, phys[k]) for k in (4, 2))
        padded = fields_of(out)
        np.testing.assert_allclose(helper(theta, v1), helper(padded[4], padded[2]), rtol=1e-12, atol=1e-14)

    def test_entry_rejects_a_gradient_part_in_u(self, grid32, params_undamped):
        zero = zero_field(grid32)
        st = state_of((field_of(grid32, lambda x, y: np.cos(x)), zero), (zero, zero), zero)
        with pytest.raises(ValueError, match="divergence-free"):
            run(st, params_undamped, StepperConfig(t_end=0.1, dt=1e-2))

    def test_divergence_drift_over_many_auto_steps(self, grid32):
        # No step re-projects u: k . u_hat stays at rounding level on its own,
        # sample after sample, over a few hundred nonlinear auto-dt steps.
        g = grid32
        p = ModelParams(alpha=0.0, beta=1.0, mu_lower=1.0, viscosity="constant")
        ratios = []

        def sink(s, plan, dt, w, ev):
            u, band = s.coeffs[:2], g.band
            k_dot_u = np.max(np.abs(g.kx * u[0] + g.ky[:, :band] * u[1]))
            ratios.append(k_dot_u / np.max(g.kmag[:, :band] * np.sqrt(np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2)))

        run(make_random_state(g, seed=10, amplitude=0.5), p, StepperConfig(t_end=5.0, dt="auto", sample_every=1e-3), sink)
        assert len(ratios) - 1 >= 200
        assert max(ratios) <= 1e-13

    def test_shear_envelope_over_unit_time(self, grid64):
        p = ModelParams(alpha=0.0, beta=1.0, mu_lower=1.0, viscosity="constant")
        out = run(shear_state(grid64), p, StepperConfig(t_end=1.0, dt=1e-2, sample_every=0.5))
        yy = coords(grid64)[1]
        rel = np.max(np.abs(to_phys(out.coeffs[0], grid64) - np.exp(-1.0) * np.sin(yy))) / np.exp(-1.0)
        assert rel < 1e-8

    def test_sampling_cadence(self, grid32, params_undamped):
        st = make_random_state(grid32, seed=3, amplitude=0.01)
        times = []
        run(st, params_undamped, StepperConfig(t_end=1.0, dt=0.05, sample_every=0.25),
            lambda s, plan, dt, w, ev: times.append(s.time))
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0, abs=1e-9)
        assert len(times) == 5

    def test_deterministic_trajectories(self, grid32, params_damped):
        st = make_random_state(grid32, seed=14, amplitude=0.02)
        outs = []
        for _ in range(2):
            outs.append(run(st, params_damped, StepperConfig(t_end=0.5, dt="auto", cfl=0.4)))
        np.testing.assert_array_equal(outs[0].coeffs, outs[1].coeffs)

    def test_every_evaluated_u_is_divergence_free(self, grid32, monkeypatch):
        # nonlinear_tendency takes the transport by u in divergence form and
        # reads d_y u2 as -d_x u1, which holds only for divergence-free u.
        # Every state it evaluates must be one, the stage states included.
        from tcm2d import integrator

        tendency = integrator.nonlinear_tendency
        ratios = []

        def checked(coeffs, plan, out=None):
            k_dot_u = plan.grid.kx * coeffs[0] + plan.grid.ky[:, : plan.grid.band] * coeffs[1]
            ratios.append(np.max(np.abs(k_dot_u)) / np.max(np.abs(coeffs[:2])))
            return tendency(coeffs, plan, out)

        monkeypatch.setattr(integrator, "nonlinear_tendency", checked)
        p = ModelParams(alpha=0.0, beta=1.0, mu_lower=1.0)
        states = []
        run(make_random_state(grid32, seed=10, amplitude=0.5), p,
            StepperConfig(t_end=0.2, dt="auto", sample_every=1e-6), lambda s, plan, dt, w, ev: states.append(s.time))
        n_steps = len(states) - 1
        assert n_steps >= 2
        assert len(ratios) == 4 * n_steps + 1
        assert max(ratios) <= 1e-13

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
        for kwargs in ({"t_end": np.inf}, {"t_end": np.nan}, {"t_end": 1.0, "dt": np.inf}, {"t_end": 1.0, "dt": np.nan},
                       {"t_end": 1.0, "sample_every": np.inf}):
            with pytest.raises(ValueError):
                StepperConfig(**kwargs)
        with pytest.raises(ValueError, match="imex-euler"):
            StepperConfig(t_end=1.0, dt="auto", scheme="imex-euler")
        assert StepperConfig(t_end=1.0, dt="auto").dt == "auto"
