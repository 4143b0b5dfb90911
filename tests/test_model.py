"""Tests for the model: derived constants, viscosity laws, tendency, energy budget.

The tendency is cross-checked against a second-order centered finite-difference
oracle built on an independent discretization (FD derivatives, FD-symbol
pressure solve).  The test state is a low-mode trigonometric polynomial so the
dealiased spectral tendency is exact, making the FD error pure truncation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcm2d import spectral
from tcm2d.cli import make_initial_data, parse_run_config
from tcm2d.integrator import StepperConfig, run, step
from tcm2d.model import (
    ModelParams,
    ParamError,
    Plan,
    TcmState,
    ViscosityFloorError,
    budget_residual,
    derive_delta1,
    derive_lambda,
    nonlinear_tendency,
    parseval_dissipation,
    ITH,
    NCOMP,
)
from tcm2d.spectral import (
    SpectralField,
    SpectralGrid,
    dealias,
    derivative,
    divergence,
    gradient,
    inner_product,
    leray_project,
    to_phys,
)

from conftest import evaluate, make_random_state, stage1


def rhs(state, params):
    """The whole semi-discrete tendency N(z) + Lz, in the state's band layout."""
    return evaluate(state, params).tendency + Plan(state.grid, params).linear * state.coeffs


def residual(state, params):
    """budget_residual of a state on a fresh plan: <z, N(z) + Lz> + D."""
    return budget_residual(state, Plan(state.grid, params), evaluate(state, params))


class TestDeriveLambda:
    def test_undamped_example(self):
        assert derive_lambda(0.0, 2.0, 1.0) == pytest.approx(math.sqrt(1 / 12), rel=1e-12)

    def test_damped_example(self):
        assert derive_lambda(1.0, 1.0, 1.0) == pytest.approx(math.sqrt(1 / 12), rel=1e-12)

    def test_small_viscosity_example(self):
        assert derive_lambda(0.0, 10.0, 0.01) == pytest.approx(math.sqrt(0.005), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParamError):
            derive_lambda(0.0, 0.0, 1.0)
        with pytest.raises(ParamError):
            derive_lambda(0.0, 1.0, -1.0)

    @given(
        alpha=st.floats(1e-3, 50.0),
        beta=st.floats(1e-3, 50.0),
        mu=st.floats(1e-3, 50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_branch_invariance_when_min_away_from_alpha(self, alpha, beta, mu):
        assume(alpha > min(mu, beta / (4 + 2 * beta**2)))
        assert derive_lambda(alpha, beta, mu) == derive_lambda(0.0, beta, mu)


class TestDeriveDelta1:
    def test_values(self):
        assert derive_delta1(0.0) == 0
        assert derive_delta1(0.5) == 1
        assert derive_delta1(1e-300) == 1  # strict sign test

    def test_negative_rejected(self):
        with pytest.raises(ParamError):
            derive_delta1(-0.1)


class TestViscosity:
    def test_default_law_values(self):
        # The default law is mu_lower + theta**2.
        assert ModelParams(mu_lower=1.0).mu(0.0) == pytest.approx(1.0)
        assert ModelParams(mu_lower=1.0).mu(2.0) == pytest.approx(5.0)
        assert ModelParams(mu_lower=0.5).mu(-2.0) == pytest.approx(4.5)

    def test_named_laws(self):
        p = ModelParams(mu_lower=0.7, viscosity="constant")
        assert p.mu(3.0) == pytest.approx(0.7)
        p = ModelParams(mu_lower=0.7, viscosity="gauss-bump", viscosity_a=2.0)
        assert p.mu(0.0) == pytest.approx(2.7)
        assert p.mu(100.0) == pytest.approx(0.7)

    def test_floor_violation_aborts(self):
        # Law violating the bound already at theta = 0 fails fast at construction.
        with pytest.raises(ViscosityFloorError):
            ModelParams(mu_lower=1.0, viscosity="gauss-bump", viscosity_a=-0.5)
        # Law fine at 0 but dipping below elsewhere fails at the probed theta.
        p = ModelParams(mu_lower=1.0, viscosity=lambda th: 1.0 + th)
        assert p.mu(0.5) == pytest.approx(1.5)
        with pytest.raises(ViscosityFloorError):
            p.mu(np.array([-0.5]))

    def test_unknown_law_rejected(self):
        with pytest.raises(ParamError):
            ModelParams(viscosity="cubic")


class TestParamBounds:
    def test_eta_defaults_to_max(self):
        p = ModelParams(beta=2.0)
        assert p.eta == pytest.approx(2.0 / 12.0)
        assert p.eta < 0.25

    def test_kappa_clamped_below_half(self):
        p = ModelParams(beta=math.sqrt(2.0))  # min(beta/2, 1/beta) = 0.707 > 1/2
        assert p.kappa == pytest.approx(0.499)

    def test_explicit_bounds_enforced(self):
        with pytest.raises(ParamError):
            ModelParams(beta=1.0, eta=0.3)
        with pytest.raises(ParamError):
            ModelParams(beta=1.0, kappa=0.6)
        with pytest.raises(ParamError):
            ModelParams(s=1.0)


class TestStateLayout:
    def test_every_state_is_the_contiguous_band(self, grid32, params_undamped):
        # One layout: whatever makes a state, its coefficients are a
        # contiguous complex (5, n, band) array.
        g = grid32
        band = g.band
        base = make_random_state(g, seed=1, amplitude=0.3)
        padded = np.zeros((NCOMP,) + g.shape_spec, dtype=complex)
        padded[..., :band] = base.coeffs
        padded[..., band:] = 1.0  # columns past the band are dropped
        fields = [SpectralField(g, row) for row in padded]
        config = parse_run_config({
            "schema_version": 1,
            "grid": {"n": g.n, "box_length": g.box_length},
            "params": {"alpha": 0.0, "beta": 1.0, "mu_lower": 1.0, "s": 1.5},
            "stepper": {"t_end": 0.1},
            "epsilon": 0.01,
            "seed": 3,
        })
        plan = Plan(g, params_undamped)
        states = {
            "band input": TcmState(g, padded[..., :band].real),
            "zero": TcmState.zero(g),
            "from_fields": TcmState.from_fields(fields[0:2], fields[2:4], fields[4]),
            "make_initial_data": make_initial_data(config),
            "step": step(base, plan, 1e-3, stage1(nonlinear_tendency(base.coeffs, plan)))[0],
            "run": run(base, params_undamped, StepperConfig(t_end=2e-3, dt=1e-3)),
        }
        for name, state in states.items():
            c = state.coeffs
            assert c.shape == (NCOMP, g.n, band), name
            assert c.dtype == np.complex128 and c.flags.c_contiguous, name
        np.testing.assert_array_equal(states["from_fields"].coeffs, base.coeffs)
        assert not np.shares_memory(states["from_fields"].coeffs, padded)
        # A contiguous complex band array is taken as it is, with no copy.
        kept = TcmState(g, base.coeffs).coeffs
        assert np.shares_memory(kept, base.coeffs) and kept.shape == base.coeffs.shape

    @pytest.mark.parametrize(
        "shape",
        [(NCOMP, 32, 10), (NCOMP, 32, 12), (NCOMP, 32, 16), (NCOMP, 32, 18), (4, 32, 11), (NCOMP, 16, 11), (32, 11),
         (NCOMP, 32, 17)],
    )
    def test_any_other_shape_raises(self, grid32, shape):
        assert grid32.band == 11
        with pytest.raises(ValueError, match="state coefficients must have shape"):
            TcmState(grid32, np.zeros(shape, dtype=complex))


class TestRhs:
    def test_zero_state(self, grid64, params_undamped):
        z = TcmState.zero(grid64)
        assert np.max(np.abs(rhs(z, params_undamped))) == 0.0

    def test_pure_theta_forces_v_only(self, grid64, params_undamped):
        zero = SpectralField.zero(grid64)
        theta = SpectralField.from_function(grid64, lambda x, y: np.sin(x) + 0.3 * np.cos(2 * y))
        t = rhs(TcmState.from_fields((zero, zero), (zero, zero), theta), params_undamped)
        xx, yy = grid64.coords()
        assert np.max(np.abs(t[0:2])) == 0.0
        assert np.max(np.abs(t[ITH])) == 0.0
        dv1 = to_phys(t[2], grid64)
        dv2 = to_phys(t[3], grid64)
        assert np.max(np.abs(dv1 - np.cos(xx))) < 1e-12
        assert np.max(np.abs(dv2 + 0.6 * np.sin(2 * yy))) < 1e-12

    def test_shear_mode_hand_value(self, grid64):
        p = ModelParams(alpha=0.0, beta=1.0, mu_lower=1.0, viscosity="constant")
        zero = SpectralField.zero(grid64)
        shear = SpectralField.from_function(grid64, lambda x, y: np.sin(y))
        t = rhs(TcmState.from_fields((shear, zero), (zero, zero), zero), p)
        yy = grid64.coords()[1]
        assert np.max(np.abs(to_phys(t[0], grid64) + np.sin(yy))) < 1e-12
        assert np.max(np.abs(t[1])) < 1e-14
        assert np.max(np.abs(t[2:])) < 1e-14

    def test_tendency_divergence_free(self, grid64, params_damped):
        st_ = make_random_state(grid64, seed=12, amplitude=0.5)
        t = rhs(st_, params_damped)
        g = grid64
        div = 1j * (g.kx * t[0] + g.ky[:, : g.band] * t[1])
        scale = np.sqrt(np.sum(np.abs(t[0]) ** 2 + np.abs(t[1]) ** 2))
        assert np.max(np.abs(div)) <= 1e-12 * max(scale, 1e-30)


def _product(a, b, grid):
    """One dealiased quadratic product, through its own forward transform."""
    return dealias(SpectralField.from_phys(grid, a * b))


def _reference_tendency(state, params):
    """nonlinear_tendency and its dissipation, built term by term.

    Every product gets its own forward transform, so this checks the grouping
    of products before the batched transform in nonlinear_tendency.
    """
    g = state.grid
    u = [f.values() for f in state.u]
    v = [f.values() for f in state.v]
    grad_u = [[d.values() for d in gradient(f)] for f in state.u]
    grad_v = [[d.values() for d in gradient(f)] for f in state.v]
    grad_th = [d.values() for d in gradient(state.theta)]
    mu_rem = dealias(SpectralField.from_phys(g, params.mu(state.theta.values()) - params.mu0)).values()

    def transport(w, grad):  # (w.grad) of the field whose gradient is given
        return _product(w[0], grad[0], g) + _product(w[1], grad[1], g)

    tu = []
    for i in range(2):
        stress = [_product(mu_rem, grad_u[i][j], g) - _product(v[i], v[j], g) for j in range(2)]
        tu.append(divergence(tuple(stress)) - transport(u, grad_u[i]))
    tu = leray_project(tuple(tu))
    tv = [derivative(state.theta, i) - transport(u, grad_v[i]) - transport(v, grad_u[i]) for i in range(2)]
    tth = divergence(state.v) - transport(u, grad_th)
    out = np.stack([f.coeffs for f in (*tu, *tv, tth)])

    grad_u_sq = sum(d**2 for row in grad_u for d in row)
    visc = float(np.sum((params.mu0 + mu_rem) * grad_u_sq)) * g.cell_area
    u_sq = sum(inner_product(f, f) for f in state.u)
    v_sq = sum(inner_product(f, f) for f in state.v)
    return out, visc + params.alpha * u_sq + params.beta * v_sq


LAWS = [
    ModelParams(alpha=0.3, beta=1.0, mu_lower=1.0, viscosity="quadratic"),
    ModelParams(alpha=0.3, beta=2.0, mu_lower=0.5, viscosity="constant"),
    ModelParams(alpha=0.0, beta=2.0, mu_lower=0.5, viscosity="gauss-bump", viscosity_a=1.5),
]


class TestGroupedTendency:
    @pytest.mark.parametrize("params", LAWS, ids=lambda p: p.viscosity)
    @pytest.mark.parametrize("seed", [4, 31])
    def test_matches_term_by_term_reference(self, grid64, params, seed):
        st_ = make_random_state(grid64, seed=seed, amplitude=0.5)
        ref, ref_diss = _reference_tendency(st_, params)
        evaluation = nonlinear_tendency(st_.coeffs, Plan(grid64, params))
        out, diss = evaluation.tendency, evaluation.dissipation
        assert np.all(ref[..., out.shape[-1]:] == 0)
        assert np.max(np.abs(out - ref[..., : out.shape[-1]])) <= 1e-13 * np.max(np.abs(ref))
        assert abs(diss - ref_diss) <= 1e-13 * ref_diss

    @pytest.mark.parametrize("params", LAWS, ids=lambda p: p.viscosity)
    def test_physical_fields_are_the_state(self, grid64, params):
        # The physical fields are the state itself in physical space, taken from
        # the batched inverse transform (a view), bitwise equal to its own transform.
        st_ = make_random_state(grid64, seed=4, amplitude=0.5)
        phys = nonlinear_tendency(st_.coeffs, Plan(grid64, params)).phys
        assert phys.shape == (5,) + grid64.shape_phys
        assert phys.base is not None
        np.testing.assert_array_equal(phys, to_phys(st_.coeffs, grid64))

    @pytest.mark.parametrize(
        "params",
        [*LAWS, ModelParams(alpha=0.3, mu_lower=0.5, viscosity=lambda th: 1.0 + 0.5 * np.sin(th))],
        ids=[*(p.viscosity for p in LAWS), "callable"],
    )
    def test_viscosity_deviation_and_stiff_sum_are_the_states(self, grid64, params):
        # mu_dev is max |mu(theta) - mu(0)| over the grid, bitwise, 0.0 with
        # the constant law; the gauss-bump law lies below mu(0), so the
        # absolute value matters.  stiff is the state's Parseval sum.
        st_ = make_random_state(grid64, seed=4, amplitude=0.5)
        plan = Plan(grid64, params)
        evaluation = nonlinear_tendency(st_.coeffs, plan)
        if params.viscosity == "constant":
            assert evaluation.mu_dev == 0.0
        else:
            dev = params.mu(to_phys(st_.coeffs, grid64)[ITH]) - params.mu0
            assert evaluation.mu_dev == float(np.max(np.abs(dev)))
            if params.viscosity == "gauss-bump":
                assert np.max(dev) <= 0.0 < evaluation.mu_dev
        assert evaluation.stiff == parseval_dissipation(st_.coeffs, plan)

    @pytest.mark.parametrize(
        "params, forward, inverse",
        [pytest.param(p, f, i, id=p.viscosity) for p, f, i in zip(LAWS, (9, 7, 9), (10, 7, 10))],
    )
    def test_transform_counts(self, grid64, monkeypatch, params, forward, inverse):
        # Fields per call: 8 grouped products (7 with the constant law) plus the
        # viscosity remainder forward; the state, 3 gradient components of u
        # (d_y u2 is -d_x u1), the curl of v and the remainder inverse.  The
        # constant law needs the curl of u only, not its gradient components.
        counts = {"rfft2": 0, "irfft2": 0}

        def counting(name):
            original = getattr(spectral._fft, name)

            def transform(x, *args, **kwargs):
                counts[name] += math.prod(x.shape[:-2])
                return original(x, *args, **kwargs)

            return transform

        for name in counts:
            monkeypatch.setattr(spectral._fft, name, counting(name))
        st_ = make_random_state(grid64, seed=5, amplitude=0.5)
        nonlinear_tendency(st_.coeffs, Plan(grid64, params))
        assert counts == {"rfft2": forward, "irfft2": inverse}


    @pytest.mark.parametrize("params", LAWS, ids=lambda p: p.viscosity)
    def test_u_tendency_is_divergence_free(self, grid64, params):
        # The Biot-Savart velocity of curl div sigma: k . u_hat vanishes to
        # rounding, and the mean mode is exactly zero.
        st_ = make_random_state(grid64, seed=4, amplitude=0.5)
        out = nonlinear_tendency(st_.coeffs, Plan(grid64, params)).tendency
        g, w = grid64, out.shape[-1]
        k_dot_u = np.abs(g.kx * out[0] + g.ky[:, :w] * out[1])
        scale = np.max(g.kmag[:, :w] * np.sqrt(np.abs(out[0]) ** 2 + np.abs(out[1]) ** 2))
        assert scale > 0
        assert np.max(k_dot_u) <= 1e-13 * scale
        assert out[0, 0, 0] == 0 and out[1, 0, 0] == 0

    @pytest.mark.parametrize("params", LAWS, ids=lambda p: p.viscosity)
    def test_columns_past_the_band_stay_zero(self, grid64, params):
        # The tendency and the states stepped with it hold the band columns
        # only, with exact zeros, with no per-step repair, in every mode
        # outside the dealias mask.  A run hands its sink and returns states
        # of that band layout.
        band = grid64.band
        outside = ~grid64.dealias_mask[:, :band]
        plan = Plan(grid64, params)
        for scheme in ("if-rk4", "imex-euler"):
            st_ = make_random_state(grid64, seed=6, amplitude=0.5)
            for _ in range(2):
                evaluation = nonlinear_tendency(st_.coeffs, plan)
                tendency = evaluation.tendency
                assert tendency.shape == (NCOMP, grid64.n, band)
                assert np.any(tendency != 0)
                assert np.all(tendency[:, outside] == 0)
                st_ = step(st_, plan, 1e-3, stage1(evaluation), scheme)[0]
                assert st_.coeffs.shape == (NCOMP, grid64.n, band)
                assert np.any(st_.coeffs != 0)
                assert np.all(st_.coeffs[:, outside] == 0)
        seen = []
        final = run(make_random_state(grid64, seed=6, amplitude=0.5), params,
                    StepperConfig(t_end=3e-3, dt=1e-3, sample_every=1e-3),
                    lambda s, plan, dt, w, ev: seen.append(s.coeffs))
        assert len(seen) == 4
        for coeffs in (*seen, final.coeffs):
            assert coeffs.shape == (NCOMP, grid64.n, band)
            assert np.any(coeffs != 0)
            assert np.all(coeffs[:, outside] == 0)


def _values(evaluation):
    """Copies of every value of an evaluation, its sup norms included."""
    return (evaluation.tendency.copy(), evaluation.dissipation, evaluation.stiff, evaluation.mu_dev,
            evaluation.phys.copy(), dict(evaluation.linf))


def _assert_values_equal(got, want):
    for a, b in zip(got, want, strict=True):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


class TestPlan:
    @pytest.mark.parametrize("params", LAWS, ids=lambda p: p.viscosity)
    def test_evaluations_on_one_plan_do_not_alias(self, grid64, params):
        # The plan's buffers are scratch: a second call on the same plan leaves
        # the first call's fields as they were, and each call equals the
        # evaluation on a fresh plan bit for bit.
        plan = Plan(grid64, params)
        first_state = make_random_state(grid64, seed=4, amplitude=0.5)
        second_state = make_random_state(grid64, seed=31, amplitude=0.5)
        coeffs = first_state.coeffs.copy()
        first = nonlinear_tendency(first_state.coeffs, plan)
        kept = _values(first)
        second = nonlinear_tendency(second_state.coeffs, plan)
        np.testing.assert_array_equal(first_state.coeffs, coeffs)
        for state, evaluation in ((first_state, first), (second_state, second)):
            fresh = nonlinear_tendency(state.coeffs, Plan(grid64, params))
            _assert_values_equal(_values(evaluation), _values(fresh))
        _assert_values_equal(_values(first), kept)

    def test_propagators_follow_the_last_dt(self, grid64, params_damped):
        plan = Plan(grid64, params_damped)
        E, E2, E2x2 = plan.propagators(0.1)
        assert plan.propagators(0.1)[0] is E
        np.testing.assert_array_equal(E, np.exp(0.1 * plan.linear))
        np.testing.assert_array_equal(E2x2, 2.0 * E2)
        np.testing.assert_array_equal(plan.propagators(0.2)[1], np.exp(0.1 * plan.linear))
        assert not plan.linear.flags.writeable

    def test_a_new_dt_overwrites_the_propagators_in_place(self, grid64, params_damped):
        # An auto dt is a new float on every step: its propagators go into the
        # plan's rows, with the numbers of freshly computed ones, and the
        # arrays handed out are read-only.
        plan = Plan(grid64, params_damped)
        first = plan.propagators(0.1)
        second = plan.propagators(0.07)
        assert all(a is b for a, b in zip(first, second))
        np.testing.assert_array_equal(second[0], np.exp(0.07 * plan.linear))
        np.testing.assert_array_equal(second[1], np.exp(0.5 * 0.07 * plan.linear))
        np.testing.assert_array_equal(second[2], 2.0 * np.exp(0.5 * 0.07 * plan.linear))
        assert not any(a.flags.writeable for a in second)

    def test_tendency_allocation_peak(self, grid64):
        # What one call at n = 64 may allocate, with F = n^2 doubles (32 KiB)
        # for a physical field and B = n band complex (22 KiB) for the band
        # columns of a spectral one: the inverse batch's output, 9 F, which
        # the returned physical fields keep alive (numpy's irfft2 drops an
        # out= argument, so it cannot be a plan buffer); the remainder's
        # inverse, F; and one transient of up to 9 B, the kx pass of the
        # pruned inverse.  Their sum, about 16.2 F, bounds the peak (measured:
        # 15.3 F).  Work arrays come from the plan and must not be allocated
        # per call: the 8 product rows (8 F) or the forward batch's output
        # (8 S, S = n (n/2 + 1) complex) would each break the bound.  Given
        # out, the call allocates no tendency: it returns out, and all it
        # leaves allocated is the inverse output.
        params = ModelParams(alpha=0.3, viscosity="quadratic")
        plan = Plan(grid64, params)
        coeffs = make_random_state(grid64, seed=4, amplitude=0.5).coeffs
        out = np.empty((NCOMP, grid64.n, grid64.band), dtype=np.complex128)
        nonlinear_tendency(coeffs, plan, out)  # warm-up: transform plans, lazy imports
        F = grid64.n**2 * 8
        B = grid64.n * grid64.band * 16
        tracemalloc.start()
        try:
            evaluation = nonlinear_tendency(coeffs, plan, out)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert evaluation.tendency is out
        assert peak <= 10 * F + 9 * B
        assert left <= 9 * F + B // 4


def _fd_rhs(fields, params, m, L):
    """Second-order centered FD tendency on an m^2 periodic grid.

    Independent of the spectral path: all derivatives are centered
    differences; the pressure is eliminated with the FD-symbol Leray
    projection (the FFT only diagonalizes the FD operators).
    """
    h = L / m
    x = np.arange(m) * h
    xx, yy = np.meshgrid(x, x, indexing="ij")
    u1, u2, v1, v2, th = (f(xx, yy) for f in fields)

    def dx(f):
        return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * h)

    def dy(f):
        return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2 * h)

    mu = params.mu(th)
    adv = lambda f: u1 * dx(f) + u2 * dy(f)
    du1 = -adv(u1) + dx(mu * dx(u1)) + dy(mu * dy(u1)) - (dx(v1 * v1) + dy(v2 * v1)) - params.alpha * u1
    du2 = -adv(u2) + dx(mu * dx(u2)) + dy(mu * dy(u2)) - (dx(v1 * v2) + dy(v2 * v2)) - params.alpha * u2
    dv1 = -adv(v1) - (v1 * dx(u1) + v2 * dy(u1)) - params.beta * v1 + dx(th)
    dv2 = -adv(v2) - (v1 * dx(u2) + v2 * dy(u2)) - params.beta * v2 + dy(th)
    dth = -adv(th) + dx(v1) + dy(v2)

    # FD Leray: remove the centered-difference gradient of the FD pressure.
    k = 2 * np.pi * np.fft.fftfreq(m, d=h)
    sx = 1j * np.sin(k[:, None] * h) / h
    sy = 1j * np.sin(k[None, :] * h) / h
    lap = sx**2 + sy**2
    lap[0, 0] = 1.0
    w1, w2 = np.fft.fft2(du1), np.fft.fft2(du2)
    q = (sx * w1 + sy * w2) / lap
    q[0, 0] = 0.0
    du1 = np.real(np.fft.ifft2(w1 - sx * q))
    du2 = np.real(np.fft.ifft2(w2 - sy * q))
    return np.stack([du1, du2, dv1, dv2, dth])


class TestFiniteDifferenceOracle:
    def test_convergence_to_spectral_rhs(self):
        # Low-mode analytic state: products stay inside the dealias mask, so the
        # spectral tendency is exact and the FD error is pure truncation.
        L = 2 * np.pi
        fields = (
            lambda x, y: -2.0 * np.sin(x) * np.sin(2 * y),   # u = curl of sin(x) cos(2y)
            lambda x, y: -np.cos(x) * np.cos(2 * y),
            lambda x, y: 0.7 * np.sin(x + y),
            lambda x, y: 0.7 * np.cos(x - y),
            lambda x, y: 0.5 * np.sin(x) * np.sin(y) + 0.3 * np.cos(2 * x),
        )
        params = ModelParams(alpha=0.2, beta=1.0, mu_lower=1.0)
        grid = SpectralGrid(64, L)
        xx, yy = grid.coords()
        u1, u2, v1, v2, th = (SpectralField.from_phys(grid, f(xx, yy)) for f in fields)
        state = TcmState.from_fields((u1, u2), (v1, v2), th)
        truth = to_phys(rhs(state, params), grid)

        errs = {}
        for m in (16, 32, 64):
            stride = grid.n // m
            approx = _fd_rhs(fields, params, m, L)
            errs[m] = np.max(np.abs(approx - truth[:, ::stride, ::stride]))
        assert errs[16] > errs[32] > errs[64]
        # The coarsest pair is pre-asymptotic for this state; the refining
        # pair must show the clean second-order rate.
        rate = np.log2(errs[32] / errs[64])
        assert rate >= 1.9


class TestEnergyBudget:
    def test_zero_state(self, grid64, params_undamped):
        assert residual(TcmState.zero(grid64), params_undamped) == 0.0

    def test_pure_theta(self, grid64, params_undamped):
        zero = SpectralField.zero(grid64)
        theta = SpectralField.from_function(grid64, lambda x, y: np.sin(x))
        res = residual(TcmState.from_fields((zero, zero), (zero, zero), theta), params_undamped)
        assert abs(res) < 1e-15

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_random_band_limited_state(self, grid64, alpha):
        params = ModelParams(alpha=alpha, beta=1.0, mu_lower=1.0, s=1.5)
        st_ = make_random_state(grid64, seed=17, amplitude=0.8)
        res = residual(st_, params)
        scale = evaluate(st_, params).dissipation
        assert scale > 0
        assert abs(res) <= 1e-10 * scale

    def test_residual_with_gauss_bump_law(self, grid64):
        params = ModelParams(beta=2.0, mu_lower=0.5, viscosity="gauss-bump", viscosity_a=1.5)
        st_ = make_random_state(grid64, seed=23, amplitude=0.6)
        res = residual(st_, params)
        assert abs(res) <= 1e-10 * evaluate(st_, params).dissipation
