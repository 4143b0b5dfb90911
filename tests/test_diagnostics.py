"""Tests for energy functionals, cross terms, rate table, and decay fitting."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcm2d.diagnostics import (
    CsvWriter,
    DecayFitError,
    DiagnosticsConfig,
    DiagnosticsError,
    JsonlWriter,
    Spectra,
    compute_record,
    decay_fit,
    record_schema,
    theory_exponent,
)
from tcm2d.integrator import StepperConfig, run, stable_dt
from tcm2d.model import (
    ITH,
    ModelParams,
    Plan,
    TcmState,
    budget_residual,
    derive_lambda,
    nonlinear_tendency,
)
from tcm2d.spectral import (
    SpectralField,
    SpectralGrid,
    derivative,
    inner_product,
    lambda_pow,
    sobolev_norm,
    to_phys,
)

from conftest import evaluate, make_random_state

TWO_PI_SQ = 2 * np.pi**2


class TestCrossTerm:
    def test_analytic_value(self, grid64):
        v = (SpectralField.from_function(grid64, lambda x, y: np.cos(x)), SpectralField.zero(grid64))
        theta = SpectralField.from_function(grid64, lambda x, y: np.sin(x))
        # integrand is cos(x) * d/dx sin(x) = cos^2 x
        zero = SpectralField.zero(grid64)
        state = TcmState.from_fields((zero, zero), v, theta)
        assert Spectra(state).cross_term(1.0) == pytest.approx(TWO_PI_SQ, rel=1e-12)

    def test_zero_theta(self, grid64):
        v = (SpectralField.from_function(grid64, lambda x, y: np.cos(x)), SpectralField.zero(grid64))
        zero = SpectralField.zero(grid64)
        assert Spectra(TcmState.from_fields((zero, zero), v, zero)).cross_term(1.5) == 0.0

    @given(seed=st.integers(0, 2**16), order=st.floats(1.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_cauchy_schwarz_bound(self, seed, order):
        grid = SpectralGrid(32, 2 * np.pi)
        state = make_random_state(grid, seed=seed, amplitude=1.0)
        lhs = abs(Spectra(state).cross_term(order))
        v_norm = math.sqrt(
            sobolev_norm(state.v[0], order - 1.0, True) ** 2
            + sobolev_norm(state.v[1], order - 1.0, True) ** 2
        )
        rhs = v_norm * sobolev_norm(state.theta, order, True)
        assert lhs <= rhs * (1 + 1e-12)


class TestFunctionalA:
    def test_zero_state(self, grid64, params_undamped):
        assert Spectra(TcmState.zero(grid64)).A(params_undamped, params_undamped.s) == 0.0

    def test_theta_free_state_is_plain_rss(self, grid64, params_undamped):
        state = make_random_state(grid64, seed=5, amplitude=0.3)
        state.coeffs[ITH] = 0.0
        a = Spectra(state).A(params_undamped, params_undamped.s)
        assert a**2 == pytest.approx(Spectra(state).cross_free_sum_A(params_undamped, params_undamped.s), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_equivalence_band(self, grid64, alpha):
        params = ModelParams(alpha=alpha, beta=1.0, s=1.5)
        for seed in range(5):
            state = make_random_state(grid64, seed=seed, amplitude=0.2)
            a2 = Spectra(state).A(params, params.s) ** 2
            ssum = Spectra(state).cross_free_sum_A(params, params.s)
            assert 0.75 * a2 <= ssum <= 1.25 * a2


class TestFunctionalB:
    def test_zero_state(self, grid64, params_undamped):
        assert Spectra(TcmState.zero(grid64)).B(params_undamped, params_undamped.s) == 0.0

    def test_homogeneity(self, grid64, params_undamped):
        state = make_random_state(grid64, seed=6, amplitude=0.2)
        doubled = TcmState(grid64, 2.0 * state.coeffs, 0.0)
        for slot in ("lambda_m", "grad_hm1"):
            m = params_undamped.s
            assert Spectra(doubled).B(params_undamped, m, theta_slot=slot) == pytest.approx(
                2.0 * Spectra(state).B(params_undamped, m, theta_slot=slot), rel=1e-12
            )

    def test_shear_mode_both_variants(self, grid64):
        # u = (sin y, 0), v = theta = 0, m = 1... the order must stay >= s > 1,
        # so pin s via a params object with s = 1.5 and evaluate at m = 1.5.
        params = ModelParams(alpha=0.0, beta=2.0, mu_lower=1.0, s=1.5)
        lam = derive_lambda(0.0, 2.0, 1.0)
        zero = SpectralField.zero(grid64)
        shear = SpectralField.from_function(grid64, lambda x, y: np.sin(y))
        state = TcmState.from_fields((shear, zero), (zero, zero), zero)
        m = 1.5
        # |k| = 1 mode: every Lambda power of u has norm sqrt(2 pi^2)
        unit = math.sqrt(TWO_PI_SQ)
        b_hom = Spectra(state).B(params, m, theta_slot="lambda_m")
        assert b_hom == pytest.approx(lam * unit, rel=1e-12)
        b_grad = Spectra(state).B(params, m, theta_slot="grad_hm1")
        assert b_grad == pytest.approx(lam * math.sqrt(2.0) * unit, rel=1e-12)

    def test_bad_slot(self, grid64, params_undamped):
        with pytest.raises(DiagnosticsError):
            Spectra(TcmState.zero(grid64)).B(params_undamped, params_undamped.s, theta_slot="other")


class TestFunctionalXY:
    def test_zero_state(self, grid64, params_undamped):
        spectra = Spectra(TcmState.zero(grid64))
        assert spectra.X(params_undamped, params_undamped.s) == 0.0
        assert spectra.Y(params_undamped, params_undamped.s) == 0.0

    def test_theta_free_state(self, grid64, params_undamped):
        state = make_random_state(grid64, seed=5, amplitude=0.3)
        state.coeffs[ITH] = 0.0
        x = Spectra(state).X(params_undamped, params_undamped.s)
        assert x**2 == pytest.approx(Spectra(state).cross_free_sum_X(params_undamped.s), rel=1e-12)

    def test_equivalence_band(self, grid64):
        params = ModelParams(alpha=0.0, beta=math.sqrt(2.0), s=1.5)  # kappa at its clamp
        for seed in range(5):
            state = make_random_state(grid64, seed=seed, amplitude=0.2)
            x2 = Spectra(state).X(params, params.s) ** 2
            ssum = Spectra(state).cross_free_sum_X(params.s)
            assert 0.5 * x2 <= ssum <= 2.0 * x2

    def test_order_must_exceed_one(self, grid64, params_undamped):
        with pytest.raises(DiagnosticsError):
            Spectra(TcmState.zero(grid64)).X(params_undamped, 1.0)

    def test_alpha_enters_Y(self, grid64):
        state = make_random_state(grid64, seed=11, amplitude=0.2)
        y0 = Spectra(state).Y(ModelParams(alpha=0.0, beta=1.0, s=1.5), 1.5)
        y1 = Spectra(state).Y(ModelParams(alpha=2.0, beta=1.0, s=1.5), 1.5)
        assert y1 > y0


class TestTheoryExponent:
    @pytest.mark.parametrize(
        "field,gamma,damped,expected",
        [
            ("u", 1.0, False, -0.5),
            ("u", 0.0, True, -2.0),
            ("theta", 0.0, False, 0.0),
            ("theta", 0.0, True, 0.0),
            ("v", 1.0, False, -1.0),
            ("v", 1.0, True, -1.0),
            ("theta", 2.0, False, -1.0),
            ("u", 1.0, True, -2.5),
        ],
    )
    def test_table(self, field, gamma, damped, expected):
        assert theory_exponent(field, gamma, damped) == pytest.approx(expected)

    def test_rejects_bad_input(self):
        with pytest.raises(DiagnosticsError):
            theory_exponent("u", -1.0, False)
        with pytest.raises(DiagnosticsError):
            theory_exponent("pressure", 1.0, False)


class TestDecayFit:
    def test_exact_power_law(self):
        ts = np.linspace(1.0, 100.0, 120)
        series = [(t, (1 + t) ** -0.5) for t in ts]
        fit = decay_fit(series, (1.0, 100.0))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        series = [(t, 3.0) for t in np.linspace(0, 50, 60)]
        fit = decay_fit(series, (5.0, 45.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_power_law(self):
        ts = np.linspace(1.0, 200.0, 400)
        series = [(t, 3.0 * (1 + t) ** -1.5 * (1 + 0.01 * np.sin(t))) for t in ts]
        fit = decay_fit(series, (10.0, 190.0))
        assert fit.exponent == pytest.approx(-1.5, abs=0.02)

    @given(c=st.floats(1e-6, 1e6))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, c):
        ts = np.linspace(1.0, 60.0, 80)
        base = [(t, (1 + t) ** -0.8) for t in ts]
        scaled = [(t, c * v) for t, v in base]
        f1 = decay_fit(base, (2.0, 58.0))
        f2 = decay_fit(scaled, (2.0, 58.0))
        assert f2.exponent == pytest.approx(f1.exponent, rel=1e-9, abs=1e-9)

    def test_too_few_samples(self):
        series = [(t, 1.0 / (1 + t)) for t in np.linspace(0, 10, 30)]
        with pytest.raises(DecayFitError):
            decay_fit(series, (4.0, 5.0))

    def test_nonpositive_rejected(self):
        series = [(float(t), 1.0 - 0.1 * t) for t in range(20)]
        with pytest.raises(DecayFitError):
            decay_fit(series, (0.0, 19.0))

    def test_bad_window(self):
        series = [(float(t), 1.0) for t in range(20)]
        with pytest.raises(DecayFitError):
            decay_fit(series, (5.0, 5.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # Without the check a nan or inf sample fits a NaN exponent.
        series = [(t, 1.0 / (1 + t)) for t in np.linspace(0.0, 40.0, 81)]
        series[40] = (series[40][0], bad)
        with pytest.raises(DecayFitError, match="non-finite values in the fit window"):
            decay_fit(series, (10.0, 30.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [40, -1], ids=["in-window", "last"])
    def test_non_finite_time_rejected(self, where, bad):
        # Without the check the window filter drops such a sample unseen.
        series = [(t, 1.0 / (1 + t)) for t in np.linspace(0.0, 40.0, 81)]
        series[where] = (bad, series[where][1])
        with pytest.raises(DecayFitError, match="non-finite times in the series"):
            decay_fit(series, (10.0, 30.0))


@pytest.fixture(scope="module")
def sampled_records():
    grid = SpectralGrid(64, 16 * np.pi)
    params = ModelParams(alpha=0.0, beta=1.0, mu_lower=1.0, s=1.5)
    state = make_random_state(grid, seed=3, amplitude=1.0)
    state.coeffs *= 0.01 / Spectra(state).smallness(params)
    cfg = DiagnosticsConfig(norms=(("theta", 1.0),))
    records = []
    run(
        state,
        params,
        StepperConfig(t_end=10.0, sample_every=0.25),
        lambda s, plan, dt, w, ev: records.append(compute_record(s, plan, cfg, dt, w, ev)),
    )
    return params, records


class TestStabilityDifferentialShadow:
    """Discrete shadow of the Lyapunov differential inequality.

    On a converged small-data run, the finite-difference estimate of
    d/dt A^2 plus the (grad-theta variant) B^2 must stay below
    C (A + A^{s+1}) B^2 with C calibrated on the first quartile of sample
    intervals and then frozen.
    """

    def test_calibrated_constant_never_exceeded(self, sampled_records):
        params, records = sampled_records
        s = params.s
        ratios = []
        for prev, cur in zip(records, records[1:]):
            dt = cur.time - prev.time
            da2 = (cur.A_m**2 - prev.A_m**2) / dt
            b2 = 0.5 * (prev.B_m_gradtheta**2 + cur.B_m_gradtheta**2)
            a_bar = 0.5 * (prev.A_m + cur.A_m)
            ratios.append((da2 + b2) / ((a_bar + a_bar ** (s + 1)) * b2))
        q1 = max(1, len(ratios) // 4)
        c_frozen = max(ratios[:q1])
        assert all(r <= c_frozen for r in ratios[q1:])

    def test_dissipation_dominates(self, sampled_records):
        # The lambda weighting makes B^2 a lower bound for the decay of A^2:
        # each sampled interval must be dissipative.
        _, records = sampled_records
        assert all(cur.A_m <= prev.A_m * (1 + 1e-10) for prev, cur in zip(records, records[1:]))


class TestRecordSerialization:
    def test_csv_and_jsonl_roundtrip(self, grid32, params_undamped):
        state = make_random_state(grid32, seed=2, amplitude=0.01)
        cfg = DiagnosticsConfig(norms=(("u", 1.0), ("theta", 1.5)))
        rec = compute_record(state, Plan(state.grid, params_undamped), cfg, 0.01, 0.0, evaluate(state, params_undamped))
        schema = record_schema(cfg)
        cols = [col.name for col in schema]
        buf = io.StringIO()
        writer = CsvWriter(buf, schema)
        writer.write(rec)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].split(",") == cols
        assert lines[0].startswith("t,u_gamma_1,theta_gamma_1.5,A_m,B_m,X_m,Y_m,cross_s,cross_1,budget_residual")
        values = dict(zip(cols, map(float, lines[1].split(","))))
        assert values["A_m"] == rec.A_m
        assert values["X_m"] == rec.X_m

        jbuf = io.StringIO()
        JsonlWriter(jbuf, schema).write(rec)
        obj = json.loads(jbuf.getvalue())
        assert obj["norms"]["u_gamma_1"] == rec.norms[("u", 1.0)]
        assert obj["budget_residual"] == rec.budget_residual

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"norms": (("u", 1.0), ("u", 1.0))}, "norms entries must be distinct"),
            ({"norms": (("u", 1.0), ("u", 1))}, "norms entries must be distinct"),
            ({"functional_orders": (1.5, 2.0, 2.0)}, "functional_orders entries must be distinct"),
            ({"norms": (("w", 1.0),)}, "u, v, or theta"),
            ({"norms": (("u", -1.0),)}, "gamma must be >= 0"),
        ],
    )
    def test_config_rejects_colliding_columns(self, kwargs, match):
        # Two entries that name one column would repeat it in the CSV header.
        with pytest.raises(ValueError, match=match):
            DiagnosticsConfig(**kwargs)

    @pytest.mark.parametrize("viscosity", ["quadratic", "constant"])
    def test_evaluation_values_are_the_models(self, grid32, viscosity, monkeypatch):
        # The record reads its residual, dissipation and sup norms off the
        # evaluation; each equals the model's value on a fresh plan and
        # evaluation bit for bit.  The residual's <z, Lz> is the evaluation's
        # stiff sum, so the record takes no Parseval dissipation sum of its own.
        import tcm2d.model as model_mod

        params = ModelParams(alpha=0.5, viscosity=viscosity)
        state = make_random_state(grid32, seed=5, amplitude=0.3)
        evaluation = evaluate(state, params)
        sums, real_sum = [], model_mod.parseval_dissipation
        monkeypatch.setattr(model_mod, "parseval_dissipation", lambda *a: sums.append(a) or real_sum(*a))
        rec = compute_record(state, Plan(state.grid, params), DiagnosticsConfig(), 0.01, 0.0, evaluation)
        assert sums == []
        assert rec.budget_residual == budget_residual(state, Plan(state.grid, params), evaluate(state, params))
        assert rec.dissipation == evaluate(state, params).dissipation
        vals = to_phys(state.coeffs, grid32)
        assert rec.linf == {
            "u": float(np.max(np.sqrt(vals[0] ** 2 + vals[1] ** 2))),
            "v": float(np.max(np.sqrt(vals[2] ** 2 + vals[3] ** 2))),
            "theta": float(np.max(np.abs(vals[ITH]))),
        }

    def test_extra_orders_appended(self, grid32):
        params = ModelParams(s=1.5)
        cfg = DiagnosticsConfig(norms=(("u", 1.0),), functional_orders=(1.5, 2.5))
        cols = [col.name for col in record_schema(cfg)]
        assert cols[-4:] == ["A_m_2.5", "B_m_2.5", "X_m_2.5", "Y_m_2.5"]
        state = make_random_state(grid32, seed=2, amplitude=0.01)
        rec = compute_record(state, Plan(state.grid, params), cfg, 0.01, 0.0, evaluate(state, params))
        assert set(rec.extra_orders) == {2.5}

    def test_writers_agree_column_by_column(self, grid32):
        # Extra orders out of ascending order: each CSV column must hold the
        # value its header names, and the JSONL object the same value.
        params = ModelParams(s=1.5)
        cfg = DiagnosticsConfig(norms=(("u", 1.0), ("v", 0.0), ("theta", 2.0)), functional_orders=(1.5, 3.0, 2.0))
        state = make_random_state(grid32, seed=4, amplitude=0.05)
        rec = compute_record(state, Plan(state.grid, params), cfg, 0.01, 0.5, evaluate(state, params))
        schema = record_schema(cfg)
        cbuf, jbuf = io.StringIO(), io.StringIO()
        CsvWriter(cbuf, schema).write(rec)
        JsonlWriter(jbuf, schema).write(rec)
        header, row = (line.split(",") for line in cbuf.getvalue().splitlines())
        assert len(header) == len(row) == len(set(header))
        csv = dict(zip(header, map(float, row)))
        obj = json.loads(jbuf.getvalue())

        def leaves(node):
            for value in node.values():
                yield from leaves(value) if isinstance(value, dict) else (value,)

        # The JSONL values come in the CSV's column order.
        assert list(leaves(obj)) == list(csv.values())

        def jsonl_value(col):
            head, _, order = col.rpartition("_")
            if col in obj:
                return obj.pop(col)
            if col.startswith("linf_"):
                return obj["linf"].pop(col[len("linf_"):])
            if "_gamma_" in col:
                return obj["norms"].pop(col)
            return obj["extra_orders"][order].pop(head)

        for col, value in csv.items():
            assert jsonl_value(col) == value, col
        # Every JSONL value was matched by one CSV column.
        assert obj == {"norms": {}, "linf": {}, "extra_orders": {"3": {}, "2": {}}}
        assert csv["A_m_3"] == Spectra(state).A(params, 3.0)
        assert csv["B_m_3"] == Spectra(state).B(params, 3.0)
        assert csv["X_m_2"] == Spectra(state).X(params, 2.0)
        assert csv["Y_m_2"] == Spectra(state).Y(params, 2.0)


def _hom_sq(fields, gamma):
    return sum(sobolev_norm(f, gamma, homogeneous=True) ** 2 for f in fields)


def _hs_sq(fields, s):
    return sum(sobolev_norm(f, s, homogeneous=False) ** 2 for f in fields)


def _cross(state, order):
    return sum(
        inner_product(lambda_pow(v_i, order - 1.0), lambda_pow(derivative(state.theta, axis), order - 1.0))
        for v_i, axis in zip(state.v, "xy")
    )


def _reference_record(state, params, norms, m0, extra):
    """compute_record's values, each one summed field by field from the spectral module."""
    u, v, th = state.u, state.v, (state.theta,)
    lam, alpha = params.lam, params.alpha

    def sum_a(m):
        return _hom_sq(u, m) + _hom_sq(u, params.delta1) + _hs_sq(v, m) + _hs_sq(th, m)

    def sum_x(m):
        return sum(_hom_sq(f, m) + _hom_sq(f, m - 1.0) for f in (u, v, th))

    def a(m):
        return math.sqrt(sum_a(m) - params.eta * (_cross(state, m) + _cross(state, 1.0)))

    def b(m):
        return lam * math.sqrt(_hom_sq(u, m + 1.0) + _hs_sq(v, m) + _hom_sq(th, m))

    def x(m):
        return math.sqrt(sum_x(m) - params.kappa * _cross(state, m))

    def y(m):
        return math.sqrt(
            _hom_sq(u, m + 1.0) + _hom_sq(u, m) + alpha * _hom_sq(u, m - 1.0)
            + _hom_sq(v, m) + _hom_sq(v, m - 1.0) + _hom_sq(th, m)
        )

    s = params.s
    u_small = _hs_sq(u, s) if params.delta1 == 0 else _hom_sq(u, s) + _hom_sq(u, 1.0)
    fields = {"u": u, "v": v, "theta": th}
    return {
        "norms": {(f, g): math.sqrt(_hom_sq(fields[f], g)) for f, g in norms},
        "A_m": a(m0),
        "B_m": b(m0),
        "X_m": x(m0),
        "Y_m": y(m0),
        "cross_s": _cross(state, m0),
        "cross_1": _cross(state, 1.0),
        "B_m_gradtheta": lam * math.sqrt(
            _hom_sq(u, 1.0) + _hom_sq(u, m0 + 1.0) + _hs_sq(v, m0) + _hom_sq(th, 1.0) + _hom_sq(th, m0)
        ),
        "smallness": math.sqrt(u_small) + math.sqrt(_hs_sq(v, s)) + math.sqrt(_hs_sq(th, s)),
        "energy": 0.5 * sum(inner_product(f, f) for f in (*u, *v, *th)),
        "band_A": sum_a(m0) / a(m0) ** 2,
        "band_X": sum_x(m0) / x(m0) ** 2,
        "extra_orders": {m: (a(m), b(m), x(m), y(m)) for m in extra},
    }


class TestRecordAgainstFieldSums:
    """Every Parseval quantity of a record against field-by-field spectral sums."""

    ORDERS = (1.5, 2.0, 3.0, 4.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    @pytest.mark.parametrize("m0", ORDERS)
    def test_values(self, grid32, alpha, m0):
        params = ModelParams(alpha=alpha, beta=1.0, s=1.5)
        norms = tuple((f, g) for f in ("u", "v", "theta") for g in (0.0, 1.0, 1.5, 2.0))
        extra = tuple(m for m in self.ORDERS if m != m0)
        cfg = DiagnosticsConfig(norms=norms, functional_orders=(m0,) + extra)
        for seed in (0, 1):
            state = make_random_state(grid32, seed=seed, amplitude=0.2)
            rec = compute_record(state, Plan(state.grid, params), cfg, 0.01, 0.0, evaluate(state, params))
            ref = _reference_record(state, params, norms, m0, extra)
            assert rec.norms == pytest.approx(ref.pop("norms"), rel=1e-12)
            for m, values in ref.pop("extra_orders").items():
                assert rec.extra_orders[m] == pytest.approx(values, rel=1e-12), m
            for name, value in ref.items():
                assert getattr(rec, name) == pytest.approx(value, rel=1e-12), name
            assert abs(rec.budget_residual) <= 1e-9 * rec.dissipation

    def test_each_order_row_is_built_once_per_grid(self, monkeypatch):
        # The dense benchmark's record (9 norms, orders 1.5, 2, 3 and 4) reads
        # 23 distinct (field, gamma) norms, 5 cross-term orders and 3 L^2
        # sums, each from the grid's weight row of its order.  The plan and
        # the first record build the rows of the run's grid, one per order,
        # and no later record builds any.  The values are those of a Spectra
        # of the state's own per functional, which finds every row it reads
        # already built.
        builds = []
        real_row = SpectralGrid.weight_row

        def weight_row(grid, gamma):
            if gamma not in grid._weight_rows:
                builds.append((grid, gamma))
            return real_row(grid, gamma)

        monkeypatch.setattr(SpectralGrid, "weight_row", weight_row)
        grid = SpectralGrid(32, 2 * np.pi)
        params = ModelParams(alpha=0.5, beta=1.0, s=1.5, viscosity="constant")
        norms = tuple((f, g) for f in ("u", "v", "theta") for g in (0.0, 1.0, 2.0))
        orders = (1.5, 2.0, 3.0, 4.0)
        cfg = DiagnosticsConfig(norms=norms, functional_orders=orders)
        records, states, built_by_record = [], [], []

        def sink(state, plan, dt, diss_int, evaluation):
            before = len(builds)
            records.append(compute_record(state, plan, cfg, dt, diss_int, evaluation))
            built_by_record.append(len(builds) - before)
            states.append(state)

        run(make_random_state(grid, seed=3, amplitude=0.2), params,
            StepperConfig(t_end=0.05, dt=0.01, sample_every=0.01), sink)
        assert len(records) == 6
        assert built_by_record[0] > 0 and built_by_record[1:] == [0] * 5
        gammas = [gamma for _, gamma in builds]
        assert len(set(gammas)) == len(gammas) and all(g is grid for g, _ in builds)

        del builds[:]
        for rec, state in zip(records, states):
            assert rec.norms == {(f, g): Spectra(state).field_norm(f, g) for f, g in norms}
            for m in orders:
                values = (Spectra(state).A(params, m), Spectra(state).B(params, m),
                          Spectra(state).X(params, m), Spectra(state).Y(params, m))
                recorded = (rec.A_m, rec.B_m, rec.X_m, rec.Y_m) if m == orders[0] else rec.extra_orders[m]
                assert recorded == values, m
            assert (rec.cross_s, rec.cross_1) == (Spectra(state).cross_term(1.5), Spectra(state).cross_term(1.0))
            assert rec.smallness == Spectra(state).smallness(params)
        assert builds == []

    def test_a_record_does_not_depend_on_which_calls_built_the_rows(self):
        # One state on two grids of one size: a fresh grid, whose rows the
        # plan and the record build, and a grid whose rows set-up's smallness
        # norm and an order-3 functional built first.
        params = ModelParams(alpha=0.5, beta=1.0, s=1.5)
        cfg = DiagnosticsConfig(
            norms=tuple((f, g) for f in ("u", "v", "theta") for g in (0.0, 1.0, 2.0)),
            functional_orders=(1.5, 2.0, 3.0, 4.0),
        )
        records = []
        for warm in (False, True):
            grid = SpectralGrid(64, 16 * np.pi)
            state = make_random_state(grid, seed=4, amplitude=0.01)
            if warm:
                Spectra(state).smallness(params)
                Spectra(state).X(params, 3.0)
            records.append(compute_record(state, Plan(grid, params), cfg, 0.01, 0.0, evaluate(state, params)))
        assert records[0] == records[1]

    @pytest.mark.parametrize("viscosity", ["constant", "quadratic"])
    def test_a_record_and_the_step_bound_allocate_no_band_or_grid_array(self, viscosity):
        # After a warm-up record, a record works in the plan's buffers: what it
        # allocates is its Python values, far below the smallest array of the
        # band's size (n band doubles, 44 KiB at n = 128).  So does the step
        # bound with either law: it reads the evaluation's viscosity deviation
        # and does not evaluate mu(theta).
        grid = SpectralGrid(128, 16 * np.pi)
        params = ModelParams(alpha=0.5, viscosity=viscosity)
        plan = Plan(grid, params)
        cfg = DiagnosticsConfig(
            norms=tuple((f, g) for f in ("u", "v", "theta") for g in (0.0, 1.0, 2.0)),
            functional_orders=(1.5, 2.0, 3.0, 4.0),
        )
        state = make_random_state(grid, seed=2, amplitude=0.01)
        coeffs = state.coeffs
        tendency = np.empty_like(coeffs)
        warm = nonlinear_tendency(coeffs, plan, out=tendency)
        compute_record(state, plan, cfg, 0.01, 0.0, warm)
        stable_dt(plan, warm)
        small = grid.n * grid.band * 8
        calls = {
            "record": lambda evaluation: compute_record(state, plan, cfg, 0.01, 0.0, evaluation),
            "bound": lambda evaluation: stable_dt(plan, evaluation),
        }
        # Whichever comes first takes the sup norms, in the plan's scratch rows.
        for order in (("record", "bound"), ("bound", "record")):
            evaluation = nonlinear_tendency(coeffs, plan, out=tendency)
            peaks = {}
            tracemalloc.start()
            try:
                for name in order:
                    tracemalloc.reset_peak()
                    calls[name](evaluation)
                    peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peaks["record"] < small / 4, order
            assert peaks["bound"] < small / 4, order
