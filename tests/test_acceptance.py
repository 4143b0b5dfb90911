"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  The heavy shared trajectories (five seeds, damped and undamped, at
N = 128) are integrated once per session.

The box is periodic while the analytic statements live on the plane; the rate
checks therefore use a calibrated intermediate-time window (documented in the
configs below) and looser absolute tolerances, as declared.
"""

import csv
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from tcm2d.cli import RunResult, execute_run, execute_sweep, execute_validate, parse_run_config, parse_sweep
from tcm2d.integrator import StepperConfig, run
from tcm2d.model import ModelParams, TcmState
from tcm2d.spectral import SpectralField, SpectralGrid

from conftest import make_random_state


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def read_rows(out_dir):
    lines = (Path(out_dir) / "diagnostics.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


STABILITY_DOC = {
    "schema_version": 1,
    "grid": {"n": 128, "box_length": 16 * math.pi},
    "params": {"alpha": 0.0, "beta": 1.0, "mu_lower": 1.0, "s": 1.5},
    "stepper": {"t_end": 20.0, "sample_every": 0.5, "dt": "auto"},
    "epsilon": 0.01,
    "seed": 1,
    "spectrum_peak": 8,
    "spectrum_slope": 1.0,
    "diagnostics": {"norms": [["u", 1.0], ["v", 1.0], ["theta", 1.0]]},
}

SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def stability_runs(tmp_path_factory):
    """Five seeds x {undamped, damped} at N = 128, auto dt, as one sweep
    (criteria 3-5): each cell's summary and directory, keyed (alpha, seed)."""
    root = tmp_path_factory.mktemp("stability")
    doc = {"base": STABILITY_DOC, "axes": {"alpha": [0.0, 0.5], "seed": list(SEEDS)}, "threads": 2}
    base, cells, threads = parse_sweep(doc)
    assert execute_sweep(base, cells, root, threads=threads, quiet=True) == 0
    with open(root / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * len(SEEDS)
    results = {}
    for row in rows:
        assert row["status"] == "completed"
        cell_dir = root / row["cell"]
        summary = json.loads((cell_dir / "summary.json").read_text())
        results[(float(row["alpha"]), int(row["seed"]))] = RunResult(0, cell_dir, summary)
    return results


@pytest.fixture(scope="session")
def budget_run(tmp_path_factory):
    """The energy-identity run: fixed dt small enough that the fourth-order
    dissipation quadrature resolves the cumulative budget to 1e-6 (criterion 2)."""
    doc = json.loads(json.dumps(STABILITY_DOC))
    doc["stepper"]["dt"] = 0.02
    out = tmp_path_factory.mktemp("budget") / "run"
    res = execute_run(parse_run_config(doc), out, quiet=True)
    assert res.summary["status"] == "completed"
    return res


class TestCriterion1:
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_shear_mode_exact_decay(self, alpha):
        with criterion(1, f"exact shear-mode decay, alpha={alpha}"):
            grid = SpectralGrid(64, 2 * math.pi)
            params = ModelParams(alpha=alpha, beta=1.0, mu_lower=1.0, viscosity="constant")
            zero = SpectralField.zero(grid)
            shear = SpectralField.from_function(grid, lambda x, y: np.sin(y))
            state = TcmState.from_fields((shear, zero), (zero, zero), zero)
            t0 = time.time()
            out = run(state, params, StepperConfig(t_end=1.0, dt=1e-3, sample_every=1.0))
            elapsed = time.time() - t0
            yy = grid.coords()[1]
            envelope = math.exp(-(1.0 + alpha))
            rel = np.max(np.abs(out.u[0].values() - envelope * np.sin(yy))) / envelope
            print(f"  rel error {rel:.3e}, runtime {elapsed:.1f} s")
            assert rel <= 1e-7
            assert elapsed < 10.0


class TestCriterion2:
    def test_energy_identity(self, budget_run):
        with criterion(2, "energy identity: instantaneous and cumulative"):
            rows = read_rows(budget_run.out_dir)
            worst = max(abs(r["budget_residual"]) / r["dissipation"] for r in rows)
            drift = rows[-1]["energy"] - rows[0]["energy"]
            integral = rows[-1]["diss_integral"]
            mismatch = abs(drift + integral) / integral
            print(f"  worst residual/dissipation {worst:.3e}, cumulative mismatch {mismatch:.3e}")
            assert worst <= 1e-9
            assert mismatch <= 1e-6
            assert budget_run.summary["budget"] == {"worst_residual_ratio": worst, "cumulative_mismatch": mismatch}


class TestCriterion3:
    def test_stability_envelope(self, stability_runs, budget_run):
        with criterion(3, "stability envelope sup < 2 epsilon, 5 seeds, both cases"):
            runs = list(stability_runs.values()) + [budget_run]
            for res in runs:
                stab = res.summary["stability"]
                assert stab["verdict"] == "pass", res.out_dir
                assert stab["sup_norm_sum"] < stab["bound"]
            sups = [r.summary["stability"]["sup_norm_sum"] for r in runs]
            print(f"  sup norm sums: max {max(sups):.4e} < bound 2e-2")


class TestCriterion4:
    def test_x2_monotonicity(self, stability_runs, budget_run):
        with criterion(4, "X^2 nonincreasing between samples, zero violations"):
            for res in list(stability_runs.values()) + [budget_run]:
                mono = res.summary["x2_monotonicity"]
                assert mono["verdict"] == "pass", res.out_dir
                assert mono["violations"] == 0
            print("  zero violations across 11 runs")

    @pytest.mark.parametrize("epsilon, verdict, violations", [(1000.0, "fail", 2), (0.01, "pass", 0)])
    def test_x2_verdict_negative_control(self, tmp_path, epsilon, verdict, violations):
        # Far outside the small-data regime X^2 grows between samples and the
        # verdict must say so, while the energy budget still closes; the same
        # configuration with small data passes.
        doc = dict(
            STABILITY_DOC,
            grid={"n": 64, "box_length": 16 * math.pi},
            params={"alpha": 0.0, "beta": 1.0, "mu_lower": 1.0, "s": 1.5, "viscosity": "constant"},
            stepper={"t_end": 1.0, "sample_every": 0.5, "dt": "auto"},
            epsilon=epsilon,
        )
        summary = execute_run(parse_run_config(doc), tmp_path).summary
        assert summary["status"] == "completed"
        mono = summary["x2_monotonicity"]
        assert (mono["verdict"], mono["violations"], mono["intervals"]) == (verdict, violations, 2)
        assert summary["budget"]["cumulative_mismatch"] <= 1e-6


class TestCriterion5:
    def test_equivalence_bands(self, stability_runs, budget_run):
        with criterion(5, "equivalence bands for A and X at every sample"):
            lo_a, hi_a, lo_x, hi_x = np.inf, 0.0, np.inf, 0.0
            for res in list(stability_runs.values()) + [budget_run]:
                bands = res.summary["bands"]
                lo_a = min(lo_a, bands["A"]["min_ratio"])
                hi_a = max(hi_a, bands["A"]["max_ratio"])
                lo_x = min(lo_x, bands["X"]["min_ratio"])
                hi_x = max(hi_x, bands["X"]["max_ratio"])
            print(f"  sum/A^2 in [{lo_a:.4f}, {hi_a:.4f}]; sum/X^2 in [{lo_x:.4f}, {hi_x:.4f}]")
            assert 0.75 <= lo_a and hi_a <= 1.25
            assert 0.5 <= lo_x and hi_x <= 2.0


RATE_DOC = {
    "schema_version": 1,
    "base": {
        "grid": {"n": 64, "box_length": 16 * math.pi},
        # beta = 8 slows the slaved temperature branch so the fit window
        # [t_end/4, 3 t_end/4] precedes box-gap saturation; mu_lower = 0.25
        # does the same for the barotropic mode.
        "params": {"alpha": 0.0, "beta": 8.0, "mu_lower": 0.25, "s": 1.5},
        "stepper": {"t_end": 100.0, "sample_every": 1.0, "dt": "auto"},
        "epsilon": 0.01,
        "seed": 2,
        "spectrum_peak": 8,
        "spectrum_slope": 1.0,
        "diagnostics": {"norms": [["u", 1.0], ["v", 1.0], ["theta", 1.0]]},
    },
    "axes": {"alpha": [0.0, 0.5]},
}


class TestCriterion6:
    def test_rate_ordering_and_gaps(self, tmp_path_factory):
        with criterion(6, "decay-rate ordering and damping gap at gamma = 1"):
            out = tmp_path_factory.mktemp("rates")
            base, cells, _ = parse_sweep(json.loads(json.dumps(RATE_DOC)))
            assert execute_sweep(base, cells, out, threads=2, quiet=True) == 0
            exps = {}
            for cell_dir in (p for p in out.iterdir() if p.is_dir()):
                summary = json.loads((cell_dir / "summary.json").read_text())
                alpha = json.loads((cell_dir / "manifest.json").read_text())["config"]["params"]["alpha"]
                for f in summary["fits"]:
                    assert f["status"] == "ok"
                    exps[(alpha, f["field"])] = f["exponent"]
            for alpha in (0.0, 0.5):
                th, v = exps[(alpha, "theta")], exps[(alpha, "v")]
                print(f"  alpha={alpha}: u {exps[(alpha, 'u')]:+.3f}  v {v:+.3f}  theta {th:+.3f}")
                assert v <= th - 0.3                      # theory gap -0.5
                assert abs(th - (-0.5)) <= 0.4 * 0.5      # +-40% of -1/2
                assert abs(v - (-1.0)) <= 0.4 * 1.0       # +-40% of -1
            assert exps[(0.5, "u")] <= exps[(0.0, "u")] - 1.0  # theory gap -2


class TestCriterion7:
    def test_inequality_lab(self):
        with criterion(7, "inequality lab stable, interpolation constant exact"):
            t0 = time.time()
            code, reports = execute_validate(trials=500, resolutions=[64, 128], seed=0, quiet=True)
            elapsed = time.time() - t0
            by_name = {r.name: r for r in reports}
            print(f"  exit {code}, runtime {elapsed:.1f} s, "
                  f"interp worst {by_name['interpolation-exact'].worst_ratio!r}")
            assert code == 0
            assert by_name["interpolation-exact"].trials >= 500
            assert by_name["interpolation-exact"].worst_ratio <= 1.0 + 1e-12
            assert by_name["kato-ponce"].stable
            assert by_name["composition-quadratic"].stable
            assert elapsed < 60.0


class TestCriterion8:
    def test_self_convergence(self):
        with criterion(8, "self-convergence orders and cross-scheme agreement"):
            grid = SpectralGrid(32, 2 * math.pi)
            params = ModelParams(alpha=0.0, beta=1.0, mu_lower=1.0)
            initial = make_random_state(grid, seed=10, amplitude=0.5)

            finals_rk4 = {}
            for dt in (4e-3, 2e-3, 1e-3):
                finals_rk4[dt] = run(initial, params, StepperConfig(t_end=0.2, dt=dt)).coeffs
            e_rk4 = [
                np.max(np.abs(finals_rk4[4e-3] - finals_rk4[2e-3])),
                np.max(np.abs(finals_rk4[2e-3] - finals_rk4[1e-3])),
            ]
            order_rk4 = math.log2(e_rk4[0] / e_rk4[1])

            finals_imex = {}
            for dt in (1e-3, 5e-4, 2.5e-4):
                finals_imex[dt] = run(
                    initial, params, StepperConfig(t_end=0.2, dt=dt, scheme="imex-euler")
                ).coeffs
            e_imex = [
                np.max(np.abs(finals_imex[1e-3] - finals_imex[5e-4])),
                np.max(np.abs(finals_imex[5e-4] - finals_imex[2.5e-4])),
            ]
            order_imex = math.log2(e_imex[0] / e_imex[1])

            cross = np.max(np.abs(finals_rk4[1e-3] - finals_imex[2.5e-4]))
            bars = 3.0 * (e_rk4[1] + e_imex[1])
            print(f"  if-rk4 order {order_rk4:.2f}, imex-euler order {order_imex:.2f}, "
                  f"cross {cross:.3e} vs bars {bars:.3e}")
            assert order_rk4 >= 3.7
            assert order_imex >= 0.9
            assert cross <= bars


class TestCriterion9:
    def test_byte_identical_reruns(self, tmp_path_factory):
        with criterion(9, "byte-identical diagnostics for identical config"):
            doc = json.loads(json.dumps(STABILITY_DOC))
            doc["grid"]["n"] = 64
            doc["stepper"]["t_end"] = 2.0
            root = tmp_path_factory.mktemp("determinism")
            blobs = []
            for name in ("first", "second"):
                res = execute_run(parse_run_config(doc), root / name, quiet=True)
                assert res.exit_code == 0
                blobs.append((root / name / "diagnostics.csv").read_bytes())
            assert blobs[0] == blobs[1]
            print(f"  {len(blobs[0])} bytes, identical")
