"""CLI and experiment-runner tests: config validation, artifacts, exit codes."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tcm2d.cli import (
    ConfigError,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_DT_FLOOR,
    EXIT_ERROR,
    EXIT_IO,
    EXIT_NONPOSITIVE,
    EXIT_UNSTABLE,
    RunConfig,
    execute_fit,
    execute_run,
    load_run_config,
    main,
    make_initial_data,
    parse_run_config,
    parse_sweep,
)
from tcm2d import cli as cli_mod
from tcm2d.diagnostics import CsvWriter, DiagnosticsConfig, DiagnosticsError, Spectra, compute_record
from tcm2d.model import default_eta, default_kappa, derive_delta1, derive_lambda
from tcm2d.spectral import SpectralGrid

from conftest import make_random_state

SMALL_DOC = {
    "schema_version": 1,
    "grid": {"n": 32, "box_length": 2 * math.pi},
    "params": {"alpha": 0.0, "beta": 1.0, "mu_lower": 1.0, "s": 1.5},
    "stepper": {"t_end": 0.5, "sample_every": 0.1, "dt": "auto"},
    "epsilon": 0.01,
    "seed": 42,
    "spectrum_peak": 4,
    "diagnostics": {"norms": [["u", 1.0], ["v", 1.0], ["theta", 1.0]]},
}


def floor_state(config):
    """test_integrator's floor state in place of the config's initial data: its auto step is DT_FLOOR."""
    return make_random_state(SpectralGrid(64, 2 * math.pi), seed=4, amplitude=1e12)


ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def load_module(path):
    """Import a file that is not in a package (a benchmark module)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_configs(doc):
    base, cells, _ = parse_sweep(doc)
    return [base] + [config for _, config in cells]


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_run_config({})
        assert cfg.n == 128
        assert cfg.epsilon == 0.01
        assert cfg.stepper.scheme == "if-rk4"

    def test_error_names_field(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_run_config({"params": {"beta": -1.0}})
        with pytest.raises(ConfigError, match="grid.n"):
            parse_run_config({"grid": {"n": 31}})
        with pytest.raises(ConfigError, match="epsilon"):
            parse_run_config({"epsilon": 0.0})

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"epsilon": -1.0}, "epsilon must be a finite number > 0"),
            ({"epsilon": math.inf}, "epsilon must be a finite number > 0"),
            ({"epsilon": math.nan}, "epsilon must be a finite number > 0"),
            ({"n": 6}, "n must be an even integer >= 8"),
            ({"n": 33}, "n must be an even integer >= 8"),
            ({"box_length": math.inf}, "box_length must be a finite number > 0"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"spectrum_peak": 0}, "spectrum_peak must be >= 1"),
            ({"spectrum_slope": math.inf}, "spectrum_slope must be finite"),
            ({"diagnostics": DiagnosticsConfig(functional_orders=(1.2,))}, r"functional_orders entries must be >= s = 1.5"),
        ],
    )
    def test_a_config_built_in_python_gets_the_documents_checks(self, change, match):
        # Unchecked, each of these would start a run instead of failing here.
        with pytest.raises(ValueError, match=match):
            replace(RunConfig(), **change)

    def test_functional_order_cap(self):
        with pytest.raises(ConfigError, match="capped"):
            parse_run_config({"diagnostics": {"functional_orders": [6.0]}})
        with pytest.raises(ConfigError, match=">= s"):
            parse_run_config({"diagnostics": {"functional_orders": [1.2]}})
        with pytest.raises(ConfigError, match="functional_orders entries must be distinct"):
            parse_run_config({"diagnostics": {"functional_orders": [1.5, 2.0, 2.0]}})
        with pytest.raises(ConfigError, match="norms entries must be distinct"):
            parse_run_config({"diagnostics": {"norms": [["u", 1.0], ["v", 1.0], ["u", 1]]}})

    def test_roundtrip_through_dict(self):
        # SMALL_DOC and the benchmark's workload documents.
        workloads = load_module(ROOT / "perfbench" / "workloads.py")
        configs = [parse_run_config(SMALL_DOC)]
        for kind, seed, build in workloads.WORKLOADS.values():
            configs += sweep_configs(build(seed)) if kind == "sweep" else [parse_run_config(build(seed))]
        assert len(configs) == 1 + 2 + 3
        for cfg in configs:
            again = parse_run_config(cfg.to_dict())
            assert again == cfg

    def test_experiment_documents(self):
        # Every checked-in experiment is a sweep document that `tcm2d sweep --config`
        # runs as it is; the worker count and the output directory are the caller's.
        paths = sorted((ROOT / "experiments").glob("*.json"))
        assert {"rates.json", "stability.json"} <= {path.name for path in paths}
        for path in paths:
            doc = cli_mod._load_json(path)
            configs = sweep_configs(doc)
            assert "threads" not in doc and configs[0].output_dir is None, path.name
            for cfg in configs:
                assert parse_run_config(cfg.to_dict()) == cfg, path.name

    def test_readme_block_is_the_defaults(self):
        # The README's run-configuration block says "defaults shown".
        section = (ROOT / "README.md").read_text().split("### Run configuration", 1)[1]
        block = section.split("```json", 1)[1].split("```", 1)[0]
        assert parse_run_config(json.loads(block)) == replace(RunConfig(), output_dir="results/run1")

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("run", {"params": dict(SMALL_DOC["params"], beta="abc")}, "params.beta"),
            ("run", {"epsilon": None}, "epsilon"),
            ("run", {"grid": dict(SMALL_DOC["grid"], box_length="x")}, "grid.box_length"),
            ("run", {"diagnostics": {"norms": [["u"]]}}, "diagnostics.norms"),
            ("run", {"seed": True}, "seed"),
            ("run", {"seed": -1}, "seed"),
            ("run", {"schema_version": True}, "schema_version"),
            ("sweep", {"threads": "x"}, "threads"),
            ("sweep", {"axes": {"alpha": ["x"]}}, "params.alpha"),
            # json reads NaN, Infinity and integers past the float range; json.dumps writes them.
            ("run", {"params": dict(SMALL_DOC["params"], alpha=math.nan)}, "params.alpha"),
            ("run", {"stepper": dict(SMALL_DOC["stepper"], t_end=math.inf)}, "stepper.t_end"),
            ("run", {"diagnostics": {"norms": [["u", math.inf]]}}, "diagnostics.norms"),
            ("sweep", {"axes": {"alpha": [math.nan]}}, "params.alpha"),
            ("run", {"params": dict(SMALL_DOC["params"], alpha=10**400)}, "params.alpha"),
            # Too small for a draw with a mode past the mean.
            ("run", {"grid": {"n": 6}}, "grid.n"),
        ],
    )
    def test_malformed_value_exit_2(self, tmp_path, capsys, command, doc, key):
        # A value of the wrong type, or out of range, is a config error that names its key.
        if command == "run":
            doc = dict(SMALL_DOC, **doc)
        else:
            doc = dict({"schema_version": 1, "base": SMALL_DOC, "axes": {"alpha": [0.0]}}, **doc)
        path = write_config(tmp_path, doc)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "--threads", "0"], "--threads"),
            (["sweep", "--threads", "-1"], "--threads"),
            (["validate", "--resolutions", "63"], "--resolutions"),
            (["validate", "--resolutions", ""], "--resolutions"),
            (["validate", "--resolutions", "64,x"], "--resolutions"),
            (["validate", "--seed", "-1"], "--seed"),
            (["validate", "--resolutions", "6,16"], "--resolutions"),
            (["validate", "--resolutions", "32,32"], "--resolutions"),
            (["validate", "--trials", "0"], "--trials"),
        ],
    )
    def test_malformed_flag_exit_2(self, tmp_path, capsys, argv, flag):
        # A flag gets the check of its config twin: exit 2, naming the flag, before anything is written.
        path = write_config(tmp_path, {"schema_version": 1, "base": SMALL_DOC, "axes": {"alpha": [0.0]}})
        out = tmp_path / "o"
        config = ["--config", str(path)] if argv[0] == "sweep" else []
        assert main([*argv, *config, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_invalid_json_sweep_file_names_it(self, tmp_path, capsys):
        path = tmp_path / "bad_sweep.json"
        path.write_text("{not json")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        assert f"config file {path}: invalid JSON" in capsys.readouterr().err


class TestMakeInitialData:
    def test_norm_scaled_to_epsilon(self):
        cfg = parse_run_config(SMALL_DOC)
        state = make_initial_data(cfg)
        assert Spectra(state).smallness(cfg.params) == pytest.approx(0.01, rel=1e-12)

    def test_damped_norm_variant(self):
        doc = dict(SMALL_DOC, params=dict(SMALL_DOC["params"], alpha=0.5))
        cfg = parse_run_config(doc)
        state = make_initial_data(cfg)
        assert Spectra(state).smallness(cfg.params) == pytest.approx(0.01, rel=1e-12)

    def test_deterministic(self):
        cfg = parse_run_config(SMALL_DOC)
        a = make_initial_data(cfg)
        b = make_initial_data(cfg)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_divergence_free(self):
        cfg = parse_run_config(SMALL_DOC)
        state = make_initial_data(cfg)
        g = state.grid
        div = 1j * (g.kx * state.coeffs[0] + g.ky[:, : g.band] * state.coeffs[1])
        scale = np.sqrt(np.sum(np.abs(state.coeffs[0:2]) ** 2))
        assert np.max(np.abs(div)) <= 1e-13 * scale

    def test_a_zero_draw_raises(self, monkeypatch):
        # One draw per seed: a zero state is an error, not a retry with seed + 1.
        monkeypatch.setattr(cli_mod, "random_coeffs", lambda grid, rng, amp, width: np.zeros((grid.n, width), complex))
        with pytest.raises(RuntimeError, match="zero"):
            make_initial_data(parse_run_config(SMALL_DOC))

    def test_set_up_holds_no_full_width_complex_array(self, monkeypatch):
        # The benchmark's stability-n128 run.  Set-up holds the grid's tables
        # and the (5, n, band) state throughout; on top of them each stretch
        # may hold only its own work, traced call by call:
        #   random_coeffs         its (n, band) complex result, or before it
        #                         one (n, n/2+1) float standard normal at a
        #                         time, with its box arrays: the complex
        #                         (2 cut + 1, cut + 1) box and three float ones
        #                         (the real and imaginary draws and |k|), 43 x
        #                         22 modes here, 15 KB complex;
        #   leray_project_coeffs  four (n, band) complex temporaries;
        #   Spectra               its four power rows and their scratch, eight
        #                         (n, band) float rows (the scratch is freed on
        #                         return);
        #   Spectra.smallness     the four power rows and the two or three
        #                         (n, band) float weight rows it reads, which
        #                         the grid builds and keeps for the run (the
        #                         temporary Spectra is dropped when the call
        #                         returns, and its power rows with it);
        #   between the calls     the results of the last call, not yet copied
        #                         into the state: at most the projection's two
        #                         (n, band) complex arrays, or the four power
        #                         rows; the in-place rescale that ends set-up
        #                         counts here and holds only the weight rows.
        # slack is ufunc and einsum buffers, index arrays and Python objects:
        # 48 KiB, which also covers the box arrays where they are not counted,
        # and 16 KiB in random_coeffs.  Measured with numpy 2.4, each stretch's
        # peak sits 41 to 86 KB below its bound, under the 133 KB of one
        # full-width complex array, so such an array alive at a stretch's peak
        # breaks that stretch's bound.  random_coeffs peaks 7.8 KB below its
        # bound, under the 45 KB by which a full-width draw outweighs the band
        # result, so a full-width draw there breaks it even when it is sliced
        # to the band at once: drawn full width and sliced by the caller, or
        # written into a full-width array and returned as a slice of it.
        doc = {
            "grid": {"n": 128, "box_length": 16.0 * math.pi},
            "params": {"alpha": 0.0, "beta": 1.0, "mu_lower": 1.0, "s": 1.5, "viscosity": "quadratic"},
            "stepper": {"scheme": "if-rk4", "dt": "auto", "t_end": 3.0, "sample_every": 0.5},
            "epsilon": 0.01, "seed": 1, "spectrum_peak": 8,
        }
        cfg = parse_run_config(doc)
        grid = SpectralGrid(cfg.n, cfg.box_length)
        n, band, half = grid.n, grid.band, grid.n // 2 + 1
        tables = sum(a.nbytes for a in (grid.kx, grid.ky, grid.k2, grid.kmag, grid.inv_k2, grid.dealias_mask))
        held = tables + 5 * n * band * 16
        cut = (band - 1) // 2  # random_coeffs' default band_cut
        box = (2 * cut + 1) * (cut + 1) * 16
        own_work = {
            "between calls": 2 * n * band * 16,
            "random_coeffs": max(n * band * 16, n * half * 8) + box + 3 * box // 2,
            "leray_project_coeffs": 4 * n * band * 16,
            "Spectra": 8 * n * band * 8,
            "Spectra.smallness": 7 * n * band * 8,
        }
        slack = dict.fromkeys(own_work, 48 * 1024)
        slack["random_coeffs"] = 16 * 1024
        peaks = dict.fromkeys(own_work, 0)

        def traced(name, fn):
            def call(*args, **kwargs):
                peaks["between calls"] = max(peaks["between calls"], tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                result = fn(*args, **kwargs)
                peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                return result
            return call

        make_initial_data(cfg)  # imports and first-call caches outside the trace
        for name in ("random_coeffs", "leray_project_coeffs"):
            monkeypatch.setattr(cli_mod, name, traced(name, getattr(cli_mod, name)))

        traced_smallness = traced("Spectra.smallness", Spectra.smallness)

        class TracedSpectra(Spectra):
            __init__ = traced("Spectra", Spectra.__init__)

            def smallness(self, params):
                # make_initial_data never reads its Spectra again: free the
                # power rows before the peak of the next stretch is reset.
                norm = traced_smallness(self, params)
                self.power = None
                tracemalloc.reset_peak()
                return norm

        monkeypatch.setattr(cli_mod, "Spectra", TracedSpectra)
        tracemalloc.start()
        try:
            make_initial_data(cfg)
            peaks["between calls"] = max(peaks["between calls"], tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        for name, work in own_work.items():
            assert peaks[name] <= held + work + slack[name], (name, peaks[name] - held)
        assert max(slack.values()) < n * half * 16


class TestRunCommand:
    def test_artifacts_and_exit_zero(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_DOC)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert code == 0
        for name in ("manifest.json", "diagnostics.csv", "diagnostics.jsonl", "summary.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        p = parse_run_config(SMALL_DOC).params
        assert manifest["derived"]["lambda"] == derive_lambda(p.alpha, p.beta, p.mu_lower)
        assert manifest["derived"]["delta1"] == derive_delta1(p.alpha)
        assert manifest["derived"]["eta"] == p.eta
        assert manifest["derived"]["kappa"] == p.kappa
        jsonl = (out / "diagnostics.jsonl").read_text().strip().splitlines()
        csv = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(jsonl) == len(csv) - 1

    def test_config_error_exit_2(self, tmp_path):
        for change in (
            {"params": dict(SMALL_DOC["params"], beta=-2.0)},
            # A gauss-bump law with a negative amplitude dips below mu_lower at theta = 0.
            {"params": dict(SMALL_DOC["params"], viscosity="gauss-bump", viscosity_a=-0.5)},
            {"diagnostics": dict(SMALL_DOC["diagnostics"], functional_orders=[1.5, 2.0, 2.0])},
            # Misspelt keys, in every section and at the top level.
            {"grid": {"N": 64}},
            {"stepper": {"dtt": 0.1}},
            {"epsilson": 5},
            {"diagnostics": {"norm": [["u", 1.0]]}},
            {"grid": 64},
        ):
            cfg_path = write_config(tmp_path, dict(SMALL_DOC, **change))
            code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
            assert code == EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_blow_up_exit_3_and_recorded(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_DOC))
        doc["epsilon"] = 50.0
        doc["stepper"]["dt"] = 0.5  # far above the stable bound: genuine blow-up
        doc["stepper"]["t_end"] = 20.0
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert code == EXIT_BLOWUP
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "blow-up"
        assert manifest["blow_up_time"] > 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "blow-up"

    def test_dt_floor_exit_8_and_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod, "make_initial_data", floor_state)
        cfg_path = write_config(tmp_path, dict(SMALL_DOC, grid={"n": 64, "box_length": 2 * math.pi}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_DT_FLOOR
        manifest = json.loads((out / "manifest.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert manifest["status"] == summary["status"] == "dt-floor"
        assert manifest["dt_floor_time"] == summary["dt_floor_time"] == 0.0
        assert summary["fits"] == []
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0.0,")

    def test_imex_euler_auto_dt_rejected(self, tmp_path, capsys):
        # With the if-rk4 bound (dt ~ 0.016 here, against beta/kmax^2 ~ 1.1e-3)
        # this run left imex-euler's stability region: the smallness norm grew
        # from 1e-2 to 3e2 while the run still reported "completed".
        doc = dict(
            SMALL_DOC,
            grid={"n": 64, "box_length": 2 * math.pi},
            stepper={"scheme": "imex-euler", "dt": "auto", "t_end": 8.0, "sample_every": 0.5},
        )
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert code == EXIT_CONFIG
        assert "imex-euler" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exc", [DiagnosticsError("bad record"), KeyboardInterrupt()])
    def test_raising_run_finalizes_manifest(self, tmp_path, monkeypatch, exc):
        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_mod, "compute_record", raising)
        out = tmp_path / "o"
        # A run failure is returned with its exit code; anything else is re-raised.
        if isinstance(exc, Exception):
            assert execute_run(parse_run_config(SMALL_DOC), out).exit_code == EXIT_ERROR
        else:
            with pytest.raises(type(exc)):
                execute_run(parse_run_config(SMALL_DOC), out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["finished_at"] is not None
        assert manifest["error"].startswith(type(exc).__name__)
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"status": "error", "error": manifest["error"]}

    def test_raising_run_exit_7(self, tmp_path, monkeypatch, capsys):
        def raising(*args, **kwargs):
            raise DiagnosticsError("bad record")

        monkeypatch.setattr(cli_mod, "compute_record", raising)
        cfg_path = write_config(tmp_path, SMALL_DOC)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert "DiagnosticsError: bad record" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "error"

    def test_io_error_recorded(self, tmp_path, monkeypatch):
        class FailingCsvWriter(CsvWriter):
            def write(self, rec):
                raise OSError("disk full")

        monkeypatch.setattr(cli_mod, "CsvWriter", FailingCsvWriter)
        cfg_path = write_config(tmp_path, SMALL_DOC)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_IO
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["finished_at"] is not None
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"status": "io-error", "error": "OSError: disk full"}
        assert (manifest["status"], manifest["error"]) == (summary["status"], summary["error"])

    def test_each_state_evaluated_once(self, tmp_path, monkeypatch):
        # Counted at the module attributes a span tracer wraps.  With every
        # step sampled, an if-rk4 step evaluates its stages 2-4 and the new
        # state, whose evaluation the step bound, the record and the next
        # step's stage 1 share: 4 N + 1 evaluations for N steps.  The bound is
        # taken once per state stepped from (N times), and no inverse
        # transform runs outside the tendency.
        from tcm2d import integrator, model, spectral

        calls = {"nonlinear_tendency": 0, "step": 0, "stable_dt": 0, "compute_record": 0, "irfft2": 0}
        inside = []

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                inside.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    inside.pop()

            monkeypatch.setattr(owner, name, counted)

        for owner, name in ((integrator, "nonlinear_tendency"), (model, "nonlinear_tendency"),
                            (integrator, "step"), (integrator, "stable_dt"), (cli_mod, "compute_record")):
            count(owner, name)
        irfft2 = spectral._fft.irfft2

        def irfft2_outside_tendency(*args, **kwargs):
            calls["irfft2"] += "nonlinear_tendency" not in inside
            return irfft2(*args, **kwargs)

        monkeypatch.setattr(spectral._fft, "irfft2", irfft2_outside_tendency)
        doc = dict(SMALL_DOC, stepper={"t_end": 0.1, "sample_every": 1e-3, "dt": "auto"})
        assert execute_run(parse_run_config(doc), tmp_path / "o").exit_code == 0
        n_steps = calls["step"]
        assert n_steps >= 2
        assert calls == {
            "nonlinear_tendency": 4 * n_steps + 1,
            "step": n_steps,
            "stable_dt": n_steps,
            "compute_record": n_steps + 1,
            "irfft2": 0,
        }

    def test_budget_block(self, tmp_path):
        # summary.json's budget block is read off the records the CSV holds;
        # with t_end = 0 nothing is integrated, so the cumulative ratio is null.
        res = execute_run(parse_run_config(SMALL_DOC), tmp_path / "o")
        lines = (tmp_path / "o" / "diagnostics.csv").read_text().strip().splitlines()
        rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
        integral = rows[-1]["diss_integral"]
        assert res.summary["budget"] == {
            "worst_residual_ratio": max(abs(r["budget_residual"]) / r["dissipation"] for r in rows),
            "cumulative_mismatch": abs(rows[-1]["energy"] - rows[0]["energy"] + integral) / integral,
        }
        doc = dict(SMALL_DOC, stepper={"t_end": 0.0, "sample_every": 0.1, "dt": "auto"})
        budget = execute_run(parse_run_config(doc), tmp_path / "z").summary["budget"]
        assert budget["cumulative_mismatch"] is None
        assert budget["worst_residual_ratio"] <= 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_DOC)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
            outs.append((out / "diagnostics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_reruns_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # No sum of a record takes its order from the number of BLAS threads:
        # in fresh interpreters, 1 and 2 threads write the same bytes.
        cfg_path = write_config(tmp_path, SMALL_DOC)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "tcm2d", "run", "--config", str(cfg_path), "--out", str(out), "--quiet"],
                env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "diagnostics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_data(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_DOC)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(a), "--quiet"]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(b), "--seed", "43", "--quiet"]) == 0
        assert (a / "diagnostics.csv").read_bytes() != (b / "diagnostics.csv").read_bytes()

    def test_seed_override_is_read_like_the_config(self, tmp_path, capsys):
        # The flag's value goes through the config's seed reader: a negative
        # seed is a config error that names the key, and nothing runs.
        cfg_path = write_config(tmp_path, SMALL_DOC)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "-1", "--quiet"]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("TCM_OUT_DIR", str(out))
        cfg_path = write_config(tmp_path, SMALL_DOC)
        assert main(["run", "--config", str(cfg_path), "--quiet"]) == 0
        assert (out / "summary.json").exists()


class TestSweepCommand:
    def test_one_by_one_equals_run(self, tmp_path):
        sweep = {"schema_version": 1, "base": SMALL_DOC, "axes": {"alpha": [0.0]}}
        sweep_path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(sweep_path), "--out", str(out), "--quiet"]) == 0
        cells = [p for p in out.iterdir() if p.is_dir()]
        assert len(cells) == 1
        run_out = tmp_path / "single"
        cfg_path = write_config(tmp_path, SMALL_DOC)
        assert main(["run", "--config", str(cfg_path), "--out", str(run_out), "--quiet"]) == 0
        assert (cells[0] / "diagnostics.csv").read_bytes() == (run_out / "diagnostics.csv").read_bytes()

    def test_two_by_two_product(self, tmp_path):
        sweep = {
            "schema_version": 1,
            "base": SMALL_DOC,
            "axes": {"alpha": [0.0, 0.5], "seed": [1, 2]},
        }
        sweep_path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(sweep_path), "--out", str(out), "--quiet"]) == 0
        cells = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert cells == [
            "cell_0000__alpha_0__seed_1", "cell_0001__alpha_0__seed_2",
            "cell_0002__alpha_0.5__seed_1", "cell_0003__alpha_0.5__seed_2",
        ]
        agg = (out / "aggregate.csv").read_text().strip().splitlines()
        assert len(agg) == 5  # header + one row per cell
        assert agg[0] == (
            "cell,alpha,beta,epsilon,s,n,seed,status,"
            + ",".join(f"{k}_{f}_gamma_1" for f in ("u", "v", "theta") for k in ("exp", "theory", "r2"))
            + ",stability,sup_over_eps,x2_violations"
        )
        for row in csv.DictReader(agg):
            summary = json.loads((out / row["cell"] / "summary.json").read_text())
            assert row["status"] == summary["status"] == "completed"
            assert row["stability"] == summary["stability"]["verdict"] == "pass"
            assert row["sup_over_eps"] == repr(summary["stability"]["sup_norm_sum"] / summary["epsilon"])
            assert row["x2_violations"] == repr(summary["x2_monotonicity"]["violations"])

    def test_raising_cell_recorded_and_aggregate_written(self, tmp_path, monkeypatch):
        def raising_when_damped(state, plan, *args, **kwargs):
            if plan.params.alpha > 0:
                raise DiagnosticsError("bad record")
            return compute_record(state, plan, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "compute_record", raising_when_damped)
        sweep = {"schema_version": 1, "base": SMALL_DOC, "axes": {"alpha": [0.0, 0.5]}}
        sweep_path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(sweep_path), "--out", str(out), "--quiet"]) == EXIT_ERROR
        rows = [line.split(",") for line in (out / "aggregate.csv").read_text().strip().splitlines()]
        status = rows[0].index("status")
        assert {row[1]: row[status] for row in rows[1:]} == {"0.0": "completed", "0.5": "error"}
        verdicts = {row[1]: row[-3:] for row in rows[1:]}
        assert verdicts["0.5"] == ["", "", ""]
        assert verdicts["0.0"][0] == "pass"
        failed = next(p for p in out.iterdir() if "alpha_0.5" in p.name)
        assert json.loads((failed / "manifest.json").read_text())["status"] == "error"

    def test_dt_floor_cell_recorded(self, tmp_path, monkeypatch):
        initial_data = cli_mod.make_initial_data
        monkeypatch.setattr(
            cli_mod, "make_initial_data",
            lambda config: floor_state(config) if config.params.alpha > 0 else initial_data(config),
        )
        base = dict(SMALL_DOC, grid={"n": 64, "box_length": 2 * math.pi}, stepper=dict(SMALL_DOC["stepper"], t_end=0.1))
        sweep_path = write_config(tmp_path, {"base": base, "axes": {"alpha": [0.0, 0.5]}}, "sweep.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(sweep_path), "--out", str(out), "--quiet"]) == EXIT_DT_FLOOR
        rows = [line.split(",") for line in (out / "aggregate.csv").read_text().strip().splitlines()]
        status = rows[0].index("status")
        assert {row[1]: row[status] for row in rows[1:]} == {"0.0": "completed", "0.5": "dt-floor"}
        floor_row = next(row for row in rows[1:] if row[1] == "0.5")
        summary = json.loads((out / floor_row[0] / "summary.json").read_text())
        assert floor_row[-3:] == [
            summary["stability"]["verdict"],
            repr(summary["stability"]["sup_norm_sum"] / summary["epsilon"]),
            repr(summary["x2_monotonicity"]["violations"]),
        ]
        assert all(floor_row[-3:])

    def test_other_exceptions_stop_the_sweep(self, tmp_path, monkeypatch):
        # Only run failures are isolated per cell; an exception a hook raises
        # to stop the sweep reaches the caller.
        class Stop(Exception):
            pass

        def stopping(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(cli_mod, "compute_record", stopping)
        base, cells, _ = parse_sweep({"schema_version": 1, "base": SMALL_DOC, "axes": {"alpha": [0.0, 0.5]}})
        with pytest.raises(Stop):
            cli_mod.execute_sweep(base, cells, tmp_path / "sweep")

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigError, match="axes"):
            parse_sweep({"base": SMALL_DOC, "axes": {"gamma": [1.0]}})

    def test_unknown_sweep_keys_rejected(self):
        with pytest.raises(ConfigError, match="thread is not a recognized key"):
            parse_sweep({"base": SMALL_DOC, "axes": {"alpha": [0.0]}, "thread": 2})
        with pytest.raises(ConfigError, match="stepper.dtt is not a recognized key"):
            parse_sweep({"base": dict(SMALL_DOC, stepper={"dtt": 0.1}), "axes": {"alpha": [0.0]}})

    def test_beta_axis_takes_per_cell_defaults(self, tmp_path):
        # eta and kappa unset in the base take their defaults for each cell's
        # beta; beta = 8 lowers the eta bound to 0.0606, below beta = 1's 1/6.
        sweep = {"schema_version": 1, "base": SMALL_DOC, "axes": {"beta": [1.0, 8.0]}}
        sweep_path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(sweep_path), "--out", str(out), "--quiet"]) == 0
        derived = {}
        for cell in (p for p in out.iterdir() if p.is_dir()):
            manifest = json.loads((cell / "manifest.json").read_text())
            derived[manifest["config"]["params"]["beta"]] = manifest["derived"]
        assert set(derived) == {1.0, 8.0}
        for beta, d in derived.items():
            assert d["eta"] == default_eta(beta)
            assert d["kappa"] == default_kappa(beta)

    def test_explicit_eta_kept_in_every_cell(self):
        base = dict(SMALL_DOC, params=dict(SMALL_DOC["params"], eta=0.05))
        _, cells, _ = parse_sweep({"base": base, "axes": {"beta": [1.0, 8.0], "alpha": [0.0, 0.5]}})
        assert len(cells) == 4
        assert all(config.params.eta == 0.05 for _, config in cells)
        assert all(config.params.kappa == default_kappa(config.params.beta) for _, config in cells)
        # An eta set above the bound of one cell's beta fails the sweep before any cell runs.
        base = dict(SMALL_DOC, params=dict(SMALL_DOC["params"], eta=0.1))
        with pytest.raises(ConfigError, match=r"^cell \{'beta': 8\.0\}: params: eta must"):
            parse_sweep({"base": base, "axes": {"beta": [1.0, 8.0]}})

    def test_each_cell_parsed_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(doc):
            calls.append(doc)
            return parse_run_config(doc)

        monkeypatch.setattr(cli_mod, "parse_run_config", counting)
        sweep = {"schema_version": 1, "base": SMALL_DOC, "axes": {"alpha": [0.0, 0.5], "seed": [1, 2]}}
        sweep_path = write_config(tmp_path, sweep, "sweep.json")
        assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp_path / "sweep"), "--quiet"]) == 0
        assert len(calls) == 1 + 4

    def test_io_error_cell_recorded(self, tmp_path, monkeypatch):
        class FailingCsvWriter(CsvWriter):
            def write(self, rec):
                if "alpha_0.5" in self._fh.name:
                    raise OSError("disk full")
                super().write(rec)

        monkeypatch.setattr(cli_mod, "CsvWriter", FailingCsvWriter)
        sweep = {"schema_version": 1, "base": SMALL_DOC, "axes": {"alpha": [0.0, 0.5]}}
        sweep_path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(sweep_path), "--out", str(out), "--quiet"]) == EXIT_IO
        rows = [line.split(",") for line in (out / "aggregate.csv").read_text().strip().splitlines()]
        status = rows[0].index("status")
        assert {row[1]: row[status] for row in rows[1:]} == {"0.0": "completed", "0.5": "io-error"}

    def test_blocked_cell_is_an_io_error_as_in_run(self, tmp_path, capsys):
        # A regular file where a cell's directory goes: the cell ends as the
        # same run under `tcm2d run` does, io-error with exit 4.
        sweep = {"schema_version": 1, "base": SMALL_DOC, "axes": {"alpha": [0, 0.5]}}
        sweep_path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "cell_0000__alpha_0").write_text("")
        assert main(["sweep", "--config", str(sweep_path), "--out", str(out), "--quiet"]) == EXIT_IO
        rows = [line.split(",") for line in (out / "aggregate.csv").read_text().strip().splitlines()]
        status = rows[0].index("status")
        by_cell = {row[0]: row for row in rows[1:]}
        assert by_cell["cell_0000__alpha_0"][status] == "io-error"
        assert by_cell["cell_0000__alpha_0"][-3:] == ["", "", ""]
        assert by_cell["cell_0001__alpha_0.5"][status] == "completed"
        assert capsys.readouterr().err.count("io error:") == 1
        run_path = write_config(tmp_path, SMALL_DOC)
        assert main(["run", "--config", str(run_path), "--out", str(out / "cell_0000__alpha_0"), "--quiet"]) == EXIT_IO
        assert capsys.readouterr().err.startswith("io error:")

    def test_process_pool_matches_serial(self, tmp_path):
        # The pool sends each cell's RunConfig to a worker and its summary back.
        outs = {}
        for threads in (1, 2):
            sweep = {"schema_version": 1, "base": SMALL_DOC, "axes": {"alpha": [0.0, 0.5], "seed": [1, 2]}, "threads": threads}
            sweep_path = write_config(tmp_path, sweep, f"sweep{threads}.json")
            out = tmp_path / f"threads{threads}"
            assert main(["sweep", "--config", str(sweep_path), "--out", str(out), "--quiet"]) == 0
            outs[threads] = {
                p.relative_to(out): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.name in ("aggregate.csv", "diagnostics.csv")
            }
        assert len(outs[1]) == 1 + 4
        assert outs[1] == outs[2]


class TestValidateCommand:
    def test_exit_zero_and_report(self, tmp_path):
        out = tmp_path / "reports.json"
        code = main(["validate", "--trials", "10", "--resolutions", "32,64",
                     "--seed", "5", "--out", str(out), "--quiet"])
        assert code == 0
        doc = json.loads(out.read_text())
        names = {r["name"] for r in doc["reports"]}
        assert "interpolation-exact" in names
        assert "kato-ponce" in names

    def test_zero_trials_exit_2(self):
        assert main(["validate", "--trials", "0", "--quiet"]) == EXIT_CONFIG

    def test_injected_bug_exit_5(self, monkeypatch):
        # Mutation check: a wrong exponent inside the interpolation identity
        # must surface as a constant above 1 and fail validation.
        from tcm2d import cli as cli_mod
        from tcm2d.inequality_lab import InequalityReport

        def broken(trials, grids, rng, s1=0.0, s=1.0, s2=2.0):
            bad = InequalityReport("interpolation-exact", trials, 1.07, 1.01,
                                   tuple(g.n for g in grids), True)
            linf = InequalityReport("interpolation-linf", trials, 0.3, 0.2,
                                    tuple(g.n for g in grids), True)
            return bad, linf

        monkeypatch.setattr(cli_mod, "check_interpolation", broken)
        code, _ = cli_mod.execute_validate(5, [32, 64], seed=0, quiet=True)
        assert code == EXIT_UNSTABLE


class TestFitCommand:
    def _write_power_law_csv(self, tmp_path, exponent=-1.0):
        ts = np.linspace(0.0, 40.0, 81)
        lines = ["t,v_gamma_1"]
        for t in ts:
            lines.append(f"{float(t)!r},{float((1 + t) ** exponent)!r}")
        path = tmp_path / "diagnostics.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_exact_power_law(self, tmp_path, capsys):
        path = self._write_power_law_csv(tmp_path, exponent=-1.0)
        code, doc = execute_fit(path, "v", 1.0, (5.0, 35.0), damped=False)
        assert code == 0
        assert doc["exponent"] == pytest.approx(-1.0, abs=1e-9)
        assert doc["difference"] == pytest.approx(0.0, abs=1e-9)

    def test_missing_column_exit_2(self, tmp_path):
        path = self._write_power_law_csv(tmp_path)
        code, doc = execute_fit(path, "theta", 1.0, None, damped=False)
        assert code == EXIT_CONFIG
        assert doc is None

    @pytest.mark.parametrize("text", ["", "t,v_gamma_1\n"], ids=["empty", "header-only"])
    def test_no_samples_exit_2(self, tmp_path, capsys, text):
        # A run that stops before its first sample leaves a header-only file.
        path = tmp_path / "diagnostics.csv"
        path.write_text(text)
        assert main(["fit", str(path), "--field", "v", "--gamma", "1", "--undamped", "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no samples" in err

    @pytest.mark.parametrize("text, where", [
        ("time,v_gamma_1\n0.0,1.0\n1.0,0.5\n", "column t not present"),
        ("t,v_gamma_1\n0.0,1.0\n1.0,0.5\n2.0,\n", "line 4"),
        ("t,v_gamma_1\n0.0,1.0\n1.0\n2.0,0.3\n", "line 3"),
    ], ids=["no-t-column", "truncated-last-row", "short-row"])
    def test_malformed_trajectory_exit_2(self, tmp_path, capsys, text, where):
        path = tmp_path / "diagnostics.csv"
        path.write_text(text)
        assert main(["fit", str(path), "--field", "v", "--gamma", "1", "--undamped", "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and where in err, err

    @pytest.mark.parametrize("manifest", ["[1, 2]", '"done"', '{"derived": [1]}'])
    def test_manifest_not_an_object_exit_2(self, tmp_path, capsys, manifest):
        path = self._write_power_law_csv(tmp_path)
        (tmp_path / "manifest.json").write_text(manifest)
        assert main(["fit", str(path), "--field", "v", "--gamma", "1", "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path / "manifest.json") in err, err

    def test_nonpositive_exit_6(self, tmp_path):
        ts = np.linspace(0.0, 40.0, 81)
        lines = ["t,v_gamma_1"] + [f"{float(t)!r},{float(1.0 - 0.04 * t)!r}" for t in ts]
        path = tmp_path / "diagnostics.csv"
        path.write_text("\n".join(lines) + "\n")
        code, _ = execute_fit(path, "v", 1.0, (5.0, 35.0), damped=False)
        assert code == EXIT_NONPOSITIVE

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_exit_2(self, tmp_path, capsys, bad):
        # One damaged in-window value: no NaN exponent on stdout or in --out.
        path = self._write_power_law_csv(tmp_path)
        lines = path.read_text().splitlines()
        t, _ = lines[41].split(",")
        lines[41] = f"{t},{bad}"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert main(["fit", str(path), "--field", "v", "--gamma", "1", "--undamped", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "non-finite values in the fit window" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("row", [41, 81], ids=["in-window", "last"])
    def test_non_finite_time_exit_2(self, tmp_path, capsys, row):
        # A nan time is no sample to drop silently, and no default window to complain about.
        path = self._write_power_law_csv(tmp_path)
        lines = path.read_text().splitlines()
        _, value = lines[row].split(",")
        lines[row] = f"nan,{value}"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert main(["fit", str(path), "--field", "v", "--gamma", "1", "--undamped", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "non-finite times" in captured.err
        assert not out.exists()

    def test_out_is_the_summary_entry(self, tmp_path):
        # summary.json and tcm2d fit report a norm's fit through one function:
        # the --out document is the summary's entry, key order included, plus
        # difference.  The fit reads damping from the run's manifest.
        doc = dict(SMALL_DOC, stepper=dict(SMALL_DOC["stepper"], sample_every=0.02))
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(run_dir), "--quiet"]) == 0
        fits = json.loads((run_dir / "summary.json").read_text())["fits"]
        assert [entry["status"] for entry in fits] == ["ok"] * 3
        for entry in fits:
            out = tmp_path / f"fit_{entry['field']}.json"
            t0, t1 = entry["window"]
            argv = ["fit", str(run_dir / "diagnostics.csv"), "--field", entry["field"], "--gamma", repr(entry["gamma"]),
                    "--window", repr(t0), repr(t1), "--out", str(out), "--quiet"]
            assert main(argv) == 0
            fit = json.loads(out.read_text())
            assert fit.pop("difference") == entry["exponent"] - entry["theory_exponent"]
            assert list(fit.items()) == list(entry.items())

    def test_damped_flag_from_manifest(self, tmp_path):
        path = self._write_power_law_csv(tmp_path)
        (tmp_path / "manifest.json").write_text(json.dumps({"derived": {"delta1": 1}}))
        code, doc = execute_fit(path, "v", 1.0, (5.0, 35.0), damped=None)
        assert code == 0
        assert doc["theory_exponent"] == -1.0  # v rate is damping-independent

    def test_cli_entrypoint(self, tmp_path):
        path = self._write_power_law_csv(tmp_path)
        code = main(["fit", str(path), "--field", "v", "--gamma", "1",
                     "--window", "5", "35", "--undamped", "--quiet"])
        assert code == 0


def test_package_imports_no_scipy():
    # The transforms are numpy.fft's: importing the package and its CLI, in a
    # fresh interpreter, loads no scipy module.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, tcm2d, tcm2d.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
