"""Experiment runner.

Subcommands:

* ``run``      -- integrate one configuration; writes manifest.json,
                  diagnostics.csv, diagnostics.jsonl, summary.json.
* ``sweep``    -- Cartesian-product parameter sweep; one subdirectory per
                  cell plus aggregate.csv of fitted decay exponents.
* ``validate`` -- run the inequality lab at two resolutions.
* ``fit``      -- fit a decay exponent to one column of a trajectory file.

Configurations are JSON with a schema_version field (documented in the
README).  Exit codes: 0 success, 2 config/usage error, 3 blow-up, 4 I/O
error, 5 inequality-lab instability, 6 nonpositive values in a fit window,
7 unexpected error (the traceback goes to stderr; the run's manifest, or the
sweep cell's row in aggregate.csv, records status ``error``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
import time as _time
import traceback
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .diagnostics import (
    CsvWriter,
    DecayFitError,
    DiagnosticsConfig,
    DiagnosticsRecord,
    JsonlWriter,
    compute_record,
    decay_fit,
    default_fit_window,
    norm_column,
    record_schema,
    smallness_norm,
    theory_exponent,
)
from .integrator import StepperConfig, run as integrate
from .inequality_lab import (
    INTERPOLATION_TOL,
    check_composition,
    check_gn,
    check_interpolation,
    check_kato_ponce,
)
from .model import (
    BlowUpError,
    Evaluation,
    ModelParams,
    Plan,
    TcmState,
    ViscosityFloorError,
)
from .spectral import (
    SpectralGrid,
    leray_project_coeffs,
    power_law_amplitude,
    random_coeffs,
)

SCHEMA_VERSION = 1
MAX_FUNCTIONAL_ORDER = 4.0  # high orders amplify round-off near the dealias cutoff

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4
EXIT_UNSTABLE = 5
EXIT_NONPOSITIVE = 6
EXIT_ERROR = 7


class ConfigError(ValueError):
    """A configuration file failed validation; the message names the field."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: grid, model parameters, stepper, initial data, outputs."""

    n: int = 128
    box_length: float = 16.0 * math.pi
    params: ModelParams = field(default_factory=ModelParams)
    stepper: StepperConfig = field(default_factory=lambda: StepperConfig(t_end=20.0, sample_every=0.5))
    epsilon: float = 0.01
    seed: int = 1
    spectrum_peak: int = 8
    spectrum_slope: float = 1.0
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    output_dir: str | None = None

    def to_dict(self) -> dict:
        """The run document of this config: every setting of SETTINGS, echoed at its key."""
        doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        for setting in SETTINGS.values():
            _set_at(doc, setting.path, setting.echo(setting.value(self)))
        return doc


def _reader(ok: Callable[[Any], bool], requirement: str, convert: Callable[[Any], Any] = lambda v: v) -> Callable[[Any], Any]:
    """A reader of one JSON value: it converts a value that passes ok, and names the requirement for one that fails."""

    def read(value: Any) -> Any:
        if not ok(value):
            raise ValueError(f"{requirement}, got {value!r}")
        return convert(value)

    return read


def _is(*types: type) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, types) and not isinstance(value, bool)


def _optional(read: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else read(value)


def _list_of(read: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    return _reader(_is_list, "must be a list", lambda items: tuple(map(read, items)))


_is_number, _is_int, _is_list = _is(int, float), _is(int), _is(list, tuple)
_number = _reader(_is_number, "must be a number", float)
_positive = _reader(lambda x: _is_number(x) and x > 0, "must be a number > 0", float)
_text = _reader(_is(str), "must be a string")
_norm = _reader(
    lambda e: _is_list(e) and len(e) == 2 and _is(str)(e[0]) and _is_number(e[1]),
    "entries must be [field, gamma] pairs",
    lambda e: (e[0], float(e[1])),
)
_order = _reader(lambda m: _is_number(m) and m <= MAX_FUNCTIONAL_ORDER, f"entries are numbers capped at {MAX_FUNCTIONAL_ORDER}", float)
_threads = _reader(lambda t: _is_int(t) and t >= 1, "must be an integer >= 1")
_grid_sizes = _reader(
    lambda text: all(tok.strip().isdecimal() and int(tok) > 0 and int(tok) % 2 == 0 for tok in text.split(",")),
    "must be comma-separated positive even integers",
    lambda text: [int(tok) for tok in text.split(",")],
)


@dataclass(frozen=True)
class Setting:
    """One run setting: its dotted key in a run document, the reader of its JSON
    value and the echo that turns the RunConfig attribute back into JSON."""

    key: str
    read: Callable[[Any], Any]
    echo: Callable[[Any], Any] = lambda value: value

    @cached_property
    def path(self) -> tuple[str, ...]:
        return tuple(self.key.split("."))

    def value(self, config: RunConfig) -> Any:
        *parents, name = self.path
        # RunConfig has no grid section: n and box_length sit on it.
        return getattr(getattr(config, parents[0]) if parents and parents[0] != "grid" else config, name)


# Every run setting, in the order of a run document.
SETTINGS = {
    setting.key: setting
    for setting in (
        Setting("grid.n", _reader(lambda n: _is_int(n) and n > 0 and n % 2 == 0, "must be a positive even integer")),
        Setting("grid.box_length", _positive),
        Setting("params.alpha", _number),
        Setting("params.beta", _number),
        Setting("params.mu_lower", _number),
        Setting("params.s", _number),
        Setting("params.viscosity", _text, lambda law: law if isinstance(law, str) else getattr(law, "__name__", "custom")),
        Setting("params.viscosity_a", _number),
        Setting("params.eta", _optional(_number)),
        Setting("params.kappa", _optional(_number)),
        Setting("stepper.scheme", _text),
        Setting("stepper.dt", lambda dt: dt if dt == "auto" else _number(dt)),
        Setting("stepper.cfl", _number),
        Setting("stepper.t_end", _number),
        Setting("stepper.sample_every", _number),
        Setting("epsilon", _positive),
        Setting("seed", _reader(lambda seed: _is_int(seed) and seed >= 0, "must be an integer >= 0")),
        Setting("spectrum_peak", _reader(lambda peak: _is_int(peak) and peak >= 1, "must be an integer >= 1")),
        Setting("spectrum_slope", _number),
        Setting("diagnostics.norms", _list_of(_norm), lambda norms: [[f, g] for f, g in norms]),
        Setting("diagnostics.functional_orders", _list_of(_order), list),
        Setting("output_dir", _optional(_text)),
    )
}


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _read(key: str, value: Any, read: Callable[[Any], Any] | None = None) -> Any:
    """read, by default the reader of the setting key, applied to value; a rejected
    value is a ConfigError naming key (a setting, a sweep-file key or a flag)."""
    try:
        return (read or SETTINGS[key].read)(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} {exc}") from exc


def _set_at(doc: dict, path: tuple[str, ...], value: Any) -> None:
    """Set the value at path in doc, copying each section on the way, so that no other document changes."""
    *parents, name = path
    for part in parents:
        doc[part] = dict(doc.get(part, {}))
        doc = doc[part]
    doc[name] = value


_DEFAULTS = RunConfig()
# Every key a run document may have: those of the config a manifest records.
_RUN_DOC = _DEFAULTS.to_dict()


def _check_keys(doc: dict, known: dict, where: str = "") -> None:
    """Reject every key of doc, and of each section in it, that known does not have."""
    _expect(isinstance(doc, dict), f"{where.rstrip('.') or 'config'} must be a JSON object")
    for key, value in doc.items():
        _expect(key in known, f"{where}{key} is not a recognized key")
        if isinstance(known[key], dict):
            _check_keys(value, known[key], f"{where}{key}.")


def _check_schema_version(doc: dict) -> None:
    version = doc.get("schema_version", SCHEMA_VERSION)
    _expect(_is_int(version) and version == SCHEMA_VERSION, f"schema_version must be {SCHEMA_VERSION}, got {version!r}")


def _section(name: str, given: dict[str, Any]) -> Any:
    """A RunConfig section object from its given settings; the others keep RunConfig()'s."""
    try:
        if name == "params":
            # Built from the given keys alone: unset eta and kappa follow the given beta.
            return ModelParams(**given)
        return replace(getattr(_DEFAULTS, name), **given)
    except (TypeError, ValueError, ViscosityFloorError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_run_config(doc: dict) -> RunConfig:
    """Validate and build a RunConfig from a parsed JSON document: each setting it
    gives goes through its reader in SETTINGS, one it leaves out keeps RunConfig()'s."""
    _check_keys(doc, _RUN_DOC)
    _check_schema_version(doc)
    given: dict[str, Any] = {}
    for setting in SETTINGS.values():
        *parents, name = setting.path
        source = doc.get(parents[0], {}) if parents else doc
        if name in source:
            _set_at(given, setting.path, _read(setting.key, source[name]))
    # The given settings by RunConfig attribute: the grid's sit on RunConfig itself, the other sections are objects.
    top = {key: _section(key, value) if isinstance(value, dict) else value for key, value in given.items() if key != "grid"}
    config = RunConfig(**given.get("grid", {}), **top)
    for m in config.diagnostics.functional_orders:
        _expect(m >= config.params.s, f"diagnostics.functional_orders entries must be >= s = {config.params.s}, got {m}")
    return config


def load_run_config(path: str | Path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return parse_run_config(doc)


def make_initial_data(config: RunConfig, grid: SpectralGrid | None = None) -> TcmState:
    """Seeded random band-limited initial state, rescaled to the smallness norm.

    u is Leray-projected (divergence-free to rounding) and all fields are
    dealiased and mean-free.  The global rescale makes the undamped or damped
    norm sum equal epsilon to relative 1e-12.  Identical seeds give
    bitwise-identical states.
    """
    if grid is None:
        grid = SpectralGrid(config.n, config.box_length)
    k_peak = config.spectrum_peak * 2.0 * math.pi / grid.box_length
    amp = power_law_amplitude(config.spectrum_slope, k_peak)
    rng = np.random.default_rng(config.seed)
    c = np.stack([random_coeffs(grid, rng, amp) for _ in range(5)])
    c[0], c[1] = leray_project_coeffs(c[0], c[1], grid)
    c *= grid.dealias_mask
    state = TcmState(grid, c, 0.0)
    norm = smallness_norm(state, config.params)
    if norm == 0:  # a zero draw of five Gaussian fields: probability 0
        raise RuntimeError(f"random initial data of seed {config.seed} is zero")
    state.coeffs *= config.epsilon / norm
    return state


@dataclass
class RunResult:
    exit_code: int
    out_dir: Path
    summary: dict


def _monotonicity_verdict(records: list[DiagnosticsRecord]) -> dict:
    """Check discrete nonincrease of X^2 between consecutive samples.

    Per-interval increase is allowed up to 10 * dt^4 * (local Y^2 scale) for
    the fourth-order stepper, plus a machine-precision floor, since the
    analytic statement is exact but discretization noise must not trigger
    false failures.
    """
    violations = 0
    max_excess = 0.0
    for prev, cur in zip(records, records[1:]):
        x2_prev, x2_cur = prev.X_m**2, cur.X_m**2
        y2 = max(prev.Y_m**2, cur.Y_m**2)
        tol = 10.0 * cur.dt**4 * y2 + 64.0 * np.finfo(float).eps * x2_prev
        excess = x2_cur - x2_prev - tol
        if excess > 0:
            violations += 1
            max_excess = max(max_excess, excess)
    return {
        "verdict": "pass" if violations == 0 else "fail",
        "violations": violations,
        "max_excess": max_excess,
        "intervals": max(len(records) - 1, 0),
    }


def _budget_block(records: list[DiagnosticsRecord]) -> dict:
    """How well the discrete energy budget closed, from the records.

    ``worst_residual_ratio`` is the largest |budget_residual| / dissipation
    over the samples with positive dissipation; ``cumulative_mismatch`` is
    |E(t_last) - E(0) + int_0^t_last D| / int_0^t_last D.  Each is null when
    its denominator is zero.
    """
    ratios = [abs(r.budget_residual) / r.dissipation for r in records if r.dissipation > 0]
    integral = records[-1].diss_integral if records else 0.0
    return {
        "worst_residual_ratio": max(ratios, default=None),
        "cumulative_mismatch": (
            abs(records[-1].energy - records[0].energy + integral) / integral if integral > 0 else None
        ),
    }


def _fit_block(records: list[DiagnosticsRecord], config: RunConfig) -> list[dict]:
    damped = config.params.alpha > 0
    fits = []
    for fieldname, gamma in config.diagnostics.norms:
        theory = theory_exponent(fieldname, gamma, damped)
        series = [(r.time, r.norms[(fieldname, gamma)]) for r in records]
        entry: dict[str, Any] = {"field": fieldname, "gamma": gamma, "theory_exponent": theory}
        try:
            fit = decay_fit(series, default_fit_window(config.stepper.t_end), fieldname, gamma, theory)
        except DecayFitError as exc:
            entry.update({"status": "failed", "reason": str(exc)})
        else:
            entry.update(
                {
                    "status": "ok",
                    "exponent": fit.exponent,
                    "r_squared": fit.r_squared,
                    "window": list(fit.window),
                    "n_samples": fit.n_samples,
                }
            )
        fits.append(entry)
    return fits


def execute_run(config: RunConfig, out_dir: str | Path, quiet: bool = True) -> RunResult:
    """Integrate one configuration and persist all artifacts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = SpectralGrid(config.n, config.box_length)
    params = config.params
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "derived": {
            "lambda": params.lam,
            "delta1": params.delta1,
            "eta": params.eta,
            "kappa": params.kappa,
        },
        "code_version": __version__,
        "started_at": _time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "finished_at": None,
        "status": "running",
    }
    _write_json(out / "manifest.json", manifest)
    # Whatever raises past the statuses handled below, both files name it: an
    # OSError ends the run as "io-error", anything else (a DiagnosticsError, a
    # custom law's ViscosityFloorError, KeyboardInterrupt) as "error", re-raised.
    try:
        return _integrate_and_report(config, grid, out, manifest, quiet)
    except BaseException as exc:
        if manifest["finished_at"] is not None:
            raise
        io_error = isinstance(exc, OSError)
        summary = {"status": "io-error" if io_error else "error", "error": f"{type(exc).__name__}: {exc}"}
        _finish_manifest(out, manifest, summary["status"], error=summary["error"])
        _write_json(out / "summary.json", summary)
        if not io_error:
            raise
        if not quiet:
            print(f"io error: {exc}", file=sys.stderr)
        return RunResult(EXIT_IO, out, summary)


def _integrate_and_report(config: RunConfig, grid: SpectralGrid, out: Path, manifest: dict, quiet: bool) -> RunResult:
    params = config.params
    initial = make_initial_data(config, grid)
    records: list[DiagnosticsRecord] = []

    status = "completed"
    blow_up_time = None
    with open(out / "diagnostics.csv", "w") as csv_fh, open(out / "diagnostics.jsonl", "w") as jsonl_fh:
        schema = record_schema(config.diagnostics)
        csv_w = CsvWriter(csv_fh, schema)
        jsonl_w = JsonlWriter(jsonl_fh, schema)

        def sink(state: TcmState, plan: Plan, dt: float, diss_int: float, evaluation: Evaluation) -> None:
            rec = compute_record(state, plan, config.diagnostics, dt, diss_int, evaluation)
            records.append(rec)
            csv_w.write(rec)
            jsonl_w.write(rec)

        try:
            integrate(initial, params, config.stepper, sink)
        except BlowUpError as exc:
            status = "blow-up"
            blow_up_time = exc.time

    sup_small = max((r.smallness for r in records), default=0.0)
    summary: dict[str, Any] = {
        "status": status,
        "epsilon": config.epsilon,
        "stability": {
            "sup_norm_sum": sup_small,
            "bound": 2.0 * config.epsilon,
            "verdict": "pass" if sup_small < 2.0 * config.epsilon else "fail",
        },
        "x2_monotonicity": _monotonicity_verdict(records),
        "bands": {
            "A": {
                "min_ratio": min((r.band_A for r in records), default=1.0),
                "max_ratio": max((r.band_A for r in records), default=1.0),
            },
            "X": {
                "min_ratio": min((r.band_X for r in records), default=1.0),
                "max_ratio": max((r.band_X for r in records), default=1.0),
            },
        },
        "budget": _budget_block(records),
        "fits": _fit_block(records, config) if status == "completed" else [],
    }
    extra = {} if blow_up_time is None else {"blow_up_time": blow_up_time}
    summary.update(extra)
    _write_json(out / "summary.json", summary)
    _finish_manifest(out, manifest, status, **extra)

    if not quiet:
        print(f"run {out}: status={status} stability={summary['stability']['verdict']} "
              f"x2_monotone={summary['x2_monotonicity']['verdict']}")
    return RunResult(EXIT_BLOWUP if status == "blow-up" else EXIT_OK, out, summary)


def _finish_manifest(out: Path, manifest: dict, status: str, **extra: Any) -> None:
    manifest.update(status=status, finished_at=_time.strftime("%Y-%m-%dT%H:%M:%S%z"), **extra)
    _write_json(out / "manifest.json", manifest)


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _resolve_out_dir(explicit: str | None, config: RunConfig) -> Path:
    if explicit:
        return Path(explicit)
    if config.output_dir:
        return Path(config.output_dir)
    env = os.environ.get("TCM_OUT_DIR")
    if env:
        return Path(env)
    raise ConfigError("output_dir not set (use --out, config output_dir, or TCM_OUT_DIR)")


# ---------------------------------------------------------------------------
# sweep


# The sweepable settings, by axis name, in the column order of aggregate.csv.
SWEEP_AXES = {
    SETTINGS[key].path[-1]: SETTINGS[key]
    for key in ("params.alpha", "params.beta", "epsilon", "params.s", "grid.n", "seed")
}


def parse_sweep(doc: dict) -> tuple[RunConfig, list[tuple[dict[str, Any], RunConfig]], int]:
    """Returns (base config, one (axis assignment, config) pair per cell, worker count).

    A cell is the ``base`` document with the cell's axis values set at their
    SWEEP_AXES paths, parsed once; what the base leaves unset, ``eta`` and
    ``kappa`` included, takes its default for the cell's own values.
    """
    _check_keys(doc, dict.fromkeys(("schema_version", "base", "axes", "threads")))
    _check_schema_version(doc)
    base_doc = doc.get("base", {})
    base = parse_run_config(base_doc)
    axes = doc.get("axes", {})
    _expect(isinstance(axes, dict) and axes, "sweep axes must be a non-empty object")
    for key, values in axes.items():
        _expect(key in SWEEP_AXES, f"axes.{key} is not sweepable (allowed: {sorted(SWEEP_AXES)})")
        _expect(isinstance(values, list) and values, f"axes.{key} must be a non-empty list")
    threads = _read("threads", doc.get("threads", 1), _threads)
    assignments: list[dict[str, Any]] = [{}]
    for name in sorted(axes):
        assignments = [dict(cell, **{name: v}) for cell in assignments for v in axes[name]]
    return base, [(cell, _parse_cell(base_doc, cell)) for cell in assignments], threads


def _parse_cell(base_doc: dict, cell: dict[str, Any]) -> RunConfig:
    """Parse the base document with each axis value set at its path; a config error names the cell."""
    doc = dict(base_doc)
    for name, value in cell.items():
        _set_at(doc, SWEEP_AXES[name].path, value)
    try:
        return parse_run_config(doc)
    except ConfigError as exc:
        raise ConfigError(f"cell {cell}: {exc}") from exc


def _cell_dirname(index: int, cell: dict[str, Any]) -> str:
    parts = [f"cell_{index:04d}"] + [f"{k}_{cell[k]:g}" if isinstance(cell[k], float) else f"{k}_{cell[k]}" for k in sorted(cell)]
    return "__".join(parts)


# What a failing cell can raise: every tcm2d error is a ValueError or a
# RuntimeError, numpy's floating-point errors are ArithmeticError, and the file
# system's are OSError.  Anything else (a programming error, KeyboardInterrupt,
# or an exception a caller's hook raises to stop the sweep, as perfbench's
# set-up-only repetitions do from the integrator) propagates.
_CELL_FAILURES = (ValueError, RuntimeError, ArithmeticError, OSError)


def _run_cell(job: tuple[RunConfig, Path]) -> tuple[int, dict]:
    """Run one sweep cell to (exit code, summary); a run failure fails this cell only, with EXIT_ERROR."""
    config, out_dir = job
    try:
        result = execute_run(config, out_dir, quiet=True)
    except _CELL_FAILURES as exc:
        print(f"sweep cell {out_dir} raised:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_ERROR, {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    return result.exit_code, result.summary


def execute_sweep(base: RunConfig, cells: list[tuple[dict[str, Any], RunConfig]], out_dir: str | Path, threads: int = 1, quiet: bool = True) -> int:
    """Run the cells of :func:`parse_sweep` and write aggregate.csv from their summaries."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(config, out / _cell_dirname(i, cell)) for i, (cell, config) in enumerate(cells)]
    if threads == 1:
        results = [_run_cell(job) for job in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_cell, jobs))

    norm_keys = list(base.diagnostics.norms)
    header = ["cell", *SWEEP_AXES, "status"]
    for f, g in norm_keys:
        header += [f"exp_{norm_column(f, g)}", f"theory_{norm_column(f, g)}", f"r2_{norm_column(f, g)}"]
    lines = [",".join(header)]
    for (config, cell_dir), (_, summary) in zip(jobs, results):
        fits = {(entry["field"], entry["gamma"]): entry for entry in summary.get("fits", [])}
        row = [cell_dir.name, *(repr(axis.value(config)) for axis in SWEEP_AXES.values()), summary["status"]]
        for key in norm_keys:
            entry = fits.get(key)
            if entry and entry["status"] == "ok":
                row += [repr(entry["exponent"]), repr(entry["theory_exponent"]), repr(entry["r_squared"])]
            else:
                row += ["", "", ""]
        lines.append(",".join(row))
    (out / "aggregate.csv").write_text("\n".join(lines) + "\n")
    worst = max((code for code, _ in results), default=EXIT_OK)
    if not quiet:
        print(f"sweep {out}: {len(cells)} cells, worst exit {worst}")
    return worst


# ---------------------------------------------------------------------------
# validate


def execute_validate(trials: int, resolutions: Sequence[int], seed: int, quiet: bool = False) -> tuple[int, list]:
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    grids = [SpectralGrid(n, 2.0 * math.pi) for n in resolutions]
    rng = np.random.default_rng(seed)
    reports = [check_gn(trials, grids, rng)]
    interp_exact, interp_linf = check_interpolation(trials, grids, rng)
    reports += [interp_exact, interp_linf, check_kato_ponce(trials, grids, rng), check_composition(trials, grids, rng)]

    failures = []
    if interp_exact.worst_ratio > 1.0 + INTERPOLATION_TOL:
        failures.append(f"interpolation-exact constant {interp_exact.worst_ratio!r} exceeds 1")
    for rep in reports:
        if not rep.stable:
            failures.append(f"{rep.name} unstable across resolutions (worst {rep.worst_ratio:.4g})")

    if not quiet:
        print(f"{'inequality':<24}{'trials':>8}{'worst':>12}{'median':>12}  {'stable':<7}resolutions")
        for rep in reports:
            print(
                f"{rep.name:<24}{rep.trials:>8}{rep.worst_ratio:>12.6g}{rep.median_ratio:>12.6g}  "
                f"{str(rep.stable):<7}{list(rep.resolutions)}"
            )
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
    return (EXIT_UNSTABLE if failures else EXIT_OK), reports


# ---------------------------------------------------------------------------
# fit


def execute_fit(
    trajectory: str | Path,
    fieldname: str,
    gamma: float,
    window: tuple[float, float] | None,
    damped: bool | None,
    out_path: str | Path | None = None,
    quiet: bool = False,
) -> tuple[int, dict | None]:
    path = Path(trajectory)
    if not path.exists():
        print(f"trajectory file not found: {path}", file=sys.stderr)
        return EXIT_IO, None
    lines = path.read_text().strip().splitlines()
    if len(lines) < 2:  # empty, or the header of a run that stopped before its first sample
        print(f"no samples in {path}", file=sys.stderr)
        return EXIT_CONFIG, None
    header = lines[0].split(",")
    col = norm_column(fieldname, gamma)
    if col not in header:
        print(f"column {col} not present in {path}", file=sys.stderr)
        return EXIT_CONFIG, None
    t_idx, c_idx = header.index("t"), header.index(col)
    series = []
    for line in lines[1:]:
        cells = line.split(",")
        series.append((float(cells[t_idx]), float(cells[c_idx])))
    if damped is None:
        damped = _damped_from_manifest(path)
    theory = theory_exponent(fieldname, gamma, damped)
    try:
        fit = decay_fit(series, window or default_fit_window(series[-1][0]), fieldname, gamma, theory)
    except DecayFitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        code = EXIT_NONPOSITIVE if "nonpositive" in str(exc) else EXIT_CONFIG
        return code, None
    doc = fit.to_dict()
    doc["difference"] = fit.exponent - theory
    if not quiet:
        print(
            f"{fieldname} gamma={gamma:g}: fitted {fit.exponent:+.4f}, theory {theory:+.4f}, "
            f"difference {doc['difference']:+.4f}, r^2 = {fit.r_squared:.6f}"
        )
        print(json.dumps(doc))
    if out_path is not None:
        _write_json(Path(out_path), doc)
    return EXIT_OK, doc


def _damped_from_manifest(traj_path: Path) -> bool:
    manifest = traj_path.parent / "manifest.json"
    if manifest.exists():
        doc = json.loads(manifest.read_text())
        return doc.get("derived", {}).get("delta1", 0) == 1
    return False


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcm2d", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.add_argument("--config", required=True, help="path to a run config (JSON)")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--quiet", action="store_true")

    p_sweep = sub.add_parser("sweep", help="Cartesian-product parameter sweep")
    p_sweep.add_argument("--config", required=True, help="path to a sweep file (JSON)")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--threads", type=int, default=None, help="worker processes (default: sweep file or 1)")
    p_sweep.add_argument("--quiet", action="store_true")

    p_val = sub.add_parser("validate", help="run the inequality lab")
    p_val.add_argument("--trials", type=int, default=100, help="trials per inequality per resolution")
    p_val.add_argument("--resolutions", default="64,128", help="comma-separated grid sizes")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", default=None, help="optional path for the JSON report")
    p_val.add_argument("--quiet", action="store_true")

    p_fit = sub.add_parser("fit", help="fit a decay exponent to a trajectory column")
    p_fit.add_argument("trajectory", help="diagnostics.csv produced by run")
    p_fit.add_argument("--field", required=True, choices=["u", "v", "theta"])
    p_fit.add_argument("--gamma", type=float, required=True)
    p_fit.add_argument("--window", type=float, nargs=2, default=None, metavar=("T0", "T1"))
    damp = p_fit.add_mutually_exclusive_group()
    damp.add_argument("--damped", dest="damped", action="store_true", default=None)
    damp.add_argument("--undamped", dest="damped", action="store_false")
    p_fit.add_argument("--out", default=None, help="optional path for the fit JSON")
    p_fit.add_argument("--quiet", action="store_true")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = load_run_config(args.config)
            if args.seed is not None:
                config = replace(config, seed=_read("seed", args.seed))
            out = _resolve_out_dir(args.out, config)
            return execute_run(config, out, quiet=args.quiet).exit_code
        if args.command == "sweep":
            with open(args.config) as fh:
                doc = json.load(fh)
            base, cells, threads = parse_sweep(doc)
            if args.threads is not None:
                threads = _read("--threads", args.threads, _threads)
            out = _resolve_out_dir(args.out, base)
            return execute_sweep(base, cells, out, threads, quiet=args.quiet)
        if args.command == "validate":
            resolutions = _read("--resolutions", args.resolutions, _grid_sizes)
            code, reports = execute_validate(args.trials, resolutions, args.seed, quiet=args.quiet)
            if args.out:
                _write_json(Path(args.out), {"reports": [r.to_dict() for r in reports]})
            return code
        if args.command == "fit":
            code, _ = execute_fit(
                args.trajectory, args.field, args.gamma,
                tuple(args.window) if args.window else None,
                args.damped, args.out, quiet=args.quiet,
            )
            return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
