"""Experiment runner.

Subcommands:

* ``run``      -- integrate one configuration; writes manifest.json,
                  diagnostics.csv, diagnostics.jsonl, summary.json.
* ``sweep``    -- Cartesian-product parameter sweep; one subdirectory per
                  cell plus aggregate.csv of fitted exponents and verdicts.
* ``validate`` -- run the inequality lab at two resolutions.
* ``fit``      -- fit a decay exponent to one column of a trajectory file.

Configurations are JSON with a schema_version field (documented in the
README).  Exit codes: 0 success, 2 config/usage error, 3 blow-up, 4 I/O
error (an output directory or file could not be created or written; status
``io-error``), 5 inequality-lab instability, 6 nonpositive values in a fit
window, 7 unexpected error (the traceback goes to stderr; status ``error``),
8 the auto step fell to its floor (status ``dt-floor``: the run stopped
rather than step at ``integrator.DT_FLOOR``).  A sweep cell ends with the
same status and code as the same run under ``run``, recorded in its row of
aggregate.csv, and every failure is reported on stderr whatever ``--quiet``
says.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
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
    Spectra,
    compute_record,
    decay_fit,
    default_fit_window,
    norm_column,
    record_schema,
    theory_exponent,
)
from .integrator import DtFloorError, StepperConfig, run as integrate
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
    MIN_DRAW_GRID,
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
EXIT_DT_FLOOR = 8

# The exit code of each status a run can end with.
EXIT_CODES = {
    "completed": EXIT_OK,
    "blow-up": EXIT_BLOWUP,
    "io-error": EXIT_IO,
    "error": EXIT_ERROR,
    "dt-floor": EXIT_DT_FLOOR,
}

# What a failing run can raise: every tcm2d error is a ValueError or a
# RuntimeError, numpy's floating-point errors are ArithmeticError, and the file
# system's are OSError.  Anything else (a programming error, KeyboardInterrupt,
# or an exception a caller's hook raises to stop a run or a sweep, as perfbench's
# set-up-only repetitions do from the integrator) propagates.
RUN_FAILURES = (ValueError, RuntimeError, ArithmeticError, OSError)


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


_is_int, _is_list = _is(int), _is(list, tuple)
_is_number = lambda value: _is(int, float)(value) and math.isfinite(value)  # json reads NaN and Infinity as floats
_number = _reader(_is_number, "must be a finite number", float)
_positive = _reader(lambda x: _is_number(x) and x > 0, "must be a finite number > 0", float)
_text = _reader(_is(str), "must be a string")
_norm = _reader(
    lambda e: _is_list(e) and len(e) == 2 and _is(str)(e[0]) and _is_number(e[1]),
    "entries must be [field, gamma] pairs",
    lambda e: (e[0], float(e[1])),
)
_order = _reader(lambda m: _is_number(m) and m <= MAX_FUNCTIONAL_ORDER, f"entries are finite numbers capped at {MAX_FUNCTIONAL_ORDER}", float)
_count = _reader(lambda t: _is_int(t) and t >= 1, "must be an integer >= 1")
_is_grid_size = lambda n: _is_int(n) and n >= MIN_DRAW_GRID and n % 2 == 0
_grid_sizes = _reader(
    lambda text: all(tok.strip().isdecimal() and _is_grid_size(int(tok)) for tok in text.split(","))
    and len({int(tok) for tok in text.split(",")}) == len(text.split(",")),
    f"must be comma-separated distinct even integers >= {MIN_DRAW_GRID}",
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
        Setting("grid.n", _reader(_is_grid_size, f"must be an even integer >= {MIN_DRAW_GRID}")),
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
    value is a ConfigError naming key (a setting, a sweep-file key or a flag); so is
    an integer too large for a float, which json reads exactly."""
    try:
        return (read or SETTINGS[key].read)(value)
    except (TypeError, ValueError, OverflowError) as exc:
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


def _load_json(path: str | Path) -> Any:
    """The JSON document in the file at path; invalid JSON is a ConfigError naming the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc


def load_run_config(path: str | Path) -> RunConfig:
    return parse_run_config(_load_json(path))


def make_initial_data(config: RunConfig) -> TcmState:
    """Seeded random band-limited initial state, rescaled to the smallness norm.

    The five components [u_x, u_y, v_x, v_y, theta] are five draws of
    :func:`~tcm2d.spectral.random_coeffs` from one generator, each drawn at
    the state's band width straight into its row of the (5, n, band) state:
    no full half-spectrum complex array is made.  The draws are mean-free and
    band-limited to half the dealias cut, so every field is dealiased.  u is
    Leray-projected (divergence-free to rounding) on the band columns.  The
    global rescale makes the undamped or damped norm sum equal epsilon to
    relative 1e-12.  Identical seeds give bitwise-identical states.
    """
    grid = SpectralGrid(config.n, config.box_length)
    k_peak = config.spectrum_peak * 2.0 * math.pi / grid.box_length
    amp = power_law_amplitude(config.spectrum_slope, k_peak)
    rng = np.random.default_rng(config.seed)
    state = TcmState.zero(grid)
    c = state.coeffs
    for row in c:
        row[...] = random_coeffs(grid, rng, amp, width=grid.band)
    c[0], c[1] = leray_project_coeffs(c[0], c[1], grid)
    norm = Spectra(state).smallness(config.params)
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


def _fit_entry(series: Sequence[tuple[float, float]], fieldname: str, gamma: float, damped: bool, window: tuple[float, float]) -> dict:
    """The fit report of one norm series, in summary.json, aggregate.csv and ``tcm2d fit`` alike: field, gamma,
    theory_exponent and status, then exponent, r_squared, window and n_samples, or the reason the fit failed."""
    entry: dict[str, Any] = {"field": fieldname, "gamma": gamma, "theory_exponent": theory_exponent(fieldname, gamma, damped)}
    try:
        fit = decay_fit(series, window)
    except DecayFitError as exc:
        return dict(entry, status="failed", reason=str(exc))
    return dict(entry, status="ok", exponent=fit.exponent, r_squared=fit.r_squared, window=list(window), n_samples=fit.n_samples)


def _fit_block(records: list[DiagnosticsRecord], config: RunConfig) -> list[dict]:
    window = default_fit_window(config.stepper.t_end)
    return [
        _fit_entry([(r.time, r.norms[key]) for r in records], *key, config.params.alpha > 0, window)
        for key in config.diagnostics.norms
    ]


def execute_run(config: RunConfig, out_dir: str | Path, quiet: bool = True) -> RunResult:
    """Integrate one configuration and persist all artifacts.

    However the run ends, summary.json and manifest.json record its status and
    the result carries that status's exit code.  From the output directory's
    creation on, an OSError ends the run as "io-error" and any other exception
    as "error"; a run failure (RUN_FAILURES) is reported on stderr and
    returned, anything else (KeyboardInterrupt, a caller's hook) re-raised.
    """
    out = Path(out_dir)
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
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "manifest.json", manifest)
        summary = _integrate_and_report(config, out)
        _write_status(out, manifest, summary)
        if not quiet:
            print(f"run {out}: status={summary['status']} stability={summary['stability']['verdict']} "
                  f"x2_monotone={summary['x2_monotonicity']['verdict']}")
    except BaseException as exc:
        summary = {"status": "io-error" if isinstance(exc, OSError) else "error", "error": f"{type(exc).__name__}: {exc}"}
        with contextlib.suppress(OSError):  # an io-error may leave nowhere to write
            _write_status(out, manifest, summary)
        if not isinstance(exc, RUN_FAILURES):
            raise
        if isinstance(exc, OSError):
            print(f"io error: {exc}", file=sys.stderr)
        else:
            print(f"run {out} raised:", file=sys.stderr)
            traceback.print_exc()
    return RunResult(EXIT_CODES[summary["status"]], out, summary)


def _integrate_and_report(config: RunConfig, out: Path) -> dict:
    """Integrate, writing the diagnostics files, and return the run's summary."""
    initial = make_initial_data(config)
    records: list[DiagnosticsRecord] = []
    status = "completed"
    extra: dict[str, Any] = {}
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
            integrate(initial, config.params, config.stepper, sink)
        except BlowUpError as exc:
            status = "blow-up"
            extra["blow_up_time"] = exc.time
        except DtFloorError as exc:
            status = "dt-floor"
            extra["dt_floor_time"] = exc.time

    sup_small = max((r.smallness for r in records), default=0.0)
    return {
        "status": status,
        "epsilon": config.epsilon,
        "stability": {
            "sup_norm_sum": sup_small,
            "bound": 2.0 * config.epsilon,
            "verdict": "pass" if sup_small < 2.0 * config.epsilon else "fail",
        },
        "x2_monotonicity": _monotonicity_verdict(records),
        "bands": {
            band: {"min_ratio": min(ratios, default=1.0), "max_ratio": max(ratios, default=1.0)}
            for band, ratios in (("A", [r.band_A for r in records]), ("X", [r.band_X for r in records]))
        },
        "budget": _budget_block(records),
        "fits": _fit_block(records, config) if status == "completed" else [],
        **extra,
    }


def _write_status(out: Path, manifest: dict, summary: dict) -> None:
    """Write summary.json, then finish manifest.json with the summary's status and its stop time or error."""
    _write_json(out / "summary.json", summary)
    ending = {key: summary[key] for key in ("blow_up_time", "dt_floor_time", "error") if key in summary}
    finished_at = _time.strftime("%Y-%m-%dT%H:%M:%S%z")
    _write_json(out / "manifest.json", dict(manifest, status=summary["status"], finished_at=finished_at, **ending))


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
    threads = _read("threads", doc.get("threads", 1), _count)
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


def execute_sweep(base: RunConfig, cells: list[tuple[dict[str, Any], RunConfig]], out_dir: str | Path, threads: int = 1, quiet: bool = True) -> int:
    """Run the cells of :func:`parse_sweep` and write aggregate.csv from their summaries."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    configs = [config for _, config in cells]
    dirs = [out / _cell_dirname(i, cell) for i, (cell, _) in enumerate(cells)]
    if threads == 1:
        results = [execute_run(config, cell_dir) for config, cell_dir in zip(configs, dirs)]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(execute_run, configs, dirs))

    norm_keys = list(base.diagnostics.norms)
    header = ["cell", *SWEEP_AXES, "status"]
    for f, g in norm_keys:
        header += [f"exp_{norm_column(f, g)}", f"theory_{norm_column(f, g)}", f"r2_{norm_column(f, g)}"]
    header += ["stability", "sup_over_eps", "x2_violations"]
    lines = [",".join(header)]
    for config, result in zip(configs, results):
        summary = result.summary
        fits = {(entry["field"], entry["gamma"]): entry for entry in summary.get("fits", [])}
        row = [result.out_dir.name, *(repr(axis.value(config)) for axis in SWEEP_AXES.values()), summary["status"]]
        for key in norm_keys:
            entry = fits.get(key)
            if entry and entry["status"] == "ok":
                row += [repr(entry["exponent"]), repr(entry["theory_exponent"]), repr(entry["r_squared"])]
            else:
                row += ["", "", ""]
        stab = summary.get("stability")
        if stab:
            row += [stab["verdict"], repr(stab["sup_norm_sum"] / summary["epsilon"]), repr(summary["x2_monotonicity"]["violations"])]
        else:  # an error or io-error summary has no verdicts
            row += ["", "", ""]
        lines.append(",".join(row))
    (out / "aggregate.csv").write_text("\n".join(lines) + "\n")
    worst = max((result.exit_code for result in results), default=EXIT_OK)
    if not quiet:
        print(f"sweep {out}: {len(cells)} cells, worst exit {worst}")
    return worst


# ---------------------------------------------------------------------------
# validate


def execute_validate(trials: int, resolutions: Sequence[int], seed: int, quiet: bool = False) -> tuple[int, list]:
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
    for name in ("t", col):
        if name not in header:
            print(f"column {name} not present in {path}", file=sys.stderr)
            return EXIT_CONFIG, None
    t_idx, c_idx = header.index("t"), header.index(col)
    series = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            series.append((float(cells[t_idx]), float(cells[c_idx])))
        except (IndexError, ValueError):
            print(f"malformed row in {path}, line {lineno}: {line!r}", file=sys.stderr)
            return EXIT_CONFIG, None
    if damped is None:
        damped = _damped_from_manifest(path)
    entry = _fit_entry(series, fieldname, gamma, damped, window or default_fit_window(series[-1][0]))
    if entry["status"] != "ok":
        print(f"fit failed: {entry['reason']}", file=sys.stderr)
        return (EXIT_NONPOSITIVE if "nonpositive" in entry["reason"] else EXIT_CONFIG), None
    doc = dict(entry, difference=entry["exponent"] - entry["theory_exponent"])
    if not quiet:
        print(f"{fieldname} gamma={gamma:g}: fitted {doc['exponent']:+.4f}, theory {doc['theory_exponent']:+.4f}, "
              f"difference {doc['difference']:+.4f}, r^2 = {doc['r_squared']:.6f}")
        print(json.dumps(doc))
    if out_path is not None:
        _write_json(Path(out_path), doc)
    return EXIT_OK, doc


def _damped_from_manifest(traj_path: Path) -> bool:
    manifest = traj_path.parent / "manifest.json"
    try:
        return manifest.exists() and _load_json(manifest).get("derived", {}).get("delta1", 0) == 1
    except AttributeError:  # the document, or its "derived", is not a JSON object
        raise ConfigError(f"manifest {manifest}: expected a JSON object whose 'derived' is an object") from None


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
    p_val.add_argument("--trials", type=int, default=100, help="trials per inequality per resolution (>= 1)")
    p_val.add_argument("--resolutions", default="64,128", help=f"comma-separated distinct even grid sizes >= {MIN_DRAW_GRID}")
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
            base, cells, threads = parse_sweep(_load_json(args.config))
            if args.threads is not None:
                threads = _read("--threads", args.threads, _count)
            out = _resolve_out_dir(args.out, base)
            return execute_sweep(base, cells, out, threads, quiet=args.quiet)
        if args.command == "validate":
            trials = _read("--trials", args.trials, _count)
            resolutions = _read("--resolutions", args.resolutions, _grid_sizes)
            seed = _read("--seed", args.seed, SETTINGS["seed"].read)
            code, reports = execute_validate(trials, resolutions, seed, quiet=args.quiet)
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
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
