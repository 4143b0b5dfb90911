#!/usr/bin/env python3
"""tcm2d benchmark: time to a verified trajectory, end to end and per layer.

    python3 perfbench/run.py --workload stability-n128 --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from the src/ directory next to
this one.  Repetitions run one at a time (a closed loop with one caller), each
in a fresh interpreter, until the next one would end after --seconds.  Every
repetition's output files are checked (see check_run_dir); a repetition that
raises, ends in another status than "completed" or fails its check counts as
failed.

--trace 0 reports the end-to-end metrics (medians over repetitions).  The
times are scaled to a reference host speed measured around and inside each
repetition (see child.py).  The time left after the last full repetition
is filled with set-up-only repetitions, which add to the set-up samples,
and more run past --seconds until there are MIN_SETUP_SAMPLES of them.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones, plus the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  A full record (environment, every repetition) is written to
.bench_build/perfbench/BENCH_<workload>_seed<seed>_trace<t>.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

import workloads
from tracer import EXIT_WIRING, TraceWiringError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"

MIN_REPS = 3              # per kind (untraced, traced) in one run
MIN_SETUP_SAMPLES = 10    # set-up times in one untraced run
CHILD_TIMEOUT_S = 120.0
BUDGET_GATE = 1e-9        # worst |budget_residual| / dissipation (ROADMAP aim 3)
# Relative tolerance on the final-sample energy, smallness and X_m against the
# recorded reference: far above the rounding-level differences of reordered
# arithmetic and far below any change of the trajectory or step-size rule.
REFERENCE_RTOL = 1e-10
REFERENCE_KEYS = ("energy", "smallness", "X_m")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "spectral.fft_fields_per_step": "fields/step",
    "spectral.fft_self_s": "s",
    "spectral.fft_bytes_per_step_computed": "B/step",
    "model.tendency_calls": "count",
    "model.tendency_self_s": "s",
    "model.tendency_ms_p50": "ms",
    "model.tendency_ms_p99": "ms",
    "integrator.steps": "count",
    "integrator.step_self_s": "s",
    "integrator.stable_dt_calls": "count",
    "integrator.stable_dt_self_s": "s",
    "diagnostics.records": "count",
    "diagnostics.record_self_s": "s",
    "diagnostics.record_ms_p50": "ms",
    "diagnostics.writer_s": "s",
    "diagnostics.bytes_written": "B",
    "cli.import_s": "s",
    "cli.setup_parse_s": "s",
    "cli.initial_data_s": "s",
    "cli.summary_s": "s",
    "cli.run_self_s": "s",
    "trace.overhead_s": "s",
}
# Per-layer counts that must repeat exactly between traced runs.
COUNTS = (
    "spectral.fft_fields_per_step",
    "integrator.steps",
    "model.tendency_calls",
    "diagnostics.records",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# correctness


def check_run_dir(out: Path, t_end: float) -> tuple[list[str], dict]:
    """Problems found in one run directory, and its final-sample values."""
    summary = json.loads((out / "summary.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    problems = []
    if summary["status"] != "completed" or manifest["status"] != "completed":
        problems.append(f"{out.name}: status {summary['status']}/{manifest['status']}")
    for block in ("stability", "x2_monotonicity"):
        if summary[block]["verdict"] != "pass":
            problems.append(f"{out.name}: {block} verdict {summary[block]['verdict']}")
    with open(out / "diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    worst = max(abs(float(r["budget_residual"])) / float(r["dissipation"]) for r in rows)
    if not worst <= BUDGET_GATE:
        problems.append(f"{out.name}: budget residual / dissipation {worst:.3e} > {BUDGET_GATE:g}")
    if abs(float(rows[-1]["t"]) - t_end) > 1e-9 * max(1.0, t_end):
        problems.append(f"{out.name}: last sample at t = {rows[-1]['t']}, not {t_end}")
    return problems, {key: float(rows[-1][key]) for key in REFERENCE_KEYS}


def check_outputs(spec: dict, out: Path, exit_code: int) -> tuple[list[str], dict]:
    """Check every run directory a repetition wrote; returns problems and finals."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    finals = {}
    if spec["kind"] == "run":
        dirs = {"run": out}
        t_end = spec["doc"]["stepper"]["t_end"]
    else:
        dirs = {d.name: d for d in sorted(out.iterdir()) if d.is_dir()}
        t_end = spec["doc"]["base"]["stepper"]["t_end"]
        with open(out / "aggregate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = math.prod(len(v) for v in spec["doc"]["axes"].values())
        if len(rows) != cells or len(dirs) != cells:
            problems.append(f"sweep wrote {len(rows)} aggregate rows, {len(dirs)} cells; expected {cells}")
        problems += [f"{r['cell']}: aggregate status {r['status']}" for r in rows if r["status"] != "completed"]
    for label, d in dirs.items():
        found, finals[label] = check_run_dir(d, t_end)
        problems += found
    return problems, finals


def compare_reference(finals: dict, reference: dict) -> list[str]:
    problems = []
    for label, expected in reference.items():
        got = finals.get(label)
        if got is None:
            problems.append(f"{label}: missing (reference has it)")
            continue
        for key in REFERENCE_KEYS:
            rel = abs(got[key] - expected[key]) / abs(expected[key])
            if not rel <= REFERENCE_RTOL:
                problems.append(f"{label}: final {key} {got[key]!r} differs from reference "
                                f"{expected[key]!r} by {rel:.2e} relative")
    return problems


def load_reference(workload: str, seed: int) -> dict | None:
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# one repetition


def run_repetition(spec: dict, traced: bool, workdir: Path, reference: dict | None,
                   setup_only: bool = False) -> dict:
    """Run one repetition in a fresh interpreter and check what it wrote."""
    workdir.mkdir(parents=True)
    spec_path, result_path, out = workdir / "spec.json", workdir / "result.json", workdir / "out"
    spec_path.write_text(json.dumps(dict(spec, src=str(SRC), trace=traced, setup_only=setup_only)))
    rep: dict = {"traced": traced, "setup_only": setup_only}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path), str(out)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        rep["problems"] = [f"repetition exceeded {CHILD_TIMEOUT_S:g} s"]
        return rep
    if proc.returncode == EXIT_WIRING:
        raise TraceWiringError(proc.stderr.strip())
    if proc.returncode != 0:
        rep["problems"] = [f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
        return rep
    rep.update(json.loads(result_path.read_text()))
    if setup_only:
        rep["problems"] = [] if rep.get("setup_s") is not None else ["the time integrator was never entered"]
        shutil.rmtree(out, ignore_errors=True)
        return rep
    try:
        problems, finals = check_outputs(spec, out, rep["exit_code"])
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        problems, finals = [f"output check raised {type(exc).__name__}: {exc}"], {}
    if reference is not None:
        problems += compare_reference(finals, reference)
    if rep["setup_s"] is None:
        problems.append("the time integrator was never entered")
    rep["problems"] = problems
    rep["finals"] = finals
    rep["bytes_written"] = sum(p.stat().st_size for p in out.rglob("diagnostics.*"))
    shutil.rmtree(out)
    return rep


# ---------------------------------------------------------------------------
# metrics


def span_metrics(spans: list) -> tuple[dict, dict]:
    """Per-layer values of one traced repetition, and its raw call durations."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    durations: defaultdict = defaultdict(list)
    fields = nbytes = 0
    for i, (layer, start, end, _, f, b) in enumerate(spans):
        calls[layer] += 1
        total_s[layer] += end - start
        self_s[layer] += end - start - child_time[i]
        durations[layer].append(end - start)
        fields += f
        nbytes += b
    steps = calls["integrator.step"]
    # The set-up layers count until the first step, as setup_s does: a sweep
    # parses and sets up each later cell after integrating the one before,
    # and parses every cell again when it aggregates.
    first_step = min(start for layer, start, *_ in spans if layer == "integrator.step")
    before_first_step: defaultdict = defaultdict(float)
    for layer, start, end, *_ in spans:
        if start < first_step:
            before_first_step[layer] += end - start
    values = {
        "spectral.fft_fields_per_step": fields / steps,
        "spectral.fft_self_s": self_s["spectral.fft"],
        "spectral.fft_bytes_per_step_computed": nbytes / steps,
        "model.tendency_calls": calls["model.tendency"],
        "model.tendency_self_s": self_s["model.tendency"],
        "integrator.steps": steps,
        "integrator.step_self_s": self_s["integrator.step"],
        "integrator.stable_dt_calls": calls["integrator.stable_dt"],
        "integrator.stable_dt_self_s": self_s["integrator.stable_dt"],
        "diagnostics.records": calls["diagnostics.record"],
        "diagnostics.record_self_s": self_s["diagnostics.record"],
        "diagnostics.writer_s": total_s["diagnostics.writer"],
        "cli.setup_parse_s": before_first_step["cli.parse"],
        "cli.initial_data_s": before_first_step["cli.initial_data"],
        "cli.summary_s": total_s["cli.summary"],
        "cli.run_self_s": self_s["cli.run"],
    }
    return values, durations


def summarize(reps: list[dict], trace: bool) -> dict:
    """Metric name -> value, from the repetitions that produced timings."""
    timed = [r for r in reps if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    if not plain:
        raise RuntimeError("no repetition produced timings")
    if not trace:
        setups = [r["setup_scaled_s"] for r in reps if r.get("setup_scaled_s") is not None]
        return {
            "wall_s": statistics.median(r["wall_scaled_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_kib"] * 1024 / 1e6 for r in plain),
        }
    traced = [r for r in timed if r["traced"]]
    if not traced:
        raise RuntimeError("no traced repetition produced timings")
    per_rep, pooled = [], defaultdict(list)
    for r in traced:
        values, durations = span_metrics(r["spans"])
        values["diagnostics.bytes_written"] = r["bytes_written"]
        values["cli.import_s"] = r["import_s"]
        per_rep.append(values)
        for layer, d in durations.items():
            pooled[layer] += d
    metrics = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
    tendency_ms = [1e3 * d for d in pooled["model.tendency"]]
    metrics["model.tendency_ms_p50"] = statistics.median(tendency_ms)
    metrics["model.tendency_ms_p99"] = statistics.quantiles(tendency_ms, n=100, method="inclusive")[98]
    metrics["diagnostics.record_ms_p50"] = 1e3 * statistics.median(pooled["diagnostics.record"])
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    return metrics


def count_mismatches(reps: list[dict]) -> list[str]:
    """Traced repetitions of one seed must agree exactly on every count."""
    seen = [span_metrics(r["spans"])[0] for r in reps if r.get("spans")]
    return [name for name in COUNTS if len({v[name] for v in seen}) > 1]


# ---------------------------------------------------------------------------
# environment


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit() -> str:
    # The ceiling keeps git from taking a repository above the checkout for this one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(benchmark_seed: int | None, seed: int) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()} {kind.strip()}"] = size.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "benchmark_seed": benchmark_seed,
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement loop and entry point


def measure(spec: dict, seconds: float, trace: bool, workdir: Path, reference: dict | None) -> list[dict]:
    """Closed loop: one repetition at a time until the next would overrun,
    then, untraced, set-up-only repetitions (see MIN_SETUP_SAMPLES)."""
    kinds = (False, True) if trace else (False,)
    # Warm the page cache and the bytecode cache; not measured.
    subprocess.run([sys.executable, "-c", "import tcm2d.cli"], cwd=ROOT, env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)
    reps: list[dict] = []
    costs: list[float] = []
    deadline = time.monotonic() + seconds
    while True:
        traced = kinds[len(reps) % len(kinds)]
        started = time.monotonic()
        reps.append(run_repetition(spec, traced, workdir / f"rep{len(reps):03d}", reference))
        costs.append(time.monotonic() - started)
        if len(reps) >= MIN_REPS * len(kinds) and time.monotonic() + statistics.median(costs) > deadline:
            break
    # Set-up is a few milliseconds with file creation in it, so its median
    # needs more samples than the full repetitions give (3 on the sweep).
    costs = []
    while not trace and (len(reps) < MIN_SETUP_SAMPLES
                         or time.monotonic() + statistics.median(costs or [0.0]) <= deadline):
        started = time.monotonic()
        reps.append(run_repetition(spec, False, workdir / f"rep{len(reps):03d}", None, setup_only=True))
        costs.append(time.monotonic() - started)
    return reps


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: the repository's own)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tcm2d" / "__init__.py").is_file():
        print(f"error: no tcm2d package under {SRC}", file=sys.stderr)
        return 2
    seed = workloads.WORKLOADS[args.workload][1] if args.seed is None else workloads.workload_seed(args.seed)
    spec = workloads.spec(args.workload, seed)
    reference = load_reference(args.workload, seed)
    if reference is None:
        print(f"error: {REFERENCE.name} has no final-sample values for {args.workload} seed {seed}; "
              "run record_reference.py", file=sys.stderr)
        return 2
    env = environment(args.seed, seed)
    tag = f"{args.workload}_seed{seed}_trace{args.trace}"
    workdir = OUT_ROOT / f"{tag}_{os.getpid()}"
    try:
        reps = measure(spec, args.seconds, bool(args.trace), workdir, reference)
    except TraceWiringError as exc:
        print(f"error: traced run is miswired: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"rep {i}: {p}" for i, r in enumerate(reps) for p in r["problems"]]
    failed = sum(1 for r in reps if r["problems"])
    if args.trace:
        mismatched = count_mismatches(reps)
        if mismatched:
            problems.append(f"counts differ between traced repetitions: {mismatched}")
    metrics = summarize(reps, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {seed}: {len(reps)} repetitions "
          f"({sum(r['traced'] for r in reps)} traced, {sum(r['setup_only'] for r in reps)} set-up only), "
          f"{failed} failed")
    for i, r in enumerate(reps):
        if r["setup_only"] and "setup_s" in r:
            print(f"  rep {i} set-up: setup {r['setup_s']:.6f} s (scaled {r['setup_scaled_s']:.6f})")
        elif "wall_s" in r:
            print(f"  rep {i} {'traced' if r['traced'] else 'plain '}: wall {r['wall_s']:.4f} s "
                  f"(scaled {r['wall_scaled_s']:.4f}), setup {r['setup_s']} s, "
                  f"calibration {1e3 * r['calibration_pass_s']:.4f} ms/pass "
                  f"({r['calibration_slices']} slices), "
                  f"import {r['import_s']:.4f} s, peak rss {r['peak_rss_kib'] * 1024 / 1e6:.1f} MB")
    for p in problems:
        print(f"  FAIL {p}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")

    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "spec": spec, "metrics": metrics, "problems": problems,
              "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps]}
    (OUT_ROOT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
