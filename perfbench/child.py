"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json OUT_DIR

SPEC.json is written by run.py (see workloads.spec).  The repetition imports
tcm2d from the checkout's src/, runs the workload through the public entry
points (parse_run_config + execute_run, or parse_sweep + execute_sweep) into
OUT_DIR, and writes its timings, peak RSS and, when traced, its spans to
RESULT.json.  Nothing from numpy or scipy is imported before tcm2d, so the
import time is what ``tcm2d run`` pays.

The repetition also times short slices of a fixed numpy/scipy kernel
(``make_calibration``): one right before the workload, one right after it
and, when untraced, one where set-up ends (at the first entry into the time
integrator) and one after each diagnostics sample that comes at least
SLICE_EVERY_S after the previous slice.  Slice time is left out of wall_s.
``wall_scaled_s`` and ``setup_scaled_s`` scale each stretch of program time
between two slices to the host speed at which one pass of the kernel takes
CALIBRATION_REF_PASS_S, by the ratio of that time to the mean time per pass
of the two slices raised to SPEED_EXPONENT, so that the drifting speed of a
shared host moves the scaled times little.

With "setup_only" in SPEC.json the repetition stops after the slice where
set-up ends and reports set-up times only.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import EXIT_WIRING, TraceWiringError, Tracer

CALIBRATION_N = 120
SLICE_PASSES = 20
SLICE_EVERY_S = 0.25
# About the kernel's median time per pass on the shared host the benchmark
# was defined on, where raw times drifted by up to 35 % between sets of runs
# and the kernel drifted with them; there, scaled times read within about
# 20 % of raw ones.
CALIBRATION_REF_PASS_S = 2.1e-3
# Program time follows the kernel's time less than in proportion: over 342
# repetitions of the three workloads there, the logarithm of a
# repetition's raw wall time against that of the kernel's time per pass had
# slopes of 0.66-0.79 (correlation 0.90-0.96; noise in the kernel's time
# biases such a slope low).  Scaling in full proportion left the medians of
# ten runs spread by up to 0.12, and by this power by up to 0.07.
SPEED_EXPONENT = 0.8


class SetUpDone(Exception):
    """Raised at the first entry into the time integrator of a set-up-only run."""


def make_calibration():
    """A fixed kernel timed as the host-speed yardstick; returns its timer.

    Its mix follows the workloads: real 2-D transforms, pointwise products
    and a little interpreted Python.  Every array it makes is smaller than
    glibc's initial mmap threshold (128 KiB), so it is served from the heap
    whatever the program allocated before: a kernel on (6, 128, 128) batches
    ran 30 % slower before the workload than after it.  Its transform length
    is one no workload uses.  The transforms are bound here, before a tracer
    wraps scipy.fft.
    """
    import numpy as np
    from scipy.fft import irfft2, rfft2

    n = CALIBRATION_N
    fields = list(np.random.default_rng(0).standard_normal((6, n, n)))
    k = np.linspace(0.0, 1.0, n * (n // 2 + 1)).reshape(n, n // 2 + 1)

    def calibration_s() -> float:
        start = time.perf_counter()
        for _ in range(SLICE_PASSES):
            ys = []
            for x in fields:
                c = rfft2(x)
                c *= k
                ys.append(irfft2(c, s=(n, n)))
            ys.append(ys[0] * ys[1] + ys[2] * ys[3] - ys[4] * ys[5])
            s = 0.0
            for i in range(200):
                s += i * 0.5
        return time.perf_counter() - start

    return calibration_s


def main(spec_path: str, result_path: str, out_dir: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()

    t_import = time.perf_counter()
    import tcm2d
    import tcm2d.cli as cli

    t_ready = time.perf_counter()
    if src not in Path(tcm2d.__file__).resolve().parents:
        raise SystemExit(f"tcm2d imported from {tcm2d.__file__}, not from {src}")

    calibration_s = make_calibration()
    calibration_s()  # warms the allocator and plans the transforms; not used
    slices: list[tuple[float, float, float]] = []  # (start, end, time per pass)

    def run_slice() -> None:
        start = time.perf_counter()
        per_pass = calibration_s() / SLICE_PASSES
        slices.append((start, time.perf_counter(), per_pass))

    def scaled(t0: float, t1: float) -> float:
        """Program time in [t0, t1] at the reference host speed."""
        total = 0.0
        for (_, a_end, a_pass), (b_start, _, b_pass) in zip(slices, slices[1:]):
            stretch = min(t1, b_start) - max(t0, a_end)
            if stretch > 0:
                total += stretch * (CALIBRATION_REF_PASS_S / ((a_pass + b_pass) / 2)) ** SPEED_EXPONENT
        return total

    run_slice()

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    def slicing(sink):
        """``sink``, then a calibration slice if the last one is SLICE_EVERY_S old."""
        last = time.perf_counter()

        def sink_and_slice(*args):
            nonlocal last
            sink(*args)
            if time.perf_counter() - last >= SLICE_EVERY_S:
                run_slice()
                last = time.perf_counter()

        return sink_and_slice

    # Set-up ends where execute_run hands the initial state to the time
    # integrator.  Only the first entry counts (a sweep integrates each cell).
    # Traced repetitions run no slices, so that their spans hold the program only.
    integrate = cli.integrate
    first_integrate: list[float] = []

    def mark_integrate(initial, params, stepper, sink=None):
        if not first_integrate:
            first_integrate.append(time.perf_counter())
            if tracer is None:
                run_slice()  # closes the set-up stretch
        if spec["setup_only"]:
            raise SetUpDone
        if tracer is None and sink is not None:
            sink = slicing(sink)
        return integrate(initial, params, stepper, sink)

    cli.integrate = mark_integrate

    t_start = time.perf_counter()
    try:
        if spec["kind"] == "run":
            config = cli.parse_run_config(spec["doc"])
            exit_code = cli.execute_run(config, out_dir, quiet=True).exit_code
        else:
            base, cells, threads = cli.parse_sweep(spec["doc"])
            exit_code = cli.execute_sweep(base, cells, out_dir, threads=threads, quiet=True)
    except SetUpDone:
        Path(result_path).write_text(json.dumps({
            "import_s": t_ready - t_import,
            "setup_s": first_integrate[0] - t_start,
            "setup_scaled_s": scaled(t_start, first_integrate[0]),
        }))
        return 0
    t_done = time.perf_counter()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    in_workload_s = sum(end - start for start, end, _ in slices[1:])
    run_slice()

    result = {
        "exit_code": exit_code,
        "import_s": t_ready - t_import,
        "setup_s": first_integrate[0] - t_start if first_integrate else None,
        "setup_scaled_s": scaled(t_start, first_integrate[0]) if first_integrate else None,
        "wall_s": t_done - t_start - in_workload_s,
        "wall_scaled_s": scaled(t_start, t_done),
        "peak_rss_kib": peak_rss_kib,
        "calibration_slices": len(slices),
        "calibration_pass_s": statistics.fmean(per_pass for _, _, per_pass in slices),
    }
    if tracer is not None:
        tracer.check_coverage()
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(*sys.argv[1:4]))
    except TraceWiringError as exc:
        print(f"trace wiring error: {exc}", file=sys.stderr)
        sys.exit(EXIT_WIRING)
