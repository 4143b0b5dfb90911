"""The benchmark's span tracer still finds every layer it times.

perfbench/tracer.py wraps the package's layer entry points by name
(``WRAP_POINTS``).  Its own tests lie outside this suite, so a refactor that
moved the tendency, the step, the step bound or the transforms off those names
would only show there.  This test installs the tracer's wrap points as they are
(imported, not copied) in a fresh interpreter, runs a small configuration
through parse_run_config and execute_run, once per viscosity branch of the
tendency, and checks the coverage and the counts per step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import json, math, sys
from collections import Counter

sys.path.insert(0, sys.argv[1])
from tracer import FFT_LAYER, WRAP_POINTS, Tracer

tracer = Tracer()
tracer.install(WRAP_POINTS)
import tcm2d.cli as cli

doc = {
    "grid": {"n": 16, "box_length": 2.0 * math.pi},
    "params": {"viscosity": sys.argv[3]},
    "stepper": {"t_end": 0.3, "sample_every": 0.1, "dt": "auto"},
    "seed": 3,
    "spectrum_peak": 2,
}
code = cli.execute_run(cli.parse_run_config(doc), sys.argv[2], quiet=True).exit_code
tracer.check_coverage()
spans = tracer.spans
tendency = {i for i, span in enumerate(spans) if span[0] == "model.tendency"}
print(json.dumps({
    "exit_code": code,
    "calls": Counter(span[0] for span in spans),
    "fields_in_tendency": sum(span[4] for span in spans if span[0] == FFT_LAYER and span[3] in tendency),
}))
"""


# Fields transformed per tendency call: 10 inverse and 9 forward with a
# variable law, 7 and 7 with the constant law (the branch the
# diagnostics-dense-n128 workload runs).
@pytest.mark.parametrize("viscosity, fields_per_call", [("quadratic", 19), ("constant", 14)], ids=["quadratic", "constant"])
def test_tracer_wraps_every_layer(tmp_path, viscosity, fields_per_call):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(tmp_path / "run"), viscosity],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit_code"] == 0
    calls = result["calls"]
    steps = calls["integrator.step"]
    assert steps >= 2
    # One evaluation per state visited plus stages 2-4 of each if-rk4 step, and
    # one bound per state stepped from, each through a wrapped name.
    assert calls["model.tendency"] == 4 * steps + 1
    assert calls["integrator.stable_dt"] == steps
    # Every transform of the tendency goes through a wrapped numpy.fft name.
    assert result["fields_in_tendency"] == fields_per_call * calls["model.tendency"]
