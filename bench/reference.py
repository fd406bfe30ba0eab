"""Reference figures: the ROADMAP baseline rows, measured once each.

    python3 bench/reference.py

Each row runs in a fresh interpreter, one after another, and reports its wall
time and that process's peak resident set.  Dense n = 12 rows need up to
about 2.5 GB and take up to a minute each, which is why they stay out of the
benchmark's workloads.  Prints one JSON object per row.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# in-process rows: (label, setup statements, timed statement)
CALLS = [
    ("collective_operator(12, Jx^2+Jy^2) cold",
     "form = dk.QuadraticForm(a=(1.0, 1.0, 0.0))", "dk.collective_operator(12, form)"),
    ("collective_operator(12, Jx^2+Jy^2) warm",
     "form = dk.QuadraticForm(a=(1.0, 1.0, 0.0)); dk.collective_operator(12, form)",
     "dk.collective_operator(12, form)"),
    ("expectation(dicke_state(12, 6), Jx^2+Jy^2) warm",
     "form = dk.QuadraticForm(a=(1.0, 1.0, 0.0)); s = dk.dicke_state(12, 6); dk.expectation(s, form)",
     "dk.expectation(s, form)"),
    ("white_noise_mix(dicke_state(12, 6), 0.3)",
     "s = dk.dicke_state(12, 6)", "dk.white_noise_mix(s, 0.3)"),
    ("superradiance_intensity(dicke_symmetric(10^4, 5000))",
     "s = dk.dicke_symmetric(10000, 5000); dk.superradiance_intensity(s)",
     "dk.superradiance_intensity(s)"),
]

COMMANDS = [
    ["witness", "--n", "12", "--p", "0.3"],
    ["criterion", "--n", "12", "--criterion", "theorem2", "--p", "0.1"],
    ["sweep-noise", "--n", "10", "--criterion", "theorem2", "--grid", "0:1:11"],
    ["dicke", "--n", "4"],
    ["selftest"],
]

CALL_SCRIPT = """
import resource, sys, time
sys.path.insert(0, {src!r})
import dickekit as dk
{setup}
start = time.perf_counter()
{timed}
elapsed = time.perf_counter() - start
print(elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def run(argv: list[str]) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and stdout of one child process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0, out


def main() -> int:
    for label, setup, timed in CALLS:
        script = CALL_SCRIPT.format(src=str(ROOT / "src"), setup=setup, timed=timed)
        _wall, _rss, out = run([sys.executable, "-c", script])
        elapsed, rss = (float(x) for x in out.split())
        print(json.dumps({"row": label, "seconds": elapsed, "peak_rss_mb": rss}), flush=True)
    for argv in COMMANDS:
        wall, rss, out = run([sys.executable, "-m", "dickekit.cli", *argv])
        row = {"row": "dickekit " + " ".join(argv), "seconds": wall, "peak_rss_mb": rss}
        if argv[0] == "selftest":
            row["criteria"] = [line.split()[1:4] for line in out.splitlines()
                               if line.startswith("criterion")]
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
