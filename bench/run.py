"""dickekit benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload noisy-dense --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; dickekit is imported from its ``src``.
A run starts 3 to 7 fresh interpreters one after another.  Each imports
dickekit, builds its inputs from the seed and runs one untimed warm-up pass;
the time from its start to that point is one set-up sample.  The last one
then runs whole rounds of the workload's jobs for ``--seconds`` and checks
every output against values computed apart from dickekit.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the rounds run with spans around every call into dickekit and the metrics
are the per-layer ones.  Raw worker output goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("noisy-dense", "oracle-verify", "symmetric-large", "cli-cold")
# setup_s is the median of MIN_SETUPS to MAX_SETUPS set-ups, as many as fit
# in about SETUP_BUDGET_S, so short set-ups get more samples
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 6.0
DEADLINE_S = 170.0   # the whole run, all interpreters included


def worker_env() -> dict:
    """dickekit from this checkout, and no more BLAS threads than cores."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def run_worker(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Start one worker; return (seconds until it is ready, its summary)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv)} ended with status {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dickekit" / "__init__.py").is_file():
        print(f"error: no dickekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = OUT / f"{stem}.trace.jsonl"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--trace-file", str(trace_file)]
    env = worker_env()
    deadline = time.perf_counter() + DEADLINE_S
    try:
        # the first set-up's length decides how many more to sample
        setup_s, summary = run_worker(common + ["--setup-only"], env, deadline)
        setups, summaries = [setup_s], [summary]
        count = min(MAX_SETUPS, max(MIN_SETUPS, round(SETUP_BUDGET_S / setup_s)))
        for i in range(1, count):
            last = i == count - 1
            setup_s, summary = run_worker(common + ([] if last else ["--setup-only"]), env, deadline)
            setups.append(setup_s)
            summaries.append(summary)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    work = summaries[-1]
    if not work["job_s"]:
        print("error: no job completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = dict(work["layers"])
        metrics["import.dickekit_ms"] = statistics.median(s["import_s"] for s in summaries) * 1e3
    else:
        metrics = {
            "jobs_per_s": len(work["job_s"]) / work["timed_s"],
            "job_p50_ms": statistics.median(work["job_s"]) * 1e3,
            "peak_rss_mb": work["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
    result = {
        "correct": work["incorrect"] == 0,
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w") as raw:
        json.dump({"args": vars(args), "setup_s": setups, "workers": summaries, "result": result},
                  raw, indent=1)
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    units = {"jobs_per_s": "jobs/s", "peak_rss_mb": "MB", "setup_s": "s",
             "trace.overhead_pct": "%"}
    return units.get(metric, "us" if metric.endswith("_us") else "ms")


if __name__ == "__main__":
    sys.exit(main())
