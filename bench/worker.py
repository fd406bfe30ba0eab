"""One fresh interpreter of a benchmark run.

Imports dickekit from the checkout's ``src``, runs the workload's untimed
warm-up, prints ``ready``, and then, unless ``--setup-only`` is given, runs
whole rounds of jobs for about ``--seconds``: it stops after the round whose
end is likely nearest to that time.  The last line of stdout is a JSON
summary.  ``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

_t0 = time.perf_counter()
import dickekit  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# per-layer metric -> (span name, factor from seconds per call to the unit)
LAYERS = {
    "states.dicke_state_ms": ("states.dicke_state", 1e3),
    "states.noise_mix_ms": ("states.noise_mix", 1e3),
    "states.symmetric_state_ms": ("states.symmetric_state", 1e3),
    "operators.collective_operator_cold_ms": ("operators.collective_operator_cold", 1e3),
    "operators.collective_operator_ms": ("operators.collective_operator", 1e3),
    "operators.expectation_pure_us": ("operators.expectation_pure", 1e6),
    "operators.expectation_density_ms": ("operators.expectation_density", 1e3),
    "operators.expectation_symmetric_us": ("operators.expectation_symmetric", 1e6),
    "fidelity.witness_verdict_ms": ("fidelity.witness_verdict", 1e3),
    "fidelity.threshold_numeric_ms": ("fidelity.threshold_numeric", 1e3),
    "collective.criterion_verdict_dense_ms": ("collective.criterion_verdict_dense", 1e3),
    "collective.criterion_verdict_symmetric_ms": ("collective.criterion_verdict_symmetric", 1e3),
    "collective.crit2_verdict_ms": ("collective.crit2_verdict", 1e3),
    "collective.lemma1_bound_ms": ("collective.lemma1_bound", 1e3),
    "collective.threshold_numeric_ms": ("collective.threshold_numeric", 1e3),
    "collective.superradiance_intensity_us": ("collective.superradiance_intensity", 1e6),
    "oracle.product_max_ms": ("oracle.product_max", 1e3),
    "oracle.bisep_max_ms": ("oracle.bisep_max", 1e3),
    "oracle.max_eigenvalue_ms": ("oracle.max_eigenvalue", 1e3),
    "oracle.ti_max_ms": ("oracle.ti_max", 1e3),
    "oracle.sample_per_1k_ms": ("oracle.sample", 1e6),
    "cli.run_ms": ("cli.run", 1e3),
    "cli.process_ms": ("cli.process", 1e3),
}


class Runner:
    """Runs jobs one at a time, times each, and counts failures."""

    def __init__(self, tracer: tracing.Tracer):
        self.tracer = tracer
        self.next_job = 0
        self.job_s: list[float] = []
        self.attempted = self.failed = self.incorrect = 0

    def run(self, kind: str, call, phase: str) -> None:
        self.tracer.job, self.tracer.phase = self.next_job, phase
        self.next_job += 1
        status = "ok"
        start = time.perf_counter()
        try:
            call(self.tracer.span)
        except checks.CheckError as exc:
            status = "incorrect"
            print(f"check failed in {kind}: {exc}", file=sys.stderr)
        except Exception:  # a job that raises counts as failed; the run goes on
            status = "failed"
            print(f"job {kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
        end = time.perf_counter()
        self.tracer.record_job(kind, start, end, status)
        self.tracer.job = self.tracer.phase = None
        if phase == "timed":
            self.attempted += 1
            if status == "ok":
                self.job_s.append(end - start)
            else:
                self.failed += 1
                self.incorrect += status == "incorrect"


def layer_metrics(runner: Runner, workload, timed_s: float) -> dict:
    """Median seconds per call of every layer, converted to its unit.

    A layer's spans come from the timed rounds, else from the warm-up (the
    cold operator build happens there), else from the probe, which is run
    only for layers missing from both.
    """
    tracer = runner.tracer

    def per_call(span_name):
        for phase in ("timed", "warmup", "probe"):
            values = tracer.per_call(span_name, phase)
            if values:
                return values
        return []

    spans_in_rounds = sum(1 for span in tracer.spans if span[4] == "timed")
    span_cost = tracer.span_cost()
    runner.run("probe-workload", workload.probe, "probe")
    missing = {span for span, _factor in LAYERS.values() if not per_call(span)}
    runner.run("probe-layers", lambda span: workloads.layer_probe(span, missing), "probe")

    metrics = {}
    for metric, (span_name, factor) in LAYERS.items():
        values = per_call(span_name)
        if not values:
            raise RuntimeError(f"no span {span_name} recorded")
        metrics[metric] = statistics.median(values) * factor
    metrics["trace.job_p50_ms"] = statistics.median(runner.job_s) * 1e3
    metrics["trace.span_cost_us"] = span_cost * 1e6
    metrics["trace.overhead_pct"] = 100.0 * spans_in_rounds * span_cost / timed_s
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(dickekit.__file__).resolve().is_relative_to(SRC):
        print(f"dickekit came from {dickekit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer(enabled=bool(args.trace) and not args.setup_only)
    runner = Runner(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    for kind, call in workload.warmup():
        runner.run(kind, call, "warmup")
    print("ready", flush=True)
    summary = {"import_s": IMPORT_S, "ready_s": time.perf_counter() - _START}
    if not args.setup_only:
        rounds = 0
        start = time.perf_counter()
        while True:
            rounds += 1
            for kind, call in workload.round(rounds):
                runner.run(kind, call, "timed")
            timed_s = time.perf_counter() - start
            if timed_s + timed_s / rounds / 2 >= args.seconds:
                break  # of the rounds' ends, this one is likely nearest to --seconds
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        summary.update(
            rounds=rounds, timed_s=timed_s, attempted=runner.attempted, failed=runner.failed,
            incorrect=runner.incorrect, job_s=runner.job_s,
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        )
        if tracer.enabled:
            summary["layers"] = layer_metrics(runner, workload, timed_s)
            tracer.write(args.trace_file)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
