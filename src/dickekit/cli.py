"""Command-line front end.

Subcommands map one-to-one onto library operations; the CLI performs no
computation of its own.  Documents are emitted on stdout as JSON (default for
single results) or CSV (default for sweeps) with every numeric field printed
at 17 significant digits, so outputs round-trip bit for bit.

Exit codes: 0 success, 2 domain error (bad inputs), 3 invariant violation
(library self-check failure).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from . import selftest
from .collective import (
    CRITERION_KINDS,
    criterion_verdict,
    lemma1_bound,
    superradiance_intensity,
)
from .config import DEFAULT_RESTARTS, DEFAULT_TOLERANCES, Tolerances, with_overrides
from .errors import DomainError, InvariantViolationError
from .fidelity import fidelity_witness_verdict, verify_appendix_inequality
from .operators import QuadraticForm, collective_operator
from .oracle import max_eigenvalue, maximize_over_biseparable, maximize_over_product_states
from .states import dicke_state, dicke_symmetric, psixy_noise_mix, white_noise_mix
from .verdicts import WitnessVerdict

# Caps on sizes taken from the command line, checked before any work starts.
MAX_RESTARTS = 10_000
MAX_GRID_STEPS = 10_000


@dataclass
class RunConfig:
    """Validated arguments of one CLI invocation."""

    command: str
    n: int | None = None
    m: int | None = None
    criterion: str | None = None
    m_signed: int | None = None
    phi: float = 0.0
    p: float = 0.0
    grid: tuple[float, float, int] | None = None
    noise: str = "white"
    seed: int = 0
    restarts: int = DEFAULT_RESTARTS
    output_format: str = "json"
    state: str = "dicke"
    form_a: tuple[float, float, float] = (1.0, 1.0, 0.0)
    form_b: tuple[float, float, float] = (0.0, 0.0, 0.0)
    i0: float = 1.0
    oracle_mode: str | None = None
    only: int | None = None
    verbose: bool = False
    tolerance_overrides: dict = field(default_factory=dict)

    @property
    def tolerances(self) -> Tolerances:
        return with_overrides(DEFAULT_TOLERANCES, self.tolerance_overrides)


@dataclass(frozen=True)
class SweepRow:
    p: float
    value: float
    bound: float
    margin: float
    detected: str


# ---------------------------------------------------------------------------
# document formatting: 17 significant digits everywhere
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise DomainError(f"refusing to write the non-finite number {x} into a document")
    return f"{x:.17g}"


def _to_json(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_to_json(str(k))}: {_to_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines)


def _verdict_doc(verdict: WitnessVerdict, output_format: str) -> str:
    if output_format == "csv":
        return _csv(
            ["criterion_id", "value", "bound", "margin", "detected"],
            [[verdict.criterion_id, verdict.value, verdict.bound, verdict.margin, verdict.detected]],
        )
    return _to_json(
        {
            "criterion_id": verdict.criterion_id,
            "value": verdict.value,
            "bound": verdict.bound,
            "margin": verdict.margin,
            "detected": verdict.detected,
        }
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_triple(text: str, what: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"{what} must be three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"{what}: {exc}") from exc


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must look like start:stop:steps, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"grid: {exc}") from exc
    if not 2 <= steps <= MAX_GRID_STEPS:
        raise DomainError(f"grid needs 2 to {MAX_GRID_STEPS} steps, got {steps}")
    if start > stop:
        raise DomainError(f"grid start {start} must not exceed stop {stop}")
    return start, stop, steps


def _parse_tolerances(pairs: list[str]) -> dict:
    overrides = {}
    valid = set(Tolerances.__dataclass_fields__)
    for pair in pairs:
        name, _sep, value = pair.partition("=")
        if name not in valid:
            raise DomainError(f"unknown tolerance {name!r}; valid names: {sorted(valid)}")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise DomainError(f"tolerance {name}: {exc}") from exc
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickekit",
        description="Dicke states, entanglement witnesses, collective-spin criteria.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    common.add_argument("--format", choices=("json", "csv"), default=None, dest="output_format")
    common.add_argument(
        "--tolerance", action="append", default=[], metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dicke", parents=[common], help="print a Dicke state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="excitations (default n//2)")

    p = sub.add_parser("witness", parents=[common], help="fidelity witness verdict")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--state", choices=("dicke",), default="dicke")
    p.add_argument("--p", type=float, default=0.0, help="noise ratio mixed into the state")
    p.add_argument("--noise", choices=("white", "psixy"), default="white")
    p.add_argument("--phi", type=float, default=0.0)

    p = sub.add_parser("criterion", parents=[common], help="collective criterion verdict")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--criterion", choices=CRITERION_KINDS, required=True)
    p.add_argument("--m", type=int, default=None, help="Dicke excitations (default n//2)")
    p.add_argument("--m-signed", type=int, default=None, help="shift for crit2")
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--noise", choices=("white", "psixy"), default="white")
    p.add_argument("--phi", type=float, default=0.0)

    p = sub.add_parser("bound", parents=[common], help="separable bound of a quadratic form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="1,1,0", help="quadratic coefficients ax,ay,az")
    p.add_argument("--b", default="0,0,0", help="linear coefficients bx,by,bz")
    p.add_argument("--m-signed", type=int, default=None, help="use b = (0,0,-2m)")

    p = sub.add_parser("oracle", parents=[common], help="brute-force maximizations")
    p.add_argument("mode", choices=("product-max", "bisep-max", "eigmax"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="1,1,0")
    p.add_argument("--b", default="0,0,0")
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS,
                   help=f"seeded restarts per search (at most {MAX_RESTARTS})")

    p = sub.add_parser("sweep-noise", parents=[common], help="verdicts along a noise grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--criterion", choices=CRITERION_KINDS + ("fidelity",), required=True)
    p.add_argument("--grid", default="0:1:11",
                   help=f"start:stop:steps, with at most {MAX_GRID_STEPS} steps")
    p.add_argument("--noise", choices=("white", "psixy"), default="white")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--m-signed", type=int, default=None)
    p.add_argument("--phi", type=float, default=0.0)

    p = sub.add_parser("intensity", parents=[common], help="superradiance intensity of |m,N>")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--i0", type=float, default=1.0, help="single-atom radiation rate")
    p.add_argument("--p", type=float, default=0.0, help="white-noise ratio")

    p = sub.add_parser("verify-appendix", parents=[common], help="exhaustive overlap-bound check")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance suite")
    p.add_argument("--only", type=int, default=None, help="run a single criterion (1..10)")
    p.add_argument("--verbose", action="store_true", help="print every sub-check")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.seed = getattr(args, "seed", 0)
    cfg.tolerance_overrides = _parse_tolerances(getattr(args, "tolerance", []))
    fmt = getattr(args, "output_format", None)
    cfg.output_format = fmt if fmt else ("csv" if args.command == "sweep-noise" else "json")
    for name in ("n", "m", "criterion", "m_signed", "phi", "p", "noise", "state",
                 "restarts", "i0", "only", "verbose"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "a"):
        cfg.form_a = _parse_triple(args.a, "--a")
        cfg.form_b = _parse_triple(args.b, "--b")
        if getattr(args, "m_signed", None) is not None:
            cfg.form_b = (0.0, 0.0, -2.0 * args.m_signed)
    if hasattr(args, "mode"):
        cfg.oracle_mode = args.mode
        if not 1 <= cfg.restarts <= MAX_RESTARTS:
            raise DomainError(f"--restarts must be 1 to {MAX_RESTARTS}, got {cfg.restarts}")
    if hasattr(args, "grid"):
        cfg.grid = _parse_grid(args.grid)
    if cfg.n is not None and cfg.m is None:
        cfg.m = cfg.n // 2
    return cfg


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _noisy_state(cfg: RunConfig, p: float):
    if cfg.noise == "psixy":
        if cfg.m != cfg.n // 2:
            raise DomainError(
                f"--noise psixy mixes around |N/2,N>; --m must be {cfg.n // 2}, got {cfg.m}"
            )
        return psixy_noise_mix(cfg.n, p, cfg.phi)
    return white_noise_mix(dicke_state(cfg.n, cfg.m), p)


def _cmd_dicke(cfg: RunConfig) -> str:
    state = dicke_state(cfg.n, cfg.m)
    if cfg.output_format == "csv":
        rows = [[i, amp.real, amp.imag] for i, amp in enumerate(state.amplitudes)]
        return _csv(["index", "real", "imag"], rows)
    return _to_json(
        {
            "n": cfg.n,
            "m": cfg.m,
            "amplitudes": [[amp.real, amp.imag] for amp in state.amplitudes],
        }
    )


def _cmd_witness(cfg: RunConfig) -> str:
    state = _noisy_state(cfg, cfg.p)
    verdict = fidelity_witness_verdict(state, cfg.n, cfg.m, tol=cfg.tolerances)
    return _verdict_doc(verdict, cfg.output_format)


def _cmd_criterion(cfg: RunConfig) -> str:
    state = _noisy_state(cfg, cfg.p)
    verdict = criterion_verdict(state, cfg.criterion, m=cfg.m_signed, tol=cfg.tolerances)
    return _verdict_doc(verdict, cfg.output_format)


def _cmd_bound(cfg: RunConfig) -> str:
    form = QuadraticForm(a=cfg.form_a, b=cfg.form_b)
    value = lemma1_bound(form, cfg.n, tol=cfg.tolerances)
    if cfg.output_format == "csv":
        return _csv(
            ["n", "ax", "ay", "az", "bx", "by", "bz", "bound"],
            [[cfg.n, *cfg.form_a, *cfg.form_b, value]],
        )
    return _to_json({"n": cfg.n, "a": list(cfg.form_a), "b": list(cfg.form_b), "bound": value})


def _cmd_oracle(cfg: RunConfig) -> str:
    form = QuadraticForm(a=cfg.form_a, b=cfg.form_b)
    op = collective_operator(cfg.n, form)
    doc = {"mode": cfg.oracle_mode, "n": cfg.n, "a": list(cfg.form_a), "b": list(cfg.form_b)}
    if cfg.oracle_mode == "eigmax":
        doc["value"] = max_eigenvalue(op)
    elif cfg.oracle_mode == "product-max":
        result = maximize_over_product_states(op, restarts=cfg.restarts, seed=cfg.seed,
                                              tol=cfg.tolerances)
        doc.update(value=result.value, restarts_used=result.restarts_used, seed=result.seed)
    else:  # bisep-max
        result = maximize_over_biseparable(op, restarts=cfg.restarts, seed=cfg.seed,
                                           tol=cfg.tolerances)
        doc.update(value=result.value, restarts_used=result.restarts_used, seed=result.seed,
                   split=list(result.argument.split.side_a))
    if cfg.output_format == "csv":
        return _csv(list(doc.keys()), [[v if isinstance(v, str) else
                                        (",".join(map(_fmt, v)) if isinstance(v, list) else v)
                                       for v in doc.values()]])
    return _to_json(doc)


def sweep_noise(cfg: RunConfig) -> list[SweepRow]:
    """One verdict per grid point on the requested noise family."""
    start, stop, steps = cfg.grid
    if start < 0.0 or stop > 1.0:
        raise DomainError(f"noise grid must lie within [0, 1], got {start}:{stop}")
    rows = []
    for p in np.linspace(start, stop, steps):
        state = _noisy_state(cfg, float(p))
        if cfg.criterion == "fidelity":
            verdict = fidelity_witness_verdict(state, cfg.n, cfg.m, tol=cfg.tolerances)
        else:
            verdict = criterion_verdict(state, cfg.criterion, m=cfg.m_signed, tol=cfg.tolerances)
        rows.append(SweepRow(float(p), verdict.value, verdict.bound, verdict.margin,
                             verdict.detected))
    return rows


def _cmd_sweep(cfg: RunConfig) -> str:
    rows = sweep_noise(cfg)
    if cfg.output_format == "json":
        return _to_json(
            {
                "criterion": cfg.criterion,
                "noise": cfg.noise,
                "rows": [
                    {"p": r.p, "value": r.value, "bound": r.bound, "margin": r.margin,
                     "detected": r.detected}
                    for r in rows
                ],
            }
        )
    return _csv(
        ["p", "value", "bound", "margin", "detected"],
        [[r.p, r.value, r.bound, r.margin, r.detected] for r in rows],
    )


def _cmd_intensity(cfg: RunConfig) -> str:
    state = white_noise_mix(dicke_symmetric(cfg.n, cfg.m), cfg.p)  # O(N), no dense limit
    value = superradiance_intensity(state, i0=cfg.i0)
    if cfg.output_format == "csv":
        return _csv(["n", "m", "i0", "p", "intensity"],
                    [[cfg.n, cfg.m, cfg.i0, cfg.p, value]])
    return _to_json({"n": cfg.n, "m": cfg.m, "i0": cfg.i0, "p": cfg.p, "intensity": value})


def _cmd_verify_appendix(cfg: RunConfig) -> str:
    report = verify_appendix_inequality(cfg.n)
    if cfg.output_format == "csv":
        rows = [[n1, k, g] for (n1, k), g in sorted(report.table.items())]
        return _csv(["n1", "k", "g"], rows)
    return _to_json(
        {
            "n": report.n,
            "argmax": list(report.argmax),
            "max_value": report.max_value,
            "ok": True,
        }
    )


def _cmd_selftest(cfg: RunConfig) -> tuple[int, str]:
    results = selftest.run_all(only=cfg.only)
    if not results:
        raise DomainError(f"no criterion numbered {cfg.only}; valid range is 1..10")
    report = selftest.format_report(results, verbose=cfg.verbose)
    status = 0 if all(r.passed for r in results) else 3
    return status, report


def run(config: RunConfig) -> tuple[int, str]:
    """Dispatch a validated config; returns (exit status, document)."""
    handlers = {
        "dicke": _cmd_dicke,
        "witness": _cmd_witness,
        "criterion": _cmd_criterion,
        "bound": _cmd_bound,
        "oracle": _cmd_oracle,
        "sweep-noise": _cmd_sweep,
        "intensity": _cmd_intensity,
        "verify-appendix": _cmd_verify_appendix,
    }
    if config.command == "selftest":
        return _cmd_selftest(config)
    if config.command not in handlers:
        raise DomainError(f"unknown command {config.command!r}")
    return 0, handlers[config.command](config)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        status, document = run(config)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    print(document)
    return status


if __name__ == "__main__":
    sys.exit(main())
