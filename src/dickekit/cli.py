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
from dataclasses import asdict, fields

import numpy as np

from .collective import (
    _NOISE_FAMILIES,
    CRITERION_KINDS,
    WitnessVerdict,
    _check_kind,
    criterion_verdict,
    lemma1_bound,
    superradiance_intensity,
)
from .config import DEFAULT_RESTARTS, DENSE_QUBIT_LIMIT, Tolerances
from .errors import DomainError, InvariantViolationError, _check_int, _check_real
from .oracle import (_check_bisep_qubits, max_eigenvalue, maximize_over_biseparable, maximize_over_product_states,
                     verify_appendix_inequality)
from .states import QuadraticForm, collective_operator, dicke_state, dicke_symmetric, psixy_noise_mix, white_noise_mix

# Caps on sizes taken from the command line, checked before any work starts.
MAX_RESTARTS = 10_000
MAX_GRID_STEPS = 10_000


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
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_to_json(str(k))}: {_to_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, list):  # one quoted cell of comma-joined numbers
        return '"' + ",".join(map(_fmt, x)) + '"'
    return _fmt(x)


def _csv(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(map(_cell, row)) for row in rows])


def _document(args: argparse.Namespace, doc: dict) -> str:
    """One result: a JSON object, or a one-row CSV whose header is its keys."""
    if args.output_format == "csv":
        return _csv(doc, [doc.values()])
    return _to_json(doc)


# ---------------------------------------------------------------------------
# argument parsing and validation
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
    _check_int(steps, "grid steps", 2, MAX_GRID_STEPS)
    _check_real(start, "noise grid start", 0.0, 1.0)
    _check_real(stop, "noise grid stop", start, 1.0)
    return start, stop, steps


def _parse_tolerances(pairs: list[str]) -> Tolerances:
    overrides = {}
    valid = [f.name for f in fields(Tolerances)]
    for pair in pairs:
        name, _sep, value = pair.partition("=")
        if name not in valid:
            raise DomainError(f"unknown tolerance {name!r}; valid names: {valid}")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise DomainError(f"tolerance {name}: {exc}") from exc
    return Tolerances(**overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickekit",
        description="Dicke states, entanglement witnesses, collective-spin criteria.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=None, dest="output_format")
    # only the commands that pass a Tolerances on to the library take --tolerance
    tolerant = argparse.ArgumentParser(add_help=False, parents=[common])
    tolerant.add_argument(
        "--tolerance", action="append", default=[], metavar="NAME=VALUE", dest="tol",
        help=f"set a tolerance, one of {[f.name for f in fields(Tolerances)]} (repeatable)",
    )
    # the commands that judge a noisy state around |m,N>
    noisy = argparse.ArgumentParser(add_help=False, parents=[tolerant])
    noisy.add_argument("--n", type=int, required=True)
    noisy.add_argument("--m", type=int, default=None, help="Dicke excitations (default n//2)")
    noisy.add_argument("--noise", choices=_NOISE_FAMILIES, default="white")
    noisy.add_argument("--phi", type=float, default=None, help="psixy phase (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dicke", parents=[common], help="print a Dicke state")
    p.set_defaults(handler=_cmd_dicke)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="excitations (default n//2)")

    p = sub.add_parser("witness", parents=[noisy], help="fidelity witness verdict")
    p.set_defaults(handler=_cmd_verdict, criterion="fidelity")
    p.add_argument("--p", type=float, default=0.0, help="noise ratio mixed into the state")

    p = sub.add_parser("criterion", parents=[noisy], help="verdict of any criterion kind")
    p.set_defaults(handler=_cmd_verdict)
    p.add_argument("--criterion", choices=CRITERION_KINDS, required=True)
    p.add_argument("--m-signed", type=int, default=None, help="shift for crit2")
    p.add_argument("--p", type=float, default=0.0, help="noise ratio mixed into the state")

    p = sub.add_parser("bound", parents=[common], help="separable bound of a quadratic form")
    p.set_defaults(handler=_cmd_bound)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="1,1,0", help="quadratic coefficients ax,ay,az")
    linear = p.add_mutually_exclusive_group()
    linear.add_argument("--b", default="0,0,0", help="linear coefficients bx,by,bz")
    linear.add_argument("--m-signed", type=int, default=None, help="use b = (0,0,-2m)")

    p = sub.add_parser("oracle", parents=[common], help="brute-force maximizations")
    p.set_defaults(handler=_cmd_oracle)
    p.add_argument("mode", choices=("product-max", "bisep-max", "eigmax"))
    p.add_argument("--n", type=int, required=True)
    # --seed and --restarts default to None so that eigmax, which runs no search, can refuse them
    p.add_argument("--seed", type=int, default=None, help="seed of the restarts' random starts")
    p.add_argument("--a", default="1,1,0")
    p.add_argument("--b", default="0,0,0")
    p.add_argument("--restarts", type=int, default=None,
                   help=f"seeded restarts per search (at most {MAX_RESTARTS})")

    p = sub.add_parser("sweep-noise", parents=[noisy], help="verdicts along a noise grid")
    p.set_defaults(handler=_cmd_sweep)
    p.add_argument("--criterion", choices=CRITERION_KINDS, required=True)
    p.add_argument("--m-signed", type=int, default=None, help="shift for crit2")
    p.add_argument("--grid", default="0:1:11",
                   help=f"start:stop:steps, with at most {MAX_GRID_STEPS} steps")

    p = sub.add_parser("intensity", parents=[common], help="superradiance intensity of |m,N>")
    p.set_defaults(handler=_cmd_intensity)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--i0", type=float, default=1.0, help="single-atom radiation rate")
    p.add_argument("--p", type=float, default=0.0, help="white-noise ratio")

    p = sub.add_parser("verify-appendix", parents=[common], help="exhaustive overlap-bound check")
    p.set_defaults(handler=_cmd_verify_appendix)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(handler=_cmd_selftest, output_format="text")  # it prints one text report
    p.add_argument("--only", type=int, default=None, help="run a single criterion (1..10)")
    p.add_argument("--verbose", action="store_true", help="print every sub-check")

    return parser


def _validate(args: argparse.Namespace) -> argparse.Namespace:
    """Normalize the parsed flags in place; a bad value raises DomainError
    before any work starts."""
    if args.output_format is None:
        args.output_format = "csv" if args.command == "sweep-noise" else "json"
    if hasattr(args, "a"):
        args.a, args.b = _parse_triple(args.a, "--a"), _parse_triple(args.b, "--b")
        if getattr(args, "m_signed", None) is not None:
            args.b = (0.0, 0.0, _check_real(-2 * args.m_signed, "--m-signed shift -2m"))
    if hasattr(args, "restarts"):
        given = [flag for flag, value in (("--restarts", args.restarts), ("--seed", args.seed))
                 if value is not None]
        args.restarts = DEFAULT_RESTARTS if args.restarts is None else args.restarts
        args.seed = 0 if args.seed is None else args.seed
        _check_int(args.restarts, "--restarts", 1, MAX_RESTARTS)
        _check_int(args.seed, "--seed", 0)
        if args.mode == "eigmax" and given:  # a top eigenvalue runs no seeded search
            raise DomainError(f"oracle eigmax does not read {', '.join(given)}")
        if args.mode == "bisep-max" and args.n <= DENSE_QUBIT_LIMIT:  # past it the operator is refused first
            _check_bisep_qubits(args.n)
    if hasattr(args, "tol"):
        args.tol = _parse_tolerances(args.tol)
    if hasattr(args, "grid"):
        args.grid = _parse_grid(args.grid)
    # bound, which takes no --criterion, always reads --m-signed
    if getattr(args, "m_signed", None) is not None and getattr(args, "criterion", "crit2") != "crit2":
        raise DomainError(f"{args.command} reads --m-signed only with --criterion crit2")
    if getattr(args, "criterion", None) == "crit2" and args.m_signed is None:
        raise DomainError(f"{args.command} --criterion crit2 needs --m-signed")
    if hasattr(args, "noise"):
        if args.phi is not None and args.noise != "psixy":
            raise DomainError(f"{args.command} reads --phi only with --noise psixy")
        args.phi = 0.0 if args.phi is None else args.phi
        if (args.grid[1] if args.command == "sweep-noise" else args.p) > 0:  # noise is mixed in
            _check_kind(args.criterion, args.n, args.noise)
    if getattr(args, "m", 0) is None:  # --m defaults to n//2
        args.m = args.n // 2
    if getattr(args, "noise", None) == "psixy" and args.m != args.n // 2:
        raise DomainError(f"--noise psixy mixes around |N/2,N>; --m must be {args.n // 2}, got {args.m}")
    return args


# ---------------------------------------------------------------------------
# command implementations: each returns (exit status, document)
# ---------------------------------------------------------------------------

def _noisy_state(args: argparse.Namespace, p: float):
    if args.noise == "psixy":
        return psixy_noise_mix(args.n, p, args.phi)
    return white_noise_mix(dicke_state(args.n, args.m), p)


def _verdict(args: argparse.Namespace, p: float) -> WitnessVerdict:
    """The verdict of the chosen kind on the state at noise ratio p."""
    m = args.m if args.criterion == "fidelity" else args.m_signed if args.criterion == "crit2" else None
    return criterion_verdict(_noisy_state(args, p), args.criterion, m=m, tol=args.tol)


def _cmd_verdict(args: argparse.Namespace) -> tuple[int, str]:
    return 0, _document(args, asdict(_verdict(args, args.p)))


def _cmd_sweep(args: argparse.Namespace) -> tuple[int, str]:
    rows = []
    for p in map(float, np.linspace(*args.grid)):
        row = {"p": p, **asdict(_verdict(args, p))}
        del row["criterion_id"]
        rows.append(row)
    if args.output_format == "csv":
        return 0, _csv(rows[0], [row.values() for row in rows])
    return 0, _to_json({"criterion": args.criterion, "noise": args.noise, "rows": rows})


def _cmd_dicke(args: argparse.Namespace) -> tuple[int, str]:
    state = dicke_state(args.n, args.m)
    if args.output_format == "csv":
        rows = [[i, amp.real, amp.imag] for i, amp in enumerate(state.amplitudes)]
        return 0, _csv(["index", "real", "imag"], rows)
    amplitudes = [[amp.real, amp.imag] for amp in state.amplitudes]
    return 0, _to_json({"n": args.n, "m": args.m, "amplitudes": amplitudes})


def _cmd_bound(args: argparse.Namespace) -> tuple[int, str]:
    value = lemma1_bound(QuadraticForm(a=args.a, b=args.b), args.n)
    if args.output_format == "csv":
        return 0, _csv(["n", "ax", "ay", "az", "bx", "by", "bz", "bound"],
                       [[args.n, *args.a, *args.b, value]])
    return 0, _to_json({"n": args.n, "a": list(args.a), "b": list(args.b), "bound": value})


def _cmd_oracle(args: argparse.Namespace) -> tuple[int, str]:
    op = collective_operator(args.n, QuadraticForm(a=args.a, b=args.b))
    doc = {"mode": args.mode, "n": args.n, "a": list(args.a), "b": list(args.b)}
    if args.mode == "eigmax":
        doc["value"] = max_eigenvalue(op)
    else:
        search = maximize_over_product_states if args.mode == "product-max" else maximize_over_biseparable
        result = search(op, restarts=args.restarts, seed=args.seed)
        doc.update(value=result.value, restarts_used=args.restarts, seed=args.seed)
        if args.mode == "bisep-max":
            doc["split"] = list(result.argument.split.side_a)
    return 0, _document(args, doc)


def _cmd_intensity(args: argparse.Namespace) -> tuple[int, str]:
    state = white_noise_mix(dicke_symmetric(args.n, args.m), args.p)  # O(N), no dense limit
    value = superradiance_intensity(state, i0=args.i0)
    return 0, _document(args, {"n": args.n, "m": args.m, "i0": args.i0, "p": args.p, "intensity": value})


def _cmd_verify_appendix(args: argparse.Namespace) -> tuple[int, str]:
    report = verify_appendix_inequality(args.n)
    if args.output_format == "csv":
        rows = [[n1, k, g] for (n1, k), g in sorted(report.table.items())]
        return 0, _csv(["n1", "k", "g"], rows)
    doc = {"n": report.n, "argmax": list(report.argmax), "max_value": report.max_value, "ok": True}
    return 0, _to_json(doc)


def _cmd_selftest(args: argparse.Namespace) -> tuple[int, str]:
    from . import selftest  # only this command reads the acceptance suite

    results = selftest.run_all(only=args.only)
    report = selftest.format_report(results, verbose=args.verbose)
    return (0 if all(r.passed for r in results) else 3), report


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Run a validated command; returns (exit status, document)."""
    return args.handler(args)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, document = run(_validate(args))
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
