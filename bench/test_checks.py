"""The benchmark's checks accept the expected outputs and reject perturbed ones.

Every check is run once on values that are right and then on copies with one
value moved beyond its tolerance, so no check can pass vacuously.  Run from
the root of the repository:

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks as ck  # noqa: E402


def bump(x: float) -> float:
    """Move x by 1e-3 of its size: beyond every tolerance in checks.py at the
    sizes used here."""
    return x + 1e-3 * max(1.0, abs(x))


def verdict(value: float, bound: float, positive: str) -> SimpleNamespace:
    margin = value - bound
    return SimpleNamespace(value=value, bound=bound, margin=margin,
                           detected=positive if margin > 0 else ck.NONE)


def wrong_verdicts(v: SimpleNamespace, positive: str):
    """Copies of ``v`` with exactly one thing wrong; the rest stays consistent."""
    yield verdict(bump(v.value), v.bound, positive)
    yield verdict(v.value, bump(v.bound), positive)
    yield SimpleNamespace(value=v.value, bound=v.bound, margin=bump(v.margin), detected=v.detected)
    flipped = ck.NONE if v.detected != ck.NONE else positive
    yield SimpleNamespace(value=v.value, bound=v.bound, margin=v.margin, detected=flipped)


def rejects(check, *args) -> None:
    with pytest.raises(ck.CheckError):
        check(*args)


def test_close_rejects_moved_and_non_finite_values():
    ck.close("x", 2.0, 2.0)
    rejects(ck.close, "x", bump(2.0), 2.0)
    rejects(ck.close, "x", math.nan, 2.0)
    rejects(ck.close, "x", math.inf, math.inf)
    rejects(ck.close, "x", "two", 2.0)


@pytest.mark.parametrize("check, want", [
    (lambda p: ck.close("fidelity threshold", p, ck.fidelity_threshold(8)), ck.fidelity_threshold(8)),
    (lambda p: ck.close("theorem2 threshold", p, ck.collective_threshold(8)), 1.0 / 8),
    (lambda b: ck.close("lemma1", b, ck.crit2_bound(10000, 4), ck.SOLVER_RTOL), ck.crit2_bound(10000, 4)),
    (lambda v: ck.product_maximum(5, (0.3, 1.2, 0.1), v), ck.product_max((0.3, 1.2, 0.1), 5)),
    (lambda v: ck.top_eigenvalue(5, v), 2.5 * 3.5 - 0.25),
])
def test_scalar_checks_reject_a_moved_value(check, want):
    check(want)
    rejects(check, bump(want))


@pytest.mark.parametrize("noise", ["white", "psixy"])
@pytest.mark.parametrize("p", [0.05, 0.6])
def test_noisy_mixture_rejects_each_wrong_output(noise, p):
    n = 8
    fid, xy, var = ck.noisy_moments(n, noise, p)
    good = [verdict(fid, ck.fidelity_bound_half(n), ck.GENUINE),
            verdict(xy, ck.theorem2_bound(n), ck.ENTANGLED),
            verdict(var, ck.theorem2_bound(n), ck.ENTANGLED)]
    ck.noisy_mixture(n, noise, p, *good, 0.0)
    rejects(ck.noisy_mixture, n, noise, p, *good, bump(0.0))
    for i, positive in enumerate((ck.GENUINE, ck.ENTANGLED, ck.ENTANGLED)):
        for wrong in wrong_verdicts(good[i], positive):
            rejects(ck.noisy_mixture, n, noise, p, *good[:i], wrong, *good[i + 1:], 0.0)


def test_noisy_moments_match_the_paper_thresholds():
    """The closed forms agree with each other: the theorem2 margin of white
    noise crosses zero at 1/N, and the fidelity margin at the fidelity
    threshold."""
    for n in (4, 6, 8, 10):
        _f, xy, _v = ck.noisy_moments(n, "white", ck.collective_threshold(n))
        assert abs(xy - ck.theorem2_bound(n)) < 1e-12 * xy
        fid, _x, _v = ck.noisy_moments(n, "white", ck.fidelity_threshold(n))
        assert abs(fid - ck.fidelity_bound_half(n)) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_ordering_rejects_each_wrong_maximum(n):
    good = [ck.product_max((1.0, 1.0, 0.0), n), ck.xy_biseparable_max(n), ck.xy_top_eigenvalue(n)]
    ck.ordering(n, *good)
    for i in range(3):
        rejects(ck.ordering, n, *good[:i], bump(good[i]), *good[i + 1:])


def test_soundness_rejects_a_sample_above_the_bound():
    ck.soundness("s", [1.0, 2.0, 3.0], 3.0)
    rejects(ck.soundness, "s", [1.0, bump(3.0), 2.0], 3.0)
    rejects(ck.soundness, "s", [], 3.0)


@pytest.mark.parametrize("m", [0, 300, 500, None])
def test_symmetric_state_rejects_each_wrong_output(m):
    n = 1000
    if m is None:
        z, xy, var = 0.0, ck.theorem2_bound(n), n / 4.0
        jz_verdict = None
    else:
        z = m - n / 2.0
        xy = var = ck.max_spin(n) - z * z
        jz_verdict = verdict(n / 4.0 - z * z, 0.0, ck.ENTANGLED)
    good = [xy + z,
            verdict(xy, ck.theorem2_bound(n), ck.ENTANGLED),
            verdict(var, ck.theorem2_bound(n), ck.ENTANGLED),
            jz_verdict,
            z]
    ck.symmetric_state(n, m, *good)
    rejects(ck.symmetric_state, n, m, bump(good[0]), *good[1:])
    rejects(ck.symmetric_state, n, m, *good[:4], bump(good[4]))
    for i in (1, 2, 3) if m is not None else (1, 2):
        for wrong in wrong_verdicts(good[i], ck.ENTANGLED):
            rejects(ck.symmetric_state, n, m, *good[:i], wrong, *good[i + 1:])


def test_crit2_rejects_each_wrong_output():
    n, m, shift = 2000, 700, 5
    z = m - n / 2.0
    good = verdict(ck.max_spin(n) - z * z - 2 * shift * z, ck.crit2_bound(n, shift), ck.ENTANGLED)
    ck.crit2(n, m, shift, good)
    for wrong in wrong_verdicts(good, ck.ENTANGLED):
        rejects(ck.crit2, n, m, shift, wrong)


def test_dicke_amplitudes_reject_a_moved_or_missing_amplitude():
    n, m = 4, 2
    w = 1.0 / math.sqrt(6.0)
    good = [[w if bin(i).count("1") == m else 0.0, 0.0] for i in range(2 ** n)]
    ck.dicke_amplitudes(n, m, good)
    for index, part in ((3, 0), (3, 1), (4, 0)):  # |0011>, its imaginary part, |0100>
        moved = [row[:] for row in good]
        moved[index][part] = bump(moved[index][part])
        rejects(ck.dicke_amplitudes, n, m, moved)
    rejects(ck.dicke_amplitudes, n, m, good[:-1])


def test_appendix_rejects_a_wrong_document():
    good = {"n": 10, "argmax": [2, 1], "max_value": 2 * math.comb(8, 4), "ok": True}
    ck.appendix(10, good)
    for key, wrong in (("max_value", good["max_value"] + 1), ("argmax", [1, 1]), ("ok", False), ("n", 12)):
        rejects(ck.appendix, 10, {**good, key: wrong})


# ---------------------------------------------------------------------------
# the checks on CLI documents, applied to real documents and perturbed copies
# ---------------------------------------------------------------------------

def _cli_cases():
    import workloads
    from dickekit import cli

    for argv, check in workloads.CliCold._commands(random.Random(7)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        yield pytest.param(argv, check, out.getvalue(), id=argv[0])


def _perturbed(command: str, document: str):
    if command == "sweep-noise":
        lines = document.splitlines()
        cells = lines[2].split(",")
        cells[1] = repr(bump(float(cells[1])))
        lines[2] = ",".join(cells)
        yield "\n".join(lines)
        return
    doc = json.loads(document)
    if command == "dicke":
        amps = doc["amplitudes"]
        i = next(k for k, (re, _im) in enumerate(amps) if re)
        amps[i] = [bump(amps[i][0]), amps[i][1]]
        yield json.dumps(doc)
        return
    key = {"bound": "bound", "oracle": "value", "intensity": "intensity",
           "verify-appendix": "max_value"}.get(command, "value")
    yield json.dumps({**doc, key: doc[key] + 1 if isinstance(doc[key], int) else bump(doc[key])})
    if "detected" in doc:
        yield json.dumps({**doc, "detected": "none" if doc["detected"] != "none" else "entangled"})
    yield json.dumps({**doc, key: math.nan})


@pytest.mark.parametrize("argv, check, document", _cli_cases())
def test_cli_document_checks_reject_perturbed_documents(argv, check, document):
    check(document)
    for wrong in _perturbed(argv[0], document):
        rejects(check, wrong)
