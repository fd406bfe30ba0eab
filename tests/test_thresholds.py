"""Noise thresholds of |N/2,N>: both routes for every (kind, noise) pair a
kind judges, and the root finder behind the numeric route."""

import re
from itertools import product
from math import comb, sqrt

import numpy as np
import pytest

import dickekit as dk
from dickekit.collective import _margin_crossing
from dickekit.config import SOUNDNESS_TOL

# (kind, noise): the threshold, derived by hand from the margin of the noisy
# |N/2,N> (psixy noise at phase 0, along x)
_BY_HAND = {
    ("theorem2", "white"): lambda n: 1 / n,
    ("theorem2", "psixy"): lambda n: 1.0,
    # <Jx> = <Jy> = 0 under white noise, so the margin is Theorem 2's
    ("variance", "white"): lambda n: 1 / n,
    # margin N/4 - pN/4 - p^2 N^2/4, with <Jx> = pN/2
    ("variance", "psixy"): lambda n: (sqrt(4 * n + 1) - 1) / (2 * n),
    # margin (1 - p) N/4
    ("symmetric_jz", "psixy"): lambda n: 1.0,
    # shift 0 makes crit2 the Theorem 2 form with the Theorem 2 bound
    ("crit2", "white"): lambda n: 1 / n,
    ("crit2", "psixy"): lambda n: 1.0,
    ("genuine4", "white"): lambda n: (2.5 - sqrt(3)) / 4,
    # value 6 - p against 7/2 + sqrt(3)
    ("genuine4", "psixy"): lambda n: 2.5 - sqrt(3),
    ("fidelity", "white"): lambda n: (n - 2) / (2 * (n - 1) * (1 - 2.0 ** -n)),
    # |<N/2,N|psixy>|^2 = C(N,N/2) 2^-N
    ("fidelity", "psixy"): lambda n: (n - 2) / (2 * (n - 1) * (1 - comb(n, n // 2) * 2.0 ** -n)),
}

# the pairs with a closed form in the library
_CLOSED = {("theorem2", "white"), ("theorem2", "psixy"), ("genuine4", "white"), ("fidelity", "white")}

# (kind, noise): start of the refusal of a pair with no threshold
_NO_THRESHOLD = {
    ("symmetric_jz", "white"): "symmetric_jz takes psixy noise only, got 'white'",
    ("genuine3", "psixy"): "genuine3 takes white noise only, got 'psixy'",
    # judged under white noise, but only at N = 3, which has no |N/2,N>
    ("genuine3", "white"): "genuine3 judges N = 3 only, while thresholds are those of |N/2,N> at even N",
}


def test_every_pair_has_a_threshold_or_a_refusal():
    pairs = set(product(dk.CRITERION_KINDS, ("white", "psixy")))
    assert set(_BY_HAND) | set(_NO_THRESHOLD) == pairs
    assert not set(_BY_HAND) & set(_NO_THRESHOLD)


@pytest.mark.parametrize("kind, noise, n", [
    pytest.param(kind, noise, n, id=f"{kind}-{noise}-{n}")
    for kind, noise in _BY_HAND
    for n in ((4,) if kind == "genuine4" else (4, 6, 8))
])
def test_both_routes_give_the_threshold(kind, noise, n):
    numeric = dk.collective_threshold_numeric(n, kind, noise)
    assert numeric == pytest.approx(_BY_HAND[kind, noise](n), abs=1e-12)
    if (kind, noise) in _CLOSED:
        closed = dk.collective_noise_threshold(n, kind, noise)
        assert closed == pytest.approx(_BY_HAND[kind, noise](n), rel=1e-15)
        assert numeric == pytest.approx(closed, abs=1e-12)
    else:
        with pytest.raises(dk.DomainError, match=f"no closed {noise}-noise threshold for kind '{kind}'"):
            dk.collective_noise_threshold(n, kind, noise)
    if (kind, noise) == ("fidelity", "white"):
        assert dk.fidelity_threshold_numeric(n) == numeric


@pytest.mark.parametrize("route", [dk.collective_noise_threshold, dk.collective_threshold_numeric])
@pytest.mark.parametrize("kind, noise, message", [
    *((kind, noise, message) for (kind, noise), message in _NO_THRESHOLD.items()),
    ("theorem2", "pink", "theorem2 takes white or psixy noise only, got 'pink'"),
    ("theorem5", "white", "criterion kind must be one of"),
])
def test_a_pair_without_a_threshold_is_refused(route, kind, noise, message):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        route(4, kind, noise)


@pytest.mark.parametrize("route", [dk.collective_noise_threshold, dk.collective_threshold_numeric])
@pytest.mark.parametrize("n, kind, noise, message", [
    (6, "genuine4", "white", "genuine4 applies to exactly 4 qubits, got n = 6"),
    (8, "genuine4", "psixy", "genuine4 applies to exactly 4 qubits, got n = 8"),
    (3, "theorem2", "white", "n must be an even integer >= 2, got 3"),
    (5, "theorem2", "psixy", "n must be an even integer >= 2, got 5"),
    # the overlap bound N/(2(N-1)) of |N/2,N> holds from N = 4
    (2, "fidelity", "white", "n must be an even integer >= 4, got 2"),
    # its one N is odd, so the refusal names the kind, not the parity of n
    (3, "genuine3", "white", "genuine3 judges N = 3 only, while thresholds are those of |N/2,N> at even N"),
])
def test_a_size_without_a_threshold_is_refused(route, n, kind, noise, message):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        route(n, kind, noise)


@pytest.mark.parametrize("k", range(1, 14))
def test_theorem2_calls_white_noise_at_its_threshold_undetected(k):
    # at p = 1/N the margin is exactly zero: N a power of two keeps every term exact
    n = 2 ** k
    verdict = dk.criterion_verdict(dk.white_noise_mix(dk.dicke_symmetric(n, n // 2), 2.0 ** -k), "theorem2")
    assert verdict.margin == 0.0 and verdict.detected == "none"


def test_fidelity_threshold_approaches_half():
    values = [dk.collective_noise_threshold(n, "fidelity") for n in (4, 8, 16, 32, 64)]
    assert values[0] == pytest.approx(16 / 45, abs=1e-15)
    assert all(v < 0.5 for v in values)
    assert np.all(np.diff(values) > 0)
    assert values[-1] > 0.49


def _counted(margin):
    """The margin with a list of the points it was evaluated at."""
    calls = []

    def counted(p):
        calls.append(p)
        return margin(p)

    return counted, calls


@pytest.mark.parametrize("margin, root, most", [
    (lambda p: 0.3 - p, 0.3, 3),  # affine: the first secant lands on the root
    (lambda p: 0.7 - p - 0.2 * p ** 2, (-1 + sqrt(1.56)) / 0.4, 10),
])
def test_margin_crossing_finds_the_root(margin, root, most):
    counted, calls = _counted(margin)
    assert _margin_crossing(counted) == pytest.approx(root, abs=1e-12)
    assert len(calls) <= most


def test_margin_crossing_bisects_a_secant_step_that_leaves_the_bracket():
    # from 0.125 the secant through (0, -0.5) steps to 8.0, so the bracket's midpoint 0.5625 is taken
    counted, calls = _counted(lambda p: 0.5 - 4.0 * p ** 3)
    assert _margin_crossing(counted) == pytest.approx(0.5, abs=1e-12)
    assert calls[2:4] == [0.125, 0.5625]


@pytest.mark.parametrize("at_one", [0.0, 1e-12, SOUNDNESS_TOL])
def test_margin_crossing_at_the_endpoint(at_one):
    counted, calls = _counted(lambda p: (1.0 - p) + at_one * p)
    assert _margin_crossing(counted) == 1.0
    assert calls == [0.0, 1.0]


@pytest.mark.parametrize("margin", [
    lambda p: -p,  # the noiseless state is not detected
    lambda p: 0.0,
    lambda p: 1.0 - p + 2 * SOUNDNESS_TOL * p,  # still detected at p = 1
])
def test_margin_crossing_refuses_a_margin_without_a_crossing(margin):
    with pytest.raises(dk.DomainError):
        _margin_crossing(margin)
