
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

import dickekit as dk


def test_bound_examples():
    assert dk.dicke_fidelity_bound(4, 2) == pytest.approx(2 / 3, abs=1e-12)
    assert dk.dicke_fidelity_bound(3, 1) == pytest.approx(2 / 3, abs=1e-12)
    assert dk.dicke_fidelity_bound(6, 3) == pytest.approx(0.6, abs=1e-12)


def test_half_excited_closed_form():
    for n in (4, 6, 8, 10):
        assert dk.dicke_fidelity_bound(n, n // 2) == pytest.approx(n / (2 * (n - 1)), abs=1e-10)
        assert dk.max_biseparable_overlap(dk.dicke_state(n, n // 2)) == pytest.approx(
            n / (2 * (n - 1)), abs=1e-10
        )


def test_single_excitation_closed_form():
    for n in range(2, 11):
        assert dk.dicke_fidelity_bound(n, 1) == pytest.approx((n - 1) / n, abs=1e-10)


def test_two_qubits_fall_back_to_half():
    assert dk.dicke_fidelity_bound(2, 1) == pytest.approx(0.5, abs=1e-12)


def test_exact_bound_matches_the_exhaustive_table():
    # reference: every (N1, k) entry of the squared Schmidt table, exactly
    from fractions import Fraction

    for n in range(2, 40):
        for m in range(n + 1):
            best = max(
                Fraction(comb(n1, k) * comb(n - n1, m - k), comb(n, m))
                for n1 in range(1, n // 2 + 1)
                for k in range(max(0, m - (n - n1)), min(n1, m) + 1)
            )
            assert dk.dicke_fidelity_bound(n, m) == float(best), (n, m)


def _mode_integer_bound(n, m):
    """The exact bound from every split-size row's mode in big integers, with no
    log-space ranking: C(N1,k) C(N-N1,m-k) / C(N,m) at k = (N1+1)(m+1) // (N+2)."""
    best = 0
    for n1 in range(1, n // 2 + 1):
        k = (n1 + 1) * (m + 1) // (n + 2)
        best = max(best, comb(n1, k) * comb(n - n1, m - k))
    return best / comb(n, m)


@pytest.mark.parametrize("n", [*range(40, 161, 8), 999, 2000])
def test_log_space_ranking_picks_the_integer_maximum(n):
    ms = range(n + 1) if n <= 160 else sorted({0, 1, 2, 3, n // 7, n // 3, n // 2, n - 1, n})
    for m in ms:
        assert dk.dicke_fidelity_bound(n, m) == _mode_integer_bound(n, m), (n, m)


def test_exact_bound_is_kept_per_size_and_count():
    dk.fidelity._exact_bound.cache_clear()
    assert dk.dicke_fidelity_bound(8, 4) == dk.dicke_fidelity_bound(np.int64(8), np.int64(4)) == 4 / 7
    assert dk.fidelity._exact_bound.cache_info().hits == 1


def test_exact_bound_at_the_symmetric_limit():
    n = 10_000
    assert dk.dicke_fidelity_bound(n, n // 2) == n / (2 * (n - 1))
    assert dk.dicke_fidelity_bound(n, 1) == (n - 1) / n
    assert dk.dicke_fidelity_bound(n, 0) == dk.dicke_fidelity_bound(n, n) == 1.0  # every row ties


_NO_FRACTIONS = """
import sys

import dickekit
from dickekit import cli, selftest

loaded = {"fractions", "decimal"} & set(sys.modules)
assert not loaded, loaded
"""


def test_import_loads_neither_fractions_nor_decimal():
    # the child imports the dickekit this process imported, installed or not
    path = [str(Path(dk.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", _NO_FRACTIONS], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr


def test_exact_bound_at_large_n():
    for n in (400, 1000):
        assert dk.dicke_fidelity_bound(n, n // 2) == pytest.approx(n / (2 * (n - 1)), rel=1e-15)
        assert dk.dicke_fidelity_bound(n, 1) == pytest.approx((n - 1) / n, rel=1e-15)


@pytest.mark.parametrize("n,m", [(1, 0), (4, 5), (4, -1), (4, True), (True, 0)])
def test_bound_domain_errors(n, m):
    with pytest.raises(dk.DomainError):
        dk.dicke_fidelity_bound(n, m)


def test_verdict_on_pure_target():
    verdict = dk.fidelity_witness_verdict(dk.dicke_state(4, 2), 4, 2)
    assert verdict.value == pytest.approx(1.0, abs=1e-12)
    assert verdict.bound == pytest.approx(2 / 3, abs=1e-12)
    assert verdict.detected == dk.DETECTED_GENUINE
    assert verdict.margin == verdict.value - verdict.bound


def test_verdict_on_maximally_mixed():
    verdict = dk.fidelity_witness_verdict(dk.white_noise_mix(dk.dicke_state(4, 2), 1.0).to_density(), 4, 2)
    assert verdict.value == pytest.approx(1 / 16, abs=1e-12)
    assert verdict.detected == dk.DETECTED_NONE


def test_verdict_on_noisy_target():
    rho = dk.white_noise_mix(dk.dicke_state(4, 2), 0.3)
    verdict = dk.fidelity_witness_verdict(rho, 4, 2)
    assert verdict.value == pytest.approx(0.71875, abs=1e-12)
    assert verdict.detected == dk.DETECTED_GENUINE


@pytest.mark.filterwarnings("error")  # refused before any arithmetic can warn
def test_verdict_refuses_a_nan_noise_phase():
    with pytest.raises(dk.DomainError):
        dk.fidelity_witness_verdict(dk.psixy_noise_mix(4, 0.5, float("nan")), 4, 2)


def test_verdict_dimension_mismatch():
    with pytest.raises(dk.DomainError):
        dk.fidelity_witness_verdict(dk.dicke_state(3, 1), 4, 2)


@pytest.mark.parametrize("state", [
    dk.white_noise_mix(dk.dicke_state(4, 2), 0.3), dk.psixy_noise_mix(4, 0.4, 0.2),
    dk.dicke_symmetric(6, 3), dk.white_noise_mix(dk.dicke_state(4, 1), 0.2).to_density(),
], ids=["white", "psixy", "symmetric", "density"])
def test_fidelity_is_a_kind_of_criterion_verdict_that_reads_no_moments(state):
    n = state.n_qubits
    verdict = dk.criterion_verdict(state, "fidelity", n // 2)
    assert verdict == dk.fidelity_witness_verdict(state, n, n // 2)
    assert verdict.criterion_id == "fidelity" and verdict.bound == dk.dicke_fidelity_bound(n, n // 2)
    assert "_moments" not in vars(state)  # the overlap needs no collective moment


def test_margin_is_affine_with_single_crossing():
    target = dk.dicke_state(4, 2)
    grid = np.linspace(0, 1, 21)
    margins = np.array(
        [dk.fidelity_witness_verdict(dk.white_noise_mix(target, p), 4, 2).margin for p in grid]
    )
    slope, intercept = np.polyfit(grid, margins, 1)
    assert np.abs(margins - (slope * grid + intercept)).max() < 1e-10
    assert np.count_nonzero(np.diff(np.sign(margins))) == 1


def test_appendix_small_cases():
    report = dk.verify_appendix_inequality(4)
    assert report.argmax == (2, 1)
    assert report.max_value == 4
    report = dk.verify_appendix_inequality(8)
    assert report.max_value == 40
    # ratio of even split-size maxima: h4/h2 = (3/4)(6/5)
    assert report.h_values[3] / report.h_values[1] == pytest.approx(0.9)


def test_appendix_all_even_sizes():
    for n in range(4, 21, 2):
        report = dk.verify_appendix_inequality(n)
        assert report.argmax == (2, 1)
        assert all(isinstance(v, int) for v in report.table.values())


@pytest.mark.parametrize("n", [2, 5, 66])
def test_appendix_domain_errors(n):
    with pytest.raises(dk.DomainError):
        dk.verify_appendix_inequality(n)


@pytest.mark.parametrize("n,restarts", [(4, 64), (6, 8)])
def test_biseparable_overlap_never_exceeds_bound(n, restarts):
    target = dk.dicke_state(n, n // 2).amplitudes
    projector = dk.HermitianOperator(np.outer(target, target.conj()))
    best = dk.maximize_over_biseparable(projector, restarts=restarts, seed=0).value
    assert best <= dk.dicke_fidelity_bound(n, n // 2) + 1e-9
