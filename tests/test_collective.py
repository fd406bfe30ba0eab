from dataclasses import fields
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickekit as dk


def test_lemma1_closed_form_examples():
    assert dk.lemma1_bound(dk.QuadraticForm(a=(1, 1, 0)), 4) == pytest.approx(5.0)
    assert dk.lemma1_bound(dk.QuadraticForm(a=(0, 0, 1)), 2) == pytest.approx(1.0)
    assert dk.lemma1_bound(dk.QuadraticForm(a=(1, 1, 1)), 4) == pytest.approx(6.0)


def test_lemma1_with_linear_terms():
    # f = N/4 + N(N-1) sz^2 + N sz maximized at sz = 1/2
    form = dk.QuadraticForm(a=(0, 0, 1), b=(0, 0, 1))
    assert dk.lemma1_bound(form, 2) == pytest.approx(2.0, abs=1e-8)
    # axis relabeling of the same problem
    form = dk.QuadraticForm(a=(1, 0, 0), b=(1, 0, 0))
    assert dk.lemma1_bound(form, 2) == pytest.approx(2.0, abs=1e-8)


def test_lemma1_interior_linear_optimum():
    # unconstrained vertex of the sz parabola sits inside the sphere:
    # B = n/2 + n(n-1)/4 + n m^2/(n-1) for the crit2 form at |m| <= (n-1)/2
    n, m = 4, 1
    form = dk.QuadraticForm(a=(1, 1, 0), b=(0, 0, -2 * m))
    expected = n / 2 + n * (n - 1) / 4 + n * m ** 2 / (n - 1)
    assert dk.lemma1_bound(form, n) == pytest.approx(expected, abs=1e-8)


def test_lemma1_rejects_negative_a():
    with pytest.raises(dk.DomainError):
        dk.lemma1_bound(dk.QuadraticForm(a=(1, -1, 0)), 3)


@pytest.mark.parametrize("b", [(0, 0, 0), (0, 0, -2)])
def test_lemma1_rejects_bool_sizes(b):
    for n in (True, np.bool_(True), 0):
        with pytest.raises(dk.DomainError):
            dk.lemma1_bound(dk.QuadraticForm(a=(1, 1, 0), b=b), n)


def test_theorem2_on_half_excited_dicke():
    verdict = dk.criterion_verdict(dk.dicke_state(4, 2), "theorem2")
    assert verdict.value == pytest.approx(6.0, abs=1e-10)
    assert verdict.bound == pytest.approx(5.0)
    assert verdict.detected == dk.DETECTED_ENTANGLED


_STRICT = dk.Tolerances(detection_tolerance=1e-12)


def test_theorem2_at_exact_threshold_noise():
    rho = dk.white_noise_mix(dk.dicke_state(4, 2), 0.25)
    verdict = dk.criterion_verdict(rho, "theorem2", tol=_STRICT)
    assert verdict.value == pytest.approx(5.0, abs=1e-10)
    assert verdict.detected == dk.DETECTED_NONE


def test_make_verdict_refuses_a_non_detection_class():
    for cls in (dk.DETECTED_NONE, "bogus"):
        with pytest.raises(dk.DomainError):
            dk.make_verdict("x", 1.0, 0.0, cls)


def test_make_verdict_reads_its_threshold_from_tolerances():
    assert dk.make_verdict("x", 2.0, 1.0, dk.DETECTED_ENTANGLED).detected == dk.DETECTED_ENTANGLED
    strict = dk.Tolerances(detection_tolerance=1.0)
    assert dk.make_verdict("x", 2.0, 1.0, dk.DETECTED_ENTANGLED, tol=strict).detected == dk.DETECTED_NONE
    with pytest.raises(dk.DomainError):  # a NaN threshold never reaches the comparison
        dk.make_verdict("x", 2.0, 1.0, dk.DETECTED_ENTANGLED, tol=dk.Tolerances(detection_tolerance=float("nan")))


def test_theorem2_saturated_by_equatorial_product():
    verdict = dk.criterion_verdict(dk.psixy_state(4, 0.7), "theorem2", tol=_STRICT)
    assert verdict.value == pytest.approx(5.0, abs=1e-10)
    assert verdict.detected == dk.DETECTED_NONE


def test_variance_criterion_never_beats_moment_criterion():
    for seed in range(30):
        state = next(dk.sample_random_states("pure", 4, 1, seed=seed))
        moments = dk.criterion_verdict(state, "theorem2")
        variances = dk.criterion_verdict(state, "variance")
        assert variances.value <= moments.value + 1e-10


def test_variance_criterion_detects_half_excited_dicke():
    verdict = dk.criterion_verdict(dk.dicke_state(4, 2), "variance")
    assert verdict.value == pytest.approx(6.0, abs=1e-10)  # <Jx> = <Jy> = 0
    assert verdict.detected == dk.DETECTED_ENTANGLED


def test_symmetric_jz_criterion():
    verdict = dk.criterion_verdict(dk.dicke_state(4, 2), "symmetric_jz")
    assert verdict.value == pytest.approx(1.0, abs=1e-10)  # N/4 - 0
    assert verdict.detected == dk.DETECTED_ENTANGLED
    ground = dk.criterion_verdict(dk.dicke_state(4, 0), "symmetric_jz")
    assert ground.detected == dk.DETECTED_NONE


def test_symmetric_jz_requires_maximal_spin():
    rho = dk.white_noise_mix(dk.dicke_state(4, 2), 0.5)
    with pytest.raises(dk.DomainError):
        dk.criterion_verdict(rho, "symmetric_jz")


def test_no_argument_lets_symmetric_jz_judge_a_state_outside_the_maximal_spin_sector():
    # the separable |01> has <J^2> = 1, not J(J+1) = 2: N/4 <= <Jz^2> does not
    # hold for it, so no setting of any tolerance may turn the refusal into a verdict
    state = dk.product_state([[1, 0], [0, 1]])
    loosest = dk.Tolerances(**{f.name: 1e9 for f in fields(dk.Tolerances)})
    for tol in (dk.DEFAULT_TOLERANCES, loosest):
        for m in (None, 0, 1):
            with pytest.raises(dk.DomainError, match="needs a maximal-spin state"):
                dk.criterion_verdict(state, "symmetric_jz", m=m, tol=tol)


def test_symmetric_jz_tolerance_scales_with_total_spin():
    # <J^2> = 2.5e7 at N = 10^4: an absolute 1e-8 sits below its roundoff
    state = dk.psixy_symmetric(10_000, 4.748431922814731)
    verdict = dk.criterion_verdict(state, "symmetric_jz")
    assert verdict.value == pytest.approx(0.0, abs=1e-6)  # N/4 - <Jz^2> on an equatorial state
    noisy = dk.white_noise_mix(dk.dicke_symmetric(10_000, 5_000), 0.01)
    with pytest.raises(dk.DomainError):
        dk.criterion_verdict(noisy, "symmetric_jz")


def test_crit2_requires_shift():
    with pytest.raises(dk.DomainError):
        dk.criterion_verdict(dk.dicke_state(4, 2), "crit2")


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_crit2_global_maximum_and_attainment(n):
    for m in range(-(n // 2), n // 2 + 1):
        form = dk.QuadraticForm(a=(1, 1, 0), b=(0, 0, -2.0 * m))
        op = dk.collective_operator(n, form)
        expected = (n / 2) * (n / 2 + 1) + m ** 2
        assert dk.max_eigenvalue(op) == pytest.approx(expected, abs=1e-10), (n, m)
        maximizer = dk.dicke_state(n, n // 2 - m)  # <Jz> = -m
        assert dk.expectation(maximizer, form) == pytest.approx(expected, abs=1e-10)


def test_crit2_verdict_detects_shifted_dicke():
    verdict = dk.criterion_verdict(dk.dicke_state(4, 1), "crit2", m=1)
    assert verdict.value == pytest.approx(7.0, abs=1e-10)  # 6 + m^2
    assert verdict.criterion_id == "crit2(m=1)"
    assert verdict.detected == dk.DETECTED_ENTANGLED


def test_genuine3_values():
    # Jx^2 + Jy^2 = J^2 - Jz^2 tops out at (3/2)(5/2) - 1/4 = 7/2 for three
    # qubits, attained by both single- and double-excitation Dicke states.
    for m in (1, 2):
        verdict = dk.criterion_verdict(dk.dicke_state(3, m), "genuine3")
        assert verdict.value == pytest.approx(3.5, abs=1e-12)
        assert verdict.bound == pytest.approx(2 + sqrt(5) / 2, abs=1e-15)
        assert verdict.detected == dk.DETECTED_GENUINE
    top = dk.max_eigenvalue(dk.collective_operator(3, dk.QuadraticForm(a=(1, 1, 0))))
    assert top == pytest.approx(3.5, abs=1e-12)


def test_genuine4_values():
    verdict = dk.criterion_verdict(dk.dicke_state(4, 2), "genuine4")
    assert verdict.value == pytest.approx(6.0, abs=1e-12)
    assert verdict.bound == pytest.approx(3.5 + sqrt(3), abs=1e-15)
    assert verdict.detected == dk.DETECTED_GENUINE


def test_genuine_criteria_require_matching_size():
    with pytest.raises(dk.DomainError):
        dk.criterion_verdict(dk.dicke_state(4, 2), "genuine3")
    with pytest.raises(dk.DomainError):
        dk.criterion_verdict(dk.dicke_state(3, 1), "genuine4")


def test_unknown_criterion_kind():
    with pytest.raises(dk.DomainError):
        dk.criterion_verdict(dk.dicke_state(3, 1), "theorem5")


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 5))
def test_planar_moment_rewrite_identity(seed, n):
    # <J^2> - bound - <Jz^2> == (<Jx^2> + <Jy^2>) - bound on every state
    state = next(dk.sample_random_states("pure", n, 1, seed=seed))
    total = dk.expectation(state, dk.QuadraticForm(a=(1, 1, 1)))
    z2 = dk.expectation(state, dk.QuadraticForm(a=(0, 0, 1)))
    xy = dk.expectation(state, dk.QuadraticForm(a=(1, 1, 0)))
    assert total - z2 == pytest.approx(xy, abs=1e-10)


def test_lemma2_vector_norm_examples():
    mixed = dk.white_noise_mix(dk.dicke_state(2, 1), 1.0).to_density()
    assert dk.lemma2_vector_norm(mixed) == pytest.approx(0.0, abs=1e-12)
    plus = dk.product_state([[2 ** -0.5, 2 ** -0.5]] * 2)
    assert dk.lemma2_vector_norm(plus) == pytest.approx(5.0, abs=1e-10)


def test_lemma2_bound_attained_by_optimal_eigenstate():
    m1, m2, m3 = (op.matrix for op in dk.lemma2_operators())
    direction = np.array([1 / sqrt(3), sqrt(2 / 3), 0.0])
    _vals, vecs = np.linalg.eigh(direction[0] * m1 + direction[1] * m2 + direction[2] * m3)
    norm = dk.lemma2_vector_norm(dk.PureState(2, vecs[:, -1]))
    assert norm == pytest.approx(16 / 3, abs=1e-9)


def test_lemma2_bound_holds_on_random_densities():
    worst = max(
        dk.lemma2_vector_norm(rho) for rho in dk.sample_random_states("density", 2, 2000, seed=17)
    )
    assert worst <= 16 / 3 + 1e-9


def test_lemma2_vector_norm_needs_two_qubits():
    with pytest.raises(dk.DomainError):
        dk.lemma2_vector_norm(dk.white_noise_mix(dk.dicke_state(3, 1), 1.0).to_density())


def test_analytic_eigenvalues_pair_family():
    vals = dk.analytic_eigenvalues("lemma2_eig", (1.0, 0.0, 0.0))
    assert sorted(vals) == pytest.approx([-2, 0, 0, 2])
    with pytest.raises(dk.DomainError):
        dk.analytic_eigenvalues("lemma2_eig", (1.0, 1.0, 0.0))


def test_analytic_eigenvalues_triple_family():
    vals = dk.analytic_eigenvalues("theorem3_eig", 0.0)
    assert sorted(vals) == pytest.approx([-2, -2, -2, -2, 0, 0, 4, 4])
    assert dk.analytic_eigenvalues("theorem3_eig", 1.0).max() == pytest.approx(3 + 2 * sqrt(3))
    with pytest.raises(dk.DomainError):
        dk.analytic_eigenvalues("theorem3_eig", 1.5)
    with pytest.raises(dk.DomainError):
        dk.analytic_eigenvalues("unknown", 0.5)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10 ** 6))
def test_analytic_matches_dense_diagonalization(seed):
    rng = np.random.default_rng(seed)
    nvec = rng.normal(size=3)
    nvec /= np.linalg.norm(nvec)
    m1, m2, m3 = (op.matrix for op in dk.lemma2_operators())
    dense = np.sort(np.linalg.eigvalsh(nvec[0] * m1 + nvec[1] * m2 + nvec[2] * m3))
    assert np.allclose(dense, np.sort(dk.analytic_eigenvalues("lemma2_eig", nvec)), atol=1e-10)
    radius = rng.uniform(0, 1)
    angle = rng.uniform(0, 2 * np.pi)
    combo = dk.theorem3_operators(radius * np.cos(angle), radius * np.sin(angle))[3]
    dense = np.sort(np.linalg.eigvalsh(combo.matrix))
    assert np.allclose(dense, np.sort(dk.analytic_eigenvalues("theorem3_eig", radius)), atol=1e-10)


def test_partition_bounds_record():
    bounds = dk.theorem3_partition_bounds()
    assert bounds.split22_bound == pytest.approx(31 / 6, abs=1e-15)
    assert bounds.split13_bound == pytest.approx(3.5 + sqrt(3), abs=1e-15)
    assert bounds.overall == bounds.split13_bound
    assert bounds.overall > bounds.split22_bound


def test_superradiance_reference_values():
    assert dk.superradiance_intensity(dk.dicke_state(4, 0)) == pytest.approx(0.0, abs=1e-10)
    assert dk.superradiance_intensity(dk.dicke_state(4, 4)) == pytest.approx(4.0, abs=1e-10)
    assert dk.superradiance_intensity(dk.dicke_state(4, 2)) == pytest.approx(6.0, abs=1e-10)
    assert dk.superradiance_intensity(dk.dicke_state(4, 2), i0=2.0) == pytest.approx(12.0, abs=1e-10)


def test_superradiance_errors():
    for i0 in (0.0, float("inf"), float("nan"), True):
        with pytest.raises(dk.DomainError, match="i0"):
            dk.superradiance_intensity(dk.dicke_state(4, 2), i0=i0)


def test_superradiance_of_separable_states_also_scales_quadratically():
    # equatorial product states emit I/I0 = N^2/4 + N/4 despite no entanglement
    n = 100
    intensity = dk.superradiance_intensity(dk.psixy_symmetric(n, 0.0))
    assert intensity == pytest.approx(n ** 2 / 4 + n / 4, rel=1e-12)


def test_psixy_noise_detected_arbitrarily_close_to_one():
    verdict = dk.criterion_verdict(dk.psixy_noise_mix(4, 0.999), "theorem2")
    assert verdict.detected == dk.DETECTED_ENTANGLED
