import itertools
import re
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
    # past the symmetric-state limit: N/2 + N(N-1)/4 + N/(4(N-1)), at sz = 1/(2(N-1))
    n = 10 ** 6
    form = dk.QuadraticForm(a=(1, 1, 0), b=(0, 0, 1))
    assert dk.lemma1_bound(form, n) == pytest.approx(n / 2 + n * (n - 1) / 4 + n / (4 * (n - 1)), rel=1e-12)


@pytest.mark.parametrize("b", [(0, 0, 0), (1, 0, 0)])
def test_separable_maxima_refuse_a_qubit_count_past_their_limits(b):
    form = dk.QuadraticForm(a=(1, 1, 0), b=b)
    # the bound is a float, which counts qubits exactly up to 2^53
    assert np.isfinite(dk.lemma1_bound(form, 2 ** 53))
    for n in (2 ** 53 + 1, 10 ** 400):  # the larger one raised OverflowError
        with pytest.raises(dk.DomainError, match=re.escape("n must be an integer in [1, 9007199254740992]")):
            dk.lemma1_bound(form, n)
    # the maximizer's argument holds one Bloch vector per qubit
    assert dk.maximize_over_ti_product(form, 10_000).argument.n_qubits == 10_000
    with pytest.raises(dk.DomainError, match=re.escape("n must be an integer in [1, 10000]")):
        dk.maximize_over_ti_product(form, 10_001)


@pytest.mark.parametrize("a, b, n", [
    ((0.0, 3.1e300, 0.0), (-0.2, 2.9e260, 0.0), 10 ** 4),  # the root-finder met NaN
    ((0.6, 0.0, 3.1e306), (3.7e264, -3.6e288, 0.0), 10),  # no gap was zero in the hard case
    ((1.5, 8.1e278, 0.0), (-2.4e296, 0.6, 1.7e308), 1),  # 2 mu overflowed, and 1/|s| divided by zero
    ((1e308, 0.0, 0.0), (0.0, 0.0, 0.0), 10),  # the linear-free closed form returned inf
])
def test_tensor_power_solver_refuses_a_form_beyond_the_float_range(a, b, n):
    form = dk.QuadraticForm(a=a, b=b)
    for solve in (dk.lemma1_bound, dk.maximize_over_ti_product):
        with pytest.raises(dk.DomainError, match="leaves the float range"):
            solve(form, n)


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


def test_lemma1_is_solved_once_per_form_and_size(monkeypatch):
    calls = []
    solve = dk.collective._secular_root
    monkeypatch.setattr(dk.collective, "_secular_root", lambda *args: calls.append(args) or solve(*args))
    dk.collective._ti_maximum.cache_clear()
    form = dk.QuadraticForm(a=(1, 1, 0), b=(0, 0, -6))
    first = dk.lemma1_bound(form, 40)
    assert len(calls) == 1
    # an equal form, a NumPy size, a crit2 verdict and the tensor-power oracle all read the kept solve
    assert dk.lemma1_bound(dk.QuadraticForm(a=(1, 1, 0), b=(0, 0, -6)), np.int64(40)) == first
    assert dk.criterion_verdict(dk.dicke_symmetric(40, 20), "crit2", m=3).bound == first
    assert dk.maximize_over_ti_product(form, 40).value == first
    assert len(calls) == 1
    assert dk.collective._ti_maximum.cache_info().maxsize == 256


@pytest.mark.filterwarnings("error")
def test_lemma1_takes_a_numpy_size_as_the_same_integer():
    # N(N-1) in int64 wraps beyond N ~ 3e9; the solver sees a Python int
    form = dk.QuadraticForm(a=(1, 1, 0), b=(0, 0, -2))
    for n in (4_000_000_000, 2 ** 40):
        dk.collective._ti_maximum.cache_clear()
        assert dk.lemma1_bound(form, np.int64(n)) == dk.lemma1_bound(form, n)
        # and so does the objective itself
        s = np.array([0.5, 0.0, 0.0])
        assert dk.collective.ti_objective(form, np.int64(n), s) == dk.collective.ti_objective(form, n, s) > 0


@pytest.mark.parametrize("a, b", [
    ((1.0, 1.0, 0.0), (0.0, 0.0, -4.0)), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), ((0.0, 0.0, 0.0), (0.0, 0.0, 3.0)),
])
def test_forms_equal_up_to_the_sign_of_a_zero_share_one_kept_solve(a, b):
    # QuadraticForm equality merges them in the cache key, so each must solve to the same bits
    solve = dk.collective._ti_maximum.__wrapped__
    zeros = [i for i, c in enumerate(a + b) if c == 0.0]
    for n in (1, 3, 1000):
        results = set()
        for signs in itertools.product((0.0, -0.0), repeat=len(zeros)):
            coeffs = list(a + b)
            for i, zero in zip(zeros, signs):
                coeffs[i] = zero
            form = dk.QuadraticForm(a=tuple(coeffs[:3]), b=tuple(coeffs[3:]))
            fresh, kept = solve(form, n), dk.collective._ti_maximum(form, n)
            results.update((r.value.hex(), r.argument.vectors[0].tobytes()) for r in (fresh, kept))
        assert len(results) == 1, results


@pytest.mark.parametrize("n", [0, -3, 2.5, "4", 2 ** 53 + 1])
def test_theorem2_bound_refuses_what_is_not_a_qubit_count(n):
    with pytest.raises(dk.DomainError, match=re.escape("n must be an integer in [1, 9007199254740992]")):
        dk.theorem2_bound(n)


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


def test_criterion_verdict_reads_its_threshold_from_tolerances():
    state = dk.dicke_state(4, 2)  # theorem2 margin 6 - 5 = 1
    assert dk.criterion_verdict(state, "theorem2").detected == dk.DETECTED_ENTANGLED
    strict = dk.Tolerances(detection_tolerance=1.5)
    assert dk.criterion_verdict(state, "theorem2", tol=strict).detected == dk.DETECTED_NONE
    with pytest.raises(dk.DomainError):  # a NaN threshold never reaches the comparison
        dk.criterion_verdict(state, "theorem2", tol=dk.Tolerances(detection_tolerance=float("nan")))


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
        with pytest.raises(dk.DomainError, match="needs a maximal-spin state"):
            dk.criterion_verdict(state, "symmetric_jz", tol=tol)
        for m in (0, 1):  # symmetric_jz reads no m, so it refuses one first
            with pytest.raises(dk.DomainError, match="symmetric_jz does not read m"):
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


@pytest.mark.parametrize("state", [dk.white_noise_mix(dk.dicke_state(3, 1), 1.0).to_density(),
                                   dk.dicke_state(3, 1), dk.product_state([[1, 0]])],
                         ids=["density-3", "pure-3", "pure-1"])
def test_lemma2_vector_norm_needs_two_qubits(state):
    with pytest.raises(dk.DomainError, match=f"needs a two-qubit state, got n = {state.n_qubits}"):
        dk.lemma2_vector_norm(state)


@pytest.mark.parametrize("kind", ["pure", "density"])
def test_lemma2_vector_norm_is_the_sum_of_squared_traces(kind):
    # the stacked fast path against <M_k> = Tr(rho M_k) read off the triple one operator at a time
    triple = [op.matrix for op in dk.lemma2_operators()]
    for state in dk.sample_random_states(kind, 2, 50, seed=23):
        rho = state.to_density().matrix if kind == "pure" else state.matrix
        direct = sum(np.trace(rho @ m).real ** 2 for m in triple)
        assert dk.lemma2_vector_norm(state) == pytest.approx(direct, abs=1e-12)


def test_lemma2_eigenvalues():
    vals = dk.lemma2_eigenvalues((1.0, 0.0, 0.0))
    assert sorted(vals) == pytest.approx([-2, 0, 0, 2])
    with pytest.raises(dk.DomainError):
        dk.lemma2_eigenvalues((1.0, 1.0, 0.0))


def test_theorem3_eigenvalues():
    vals = dk.theorem3_eigenvalues(0.0)
    assert sorted(vals) == pytest.approx([-2, -2, -2, -2, 0, 0, 4, 4])
    assert dk.theorem3_eigenvalues(1.0).max() == pytest.approx(3 + 2 * sqrt(3))
    with pytest.raises(dk.DomainError):
        dk.theorem3_eigenvalues(1.5)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10 ** 6))
def test_analytic_matches_dense_diagonalization(seed):
    rng = np.random.default_rng(seed)
    nvec = rng.normal(size=3)
    nvec /= np.linalg.norm(nvec)
    m1, m2, m3 = (op.matrix for op in dk.lemma2_operators())
    dense = np.sort(np.linalg.eigvalsh(nvec[0] * m1 + nvec[1] * m2 + nvec[2] * m3))
    assert np.allclose(dense, np.sort(dk.lemma2_eigenvalues(nvec)), atol=1e-10)
    radius = rng.uniform(0, 1)
    angle = rng.uniform(0, 2 * np.pi)
    qx, qy, r = (op.matrix for op in dk.theorem3_operators())
    dense = np.sort(np.linalg.eigvalsh(radius * np.cos(angle) * qx + radius * np.sin(angle) * qy + r))
    assert np.allclose(dense, np.sort(dk.theorem3_eigenvalues(radius)), atol=1e-10)


@pytest.mark.parametrize("x1, y1", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
                                    (0.6, 0.8), (0.3, -0.4)])
def test_theorem3_combination_spectrum(x1, y1):
    # the caller's x1 Qx + y1 Qy + R has the closed-form spectrum at X = |(x1, y1)|,
    # topped by 2 + X + 2 sqrt(1 + X + X^2): 3 + 2 sqrt(3) on the unit circle
    qx, qy, r = (op.matrix for op in dk.theorem3_operators())
    radius = np.hypot(x1, y1)
    dense = np.linalg.eigvalsh(x1 * qx + y1 * qy + r)
    assert np.allclose(dense, np.sort(dk.theorem3_eigenvalues(radius)), atol=1e-10)
    assert dense[-1] == pytest.approx(2 + radius + 2 * sqrt(1 + radius + radius ** 2), abs=1e-10)


def test_theorem3_operators_take_no_arguments():
    # the planar coefficients are the caller's: the operators are one shared triple
    with pytest.raises(TypeError):
        dk.theorem3_operators(1.0, 0.0)
    assert dk.theorem3_operators() is dk.theorem3_operators()


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
