import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickekit as dk


def test_single_qubit_jz_convention():
    jz = dk.collective_operator(1, "z").matrix
    excited = np.array([0.0, 1.0])
    assert np.allclose(jz @ excited, 0.5 * excited)
    ground = np.array([1.0, 0.0])
    assert np.allclose(jz @ ground, -0.5 * ground)


@pytest.mark.parametrize("n", range(1, 7))
def test_angular_momentum_algebra(n):
    j = {axis: dk.collective_operator(n, axis).matrix for axis in "xyz"}
    for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        comm = j[a] @ j[b] - j[b] @ j[a]
        assert np.abs(comm - 1j * j[c]).max() < 1e-12


def test_j_squared_eigenvalue_on_dicke():
    op = dk.collective_operator(4, dk.QuadraticForm(a=(1, 1, 1)))
    for m in range(5):
        psi = dk.dicke_state(4, m).amplitudes
        assert np.abs(op.matrix @ psi - 6.0 * psi).max() < 1e-12


def test_jz_expectation_tracks_excitations():
    for n in range(1, 7):
        for m in range(n + 1):
            assert dk.expectation(dk.dicke_state(n, m), "z") == pytest.approx(m - n / 2, abs=1e-12)


def test_expectation_examples():
    half = dk.dicke_state(4, 2)
    assert dk.expectation(half, "z") == pytest.approx(0.0, abs=1e-12)
    assert dk.expectation(half, dk.QuadraticForm(a=(1, 1, 0))) == pytest.approx(6.0, abs=1e-10)
    mixed = dk.maximally_mixed(4)
    assert dk.expectation(mixed, dk.QuadraticForm(a=(1, 0, 0))) == pytest.approx(1.0, abs=1e-12)


def test_expectation_dimension_mismatch():
    op = dk.collective_operator(3, "z")
    with pytest.raises(dk.DomainError):
        dk.expectation(dk.dicke_state(2, 1), op)
    with pytest.raises(dk.DomainError):
        dk.expectation(dk.maximally_mixed(2), op)


def test_symmetric_state_rejects_dense_operators():
    op = dk.collective_operator(2, "z")
    with pytest.raises(dk.DomainError):
        dk.expectation(dk.dicke_symmetric(2, 1), op)


def test_collective_operator_rejects_bad_axis_and_size():
    with pytest.raises(dk.DomainError):
        dk.collective_operator(2, "w")
    with pytest.raises(dk.DomainError):
        dk.collective_operator(13, "z")


def test_quadratic_form_requires_nonnegative_a():
    with pytest.raises(dk.DomainError):
        dk.QuadraticForm(a=(-1.0, 0, 0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_quadratic_form_requires_finite_coefficients(bad):
    with pytest.raises(dk.DomainError):
        dk.QuadraticForm(a=(bad, 1.0, 0.0))
    with pytest.raises(dk.DomainError):
        dk.QuadraticForm(a=(1.0, 1.0, 0.0), b=(0.0, bad, 0.0))


def test_density_expectation_builds_no_collective_operator(monkeypatch):
    rho = next(dk.sample_random_states("density", 3, 1, seed=4))
    form = dk.QuadraticForm(a=(0.3, 1.1, 0.7), b=(0.2, -0.4, 0.9))
    assembled = [dk.expectation(rho, dk.collective_operator(3, op)) for op in (form, "x", "y", "z")]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("expectation assembled a collective operator")

    monkeypatch.setattr(dk.operators, "collective_operator", forbidden)
    direct = [dk.expectation(rho, op) for op in (form, "x", "y", "z")]
    assert direct == pytest.approx(assembled, abs=1e-12)


_GENERIC = dk.QuadraticForm(a=(0.3, 1.1, 0.7), b=(0.2, -0.4, 0.9))


def _kron_reference(n, which):
    """J_l as sums of single-site kron chains, independent of the row tables."""
    pauli = {"x": dk.SIGMA_X, "y": dk.SIGMA_Y, "z": dk.SIGMA_Z}
    j = {axis: 0.5 * sum(dk.single_site(pauli[axis], q, n) for q in range(1, n + 1)) for axis in "xyz"}
    if isinstance(which, str):
        return j[which]
    return sum(a * j[axis] @ j[axis] + b * j[axis] for a, b, axis in zip(which.a, which.b, "xyz"))


@pytest.mark.parametrize("n", range(1, 7))
def test_collective_operator_matches_kron_chains(n):
    for which in ("x", "y", "z", _GENERIC):
        built = dk.collective_operator(n, which).matrix
        assert np.abs(built - _kron_reference(n, which)).max() < 1e-13, which


@pytest.mark.parametrize("n", range(1, 6))
def test_density_moments_match_the_trace_against_kron_chains(n):
    for rho in dk.sample_random_states("density", n, 3, seed=n):
        for which in ("x", "y", "z", dk.QuadraticForm(a=(1, 1, 0)), _GENERIC):
            reference = np.trace(rho.matrix @ _kron_reference(n, which)).real
            assert dk.expectation(rho, which) == pytest.approx(reference, abs=1e-12), which


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_twelve_qubit_expectations_build_no_dense_operator():
    # one 4096 x 4096 complex matrix alone is 268 MB
    xy = dk.QuadraticForm(a=(1, 1, 0))
    assert _peak_bytes(lambda: dk.expectation(dk.dicke_state(12, 6), xy)) < 16e6
    noisy = lambda: dk.expectation(dk.white_noise_mix(dk.dicke_state(12, 6), 0.3), xy)  # noqa: E731
    assert _peak_bytes(noisy) < 16e6


def test_density_expectation_allocates_less_than_one_dense_matrix():
    rho = dk.white_noise_mix(dk.dicke_state(9, 4), 0.3).to_density()
    assert _peak_bytes(lambda: dk.expectation(rho, _GENERIC)) < rho.matrix.nbytes  # 4.2 MB


def test_hermitian_operator_validation():
    with pytest.raises(dk.DomainError):
        dk.HermitianOperator(2, [[0, 1], [0, 0]])
    with pytest.raises(dk.DomainError):
        dk.HermitianOperator(3, np.eye(2))
    for dimension in (True, 4.0):  # not an int, though it compares equal to the shape
        with pytest.raises(dk.DomainError):
            dk.HermitianOperator(dimension, np.eye(int(dimension)))


@pytest.mark.filterwarnings("error")  # the residual must not warn on inf - inf
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_hermitian_operator_rejects_non_finite_entries(bad):
    diagonal = np.eye(4, dtype=complex)
    diagonal[0, 0] = bad
    with pytest.raises(dk.DomainError, match="non-finite"):
        dk.HermitianOperator(4, diagonal)
    paired = np.zeros((4, 4), dtype=complex)
    paired[0, 1], paired[1, 0] = bad, np.conj(bad)
    with pytest.raises(dk.DomainError, match="non-finite"):
        dk.HermitianOperator(4, paired)


@pytest.mark.parametrize("n", [2, 3, 10, 200, 2000])
def test_sector_total_spin_identity(n):
    rng = np.random.default_rng(n)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    state = dk.SymmetricState(n, amps / np.linalg.norm(amps))
    total = dk.expectation(state, dk.QuadraticForm(a=(1, 1, 1)))
    assert total == pytest.approx((n / 2) * (n / 2 + 1), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_backend_agreement_on_dicke_states(n):
    probes = ["x", "y", "z", dk.QuadraticForm(a=(1, 1, 0)),
              dk.QuadraticForm(a=(0.3, 1.1, 0.7), b=(0.2, -0.4, 0.9))]
    for m in range(n + 1):
        dense = dk.dicke_state(n, m)
        sector = dk.dicke_symmetric(n, m)
        for op in probes:
            assert dk.expectation(dense, op) == pytest.approx(
                dk.expectation(sector, op), abs=1e-10
            ), (n, m, op)


def test_backend_agreement_on_coherent_states():
    probes = ["x", "y", "z", dk.QuadraticForm(a=(1, 1, 0), b=(0.5, -0.25, 1.0))]
    for n, phi in ((2, 0.0), (5, 1.1), (8, -2.3)):
        dense = dk.psixy_state(n, phi)
        sector = dk.psixy_symmetric(n, phi)
        for op in probes:
            assert dk.expectation(dense, op) == pytest.approx(
                dk.expectation(sector, op), abs=1e-10
            )


@pytest.mark.parametrize("qubit, n", [(1.5, 2), (True, 2), (1, 2.0), (0, 2), (3, 2)])
def test_single_site_refuses_bad_labels(qubit, n):
    with pytest.raises(dk.DomainError):
        dk.single_site(dk.SIGMA_X, qubit, n)


def test_variance_refuses_a_bad_axis():
    with pytest.raises(dk.DomainError, match="axis must be one of"):
        dk.variance(dk.dicke_state(2, 1), "w")


def test_variance_on_reference_states():
    assert dk.variance(dk.dicke_state(4, 2), "z") == pytest.approx(0.0, abs=1e-12)
    assert dk.variance(dk.psixy_state(4, 0.0), "z") == pytest.approx(1.0, abs=1e-12)  # N/4


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 5))
def test_total_spin_decomposes_by_axis(seed, n):
    # <J^2> equals the sum of the three second moments on any state
    state = next(dk.sample_random_states("pure", n, 1, seed=seed))
    total = dk.expectation(state, dk.QuadraticForm(a=(1, 1, 1)))
    parts = sum(
        dk.expectation(state, dk.QuadraticForm(a=tuple(1.0 * (i == j) for i in range(3))))
        for j in range(3)
    )
    assert total == pytest.approx(parts, abs=1e-10)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10 ** 6))
def test_expectation_agrees_between_pure_and_density(seed):
    state = next(dk.sample_random_states("pure", 3, 1, seed=seed))
    op = dk.collective_operator(3, dk.QuadraticForm(a=(1, 1, 0), b=(0, 0, 1)))
    assert dk.expectation(state, op) == pytest.approx(
        dk.expectation(state.to_density(), op), abs=1e-10
    )
