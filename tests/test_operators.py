import tracemalloc
from functools import reduce

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
    mixed = dk.white_noise_mix(half, 1.0)
    assert dk.expectation(mixed, dk.QuadraticForm(a=(1, 0, 0))) == pytest.approx(1.0, abs=1e-12)


def test_expectation_dimension_mismatch():
    op = dk.collective_operator(3, "z")
    with pytest.raises(dk.DomainError):
        dk.expectation(dk.dicke_state(2, 1), op)
    with pytest.raises(dk.DomainError):
        dk.expectation(dk.white_noise_mix(dk.dicke_state(2, 1), 1.0), op)


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

    monkeypatch.setattr(dk.states, "collective_operator", forbidden)
    direct = [dk.expectation(rho, op) for op in (form, "x", "y", "z")]
    assert direct == pytest.approx(assembled, abs=1e-12)


_GENERIC = dk.QuadraticForm(a=(0.3, 1.1, 0.7), b=(0.2, -0.4, 0.9))


_PAULI = {"x": dk.SIGMA_X, "y": dk.SIGMA_Y, "z": dk.SIGMA_Z}


def _single_site(op, qubit, n):
    """``op`` on 1-based ``qubit`` of n qubits, identity on the others."""
    return reduce(np.kron, [op if k == qubit else np.eye(2, dtype=complex) for k in range(1, n + 1)])


def _kron_reference(n, which):
    """J_l as sums of single-site kron chains, independent of the row tables."""
    j = {axis: 0.5 * sum(_single_site(_PAULI[axis], q, n) for q in range(1, n + 1)) for axis in "xyz"}
    if isinstance(which, str):
        return j[which]
    return sum(a * j[axis] @ j[axis] + b * j[axis] for a, b, axis in zip(which.a, which.b, "xyz"))


@pytest.mark.parametrize("n", range(1, 7))
def test_collective_operator_matches_kron_chains(n):
    for which in ("x", "y", "z", _GENERIC):
        built = dk.collective_operator(n, which).matrix
        assert np.abs(built - _kron_reference(n, which)).max() < 1e-13, which


def _planar_chains(n):
    """sum_k sx^(k), sum_k sy^(k) and sum_(i<j) sx^(i) sx^(j) + sy^(i) sy^(j) as kron chains."""
    site = {(axis, q): _single_site(_PAULI[axis], q, n) for axis in "xy" for q in range(1, n + 1)}
    qx, qy = (sum(site[axis, q] for q in range(1, n + 1)) for axis in "xy")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return qx, qy, sum(site[axis, i] @ site[axis, j] for i, j in pairs for axis in "xy")


# (triple, position in the triple, qubit count, position in _planar_chains)
_PAPER_OPERATORS = {
    "lemma2-M1": (dk.lemma2_operators, 0, 2, 2),
    "lemma2-M2": (dk.lemma2_operators, 1, 2, 0),
    "lemma2-M3": (dk.lemma2_operators, 2, 2, 1),
    "theorem3-Qx": (dk.theorem3_operators, 0, 3, 0),
    "theorem3-Qy": (dk.theorem3_operators, 1, 3, 1),
    "theorem3-R": (dk.theorem3_operators, 2, 3, 2),
}


@pytest.mark.parametrize("triple, index, n, chain", _PAPER_OPERATORS.values(), ids=_PAPER_OPERATORS.keys())
def test_lemma2_and_theorem3_operators_equal_their_kron_chains(triple, index, n, chain):
    # every entry is a multiple of 1/2, so the row tables and the chains agree exactly
    assert np.array_equal(triple()[index].matrix, _planar_chains(n)[chain])


@pytest.mark.parametrize("n", [2, 3], ids=["lemma2", "theorem3"])
def test_planar_triple_turns_with_jz(n):
    # exp(-i t Jz) rotates (2Jx, 2Jy) by t and leaves 2(Jx^2 + Jy^2) - N fixed, which is
    # why the Lemma 2 and Theorem 3 spectra depend on the planar direction only through its length
    if n == 2:
        r, qx, qy = (op.matrix for op in dk.lemma2_operators())  # (M1, M2, M3)
    else:
        qx, qy, r = (op.matrix for op in dk.theorem3_operators())
    t = 0.7
    u = np.diag(np.exp(-1j * t * np.diag(dk.collective_operator(n, "z").matrix)))
    assert np.allclose(u @ qx @ u.conj().T, np.cos(t) * qx + np.sin(t) * qy, atol=1e-13)
    assert np.allclose(u @ qy @ u.conj().T, -np.sin(t) * qx + np.cos(t) * qy, atol=1e-13)
    assert np.allclose(u @ r @ u.conj().T, r, atol=1e-13)


def _random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return dk.SymmetricState(n, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n", range(1, 6))
def test_density_moments_match_the_trace_against_kron_chains(n):
    for rho in dk.sample_random_states("density", n, 3, seed=n):
        for which in ("x", "y", "z", dk.QuadraticForm(a=(1, 1, 0)), _GENERIC):
            reference = np.trace(rho.matrix @ _kron_reference(n, which)).real
            assert dk.expectation(rho, which) == pytest.approx(reference, abs=1e-12), which
    # every state kind against the same reference, through its dense matrix
    psi, phi = dk.sample_random_states("pure", n, 2, seed=n)
    sym = _random_symmetric(n, n)
    proj = {state: np.outer(v, v.conj()) for state, v in
            ((psi, psi.amplitudes), (phi, phi.amplitudes), (sym, dk.symmetric_to_dense(sym).amplitudes))}
    eye = np.eye(2 ** n) / 2 ** n
    j = {axis: _kron_reference(n, axis) for axis in "xyz"}
    for state, matrix in ((rho, rho.matrix), (psi, proj[psi]), (sym, proj[sym]),
                          (dk.Mixture((psi, phi), (0.5, 0.3), 0.2), 0.5 * proj[psi] + 0.3 * proj[phi] + 0.2 * eye),
                          (dk.white_noise_mix(sym, 0.4), 0.6 * proj[sym] + 0.4 * eye)):
        record = dk.moments(state)
        first = [np.trace(matrix @ j[axis]).real for axis in "xyz"]
        second = [np.trace(matrix @ j[axis] @ j[axis]).real for axis in "xyz"]
        assert record.first == pytest.approx(first, abs=1e-12), type(state).__name__
        assert record.second == pytest.approx(second, abs=1e-12), type(state).__name__


def test_each_state_builds_each_components_images_once(monkeypatch):
    # a dense component's images, or a sector component's ladder-sum moments
    builds = []
    for name in ("_dense_images", "_sector_moments"):
        def counted(amps, n, build=getattr(dk.states, name)):
            builds.append(id(amps))
            return build(amps, n)
        monkeypatch.setattr(dk.states, name, counted)
    for state in (dk.dicke_state(5, 2), dk.psixy_noise_mix(6, 0.3, 0.7), dk.dicke_symmetric(100, 40),
                  dk.Mixture((dk.psixy_symmetric(6, 0.2), dk.dicke_symmetric(6, 3)), (0.3, 0.7))):
        builds.clear()
        for kind in ("theorem2", "variance", "symmetric_jz"):
            dk.criterion_verdict(state, kind)
        dk.superradiance_intensity(state)
        dk.expectation(state, "z")
        components = getattr(state, "components", (state,))
        amps = [getattr(psi, "amplitudes", getattr(psi, "sector_amplitudes", None)) for psi in components]
        assert sorted(builds) == sorted(map(id, amps)), type(state).__name__


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
    assert dk.HermitianOperator(np.eye(3)).dimension == 3  # read from the matrix
    with pytest.raises(dk.DomainError, match="not Hermitian"):
        dk.HermitianOperator([[0, 1], [0, 0]])
    for shape in ((2,), (2, 3), (2, 2, 2), ()):
        with pytest.raises(dk.DomainError, match="needs a square matrix"):
            dk.HermitianOperator(np.zeros(shape))


@pytest.mark.filterwarnings("error")  # the residual must not warn on inf - inf
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_hermitian_operator_rejects_non_finite_entries(bad):
    diagonal = np.eye(4, dtype=complex)
    diagonal[0, 0] = bad
    with pytest.raises(dk.DomainError, match="non-finite"):
        dk.HermitianOperator(diagonal)
    paired = np.zeros((4, 4), dtype=complex)
    paired[0, 1], paired[1, 0] = bad, np.conj(bad)
    with pytest.raises(dk.DomainError, match="non-finite"):
        dk.HermitianOperator(paired)


@pytest.mark.parametrize("n", [2, 3, 10, 200, 2000])
def test_sector_total_spin_identity(n):
    rng = np.random.default_rng(n)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    state = dk.SymmetricState(n, amps / np.linalg.norm(amps))
    total = dk.expectation(state, dk.QuadraticForm(a=(1, 1, 1)))
    assert total == pytest.approx((n / 2) * (n / 2 + 1), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_sector_ladder_sums_match_the_dense_images(n):
    rng = np.random.default_rng(n)
    scale = 1e-12 * max(1.0, (n / 2) * (n / 2 + 1))
    for _ in range(10):
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state = dk.SymmetricState(n, amps / np.linalg.norm(amps))
        sector, dense = dk.moments(state), dk.moments(dk.symmetric_to_dense(state))
        np.testing.assert_allclose(np.array(sector), np.array(dense), rtol=0, atol=scale)


def _exact_dicke_moments(n, m):
    state = dk.dicke_symmetric(n, m)
    (jx, jy, jz), (jx2, jy2, jz2) = dk.moments(state)
    z, spin = m - n / 2, (n / 2) * (n / 2 + 1)
    # +0.0, not -0.0: the sign shows in every document that prints them
    assert (np.copysign(1.0, jx), np.copysign(1.0, jy)) == (1.0, 1.0) and jx == jy == 0.0, (n, m)
    assert (jz, jz2) == (z, z * z), (n, m)
    assert jx2 == jy2 == (spin - z * z) / 2, (n, m)
    assert dk.superradiance_intensity(state) == spin - z * z + z, (n, m)


@pytest.mark.parametrize("n", range(1, 65))
def test_dicke_sector_moments_are_exact(n):
    for m in range(n + 1):
        _exact_dicke_moments(n, m)


def test_dicke_sector_moments_are_exact_at_the_sector_limit():
    n = dk.config.SYMMETRIC_QUBIT_LIMIT
    for m in (0, 1, 2, 1234, n // 2 - 1, n // 2, n // 2 + 1, 7777, n - 1, n):
        _exact_dicke_moments(n, m)


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


def test_variance_refuses_a_bad_axis():
    # moments are indexed by axis; the axis tags of expectation are checked
    with pytest.raises(dk.DomainError, match="axis must be one of"):
        dk.expectation(dk.dicke_state(2, 1), "w")


def _z_variance(state):
    record = dk.moments(state)
    return record.second[2] - record.first[2] ** 2


def test_variance_on_reference_states():
    assert _z_variance(dk.dicke_state(4, 2)) == pytest.approx(0.0, abs=1e-12)
    assert _z_variance(dk.psixy_state(4, 0.0)) == pytest.approx(1.0, abs=1e-12)  # N/4


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
