import functools
import itertools
import re
import tracemalloc
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickekit as dk


def test_dicke_zero_excitations_is_ground():
    state = dk.dicke_state(3, 0)
    assert state.amplitudes[0] == pytest.approx(1.0)
    assert np.count_nonzero(state.amplitudes) == 1


def test_dicke_single_excitation_two_qubits():
    state = dk.dicke_state(2, 1)
    assert np.allclose(state.amplitudes, [0, 2 ** -0.5, 2 ** -0.5, 0])


def test_dicke_half_excited_four_qubits():
    state = dk.dicke_state(4, 2)
    nonzero = state.amplitudes[state.amplitudes != 0]
    assert len(nonzero) == 6
    assert np.allclose(nonzero, 6 ** -0.5)


@pytest.mark.parametrize("n", range(1, 11))
def test_dicke_state_matches_a_combinations_reference(n):
    for m in range(n + 1):
        reference = np.zeros(2 ** n, dtype=complex)
        for positions in itertools.combinations(range(n), m):
            reference[sum(1 << p for p in positions)] = 1.0 / sqrt(comb(n, m))
        assert np.array_equal(dk.dicke_state(n, m).amplitudes, reference), m


@pytest.mark.parametrize("n,m", [(3, -1), (3, 4), (0, 0), (13, 2), (4, True), (True, 0), (4, np.bool_(True))])
def test_dicke_domain_errors(n, m):
    with pytest.raises(dk.DomainError):
        dk.dicke_state(n, m)


@pytest.mark.parametrize("n,m", [(4, True), (True, 0), (4, np.bool_(False)), (4, 2.0)])
def test_dicke_symmetric_rejects_non_integer_counts(n, m):
    with pytest.raises(dk.DomainError):
        dk.dicke_symmetric(n, m)


def test_dicke_oversize_error_names_the_limit():
    with pytest.raises(dk.DomainError, match="12"):
        dk.dicke_state(13, 2)


def test_dicke_amplitude_equality_exhaustive():
    # permutation invariance, spelled out: every basis label with m excitations
    # carries the same weight, all others none
    from math import comb

    for n in range(1, 9):
        for m in range(n + 1):
            amps = dk.dicke_state(n, m).amplitudes
            excited = np.array([bin(i).count("1") for i in range(2 ** n)]) == m
            assert np.allclose(amps[excited], comb(n, m) ** -0.5, atol=1e-14)
            assert np.all(amps[~excited] == 0)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_dicke_permutation_invariance(data):
    n = data.draw(st.integers(2, 8))
    m = data.draw(st.integers(0, n))
    perm = data.draw(st.permutations(range(n)))
    state = dk.dicke_state(n, m)
    permuted = state.amplitudes.reshape([2] * n).transpose(perm).reshape(-1)
    assert np.allclose(permuted, state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_states_reject_non_finite_entries(bad):
    with pytest.raises(dk.DomainError, match="non-finite"):
        dk.PureState(1, [bad, 0.0])
    with pytest.raises(dk.DomainError, match="non-finite"):
        dk.SymmetricState(1, [bad, 0.0])
    with pytest.raises(dk.DomainError, match="non-finite"):
        dk.DensityMatrix(1, [[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(dk.DomainError):
        dk.psixy_state(3, bad)
    with pytest.raises(dk.DomainError):
        dk.psixy_symmetric(3, bad)


@pytest.mark.parametrize("phi", [True, np.bool_(False)])
def test_psixy_refuses_a_bool_phase(phi):
    for build in (dk.psixy_state, dk.psixy_symmetric):
        with pytest.raises(dk.DomainError):
            build(3, phi)
    with pytest.raises(dk.DomainError):
        dk.psixy_noise_mix(4, 0.5, phi)


def test_pure_state_must_be_normalized():
    with pytest.raises(dk.DomainError):
        dk.PureState(1, [1.0, 1.0])
    with pytest.raises(dk.DomainError):
        dk.PureState(2, [1.0, 0.0])  # wrong length


def test_product_state_orders_first_factor_as_msb():
    state = dk.product_state([[0, 1], [1, 0]])  # |1> (x) |0>
    assert state.amplitudes[0b10] == pytest.approx(1.0)


def test_psixy_single_qubit():
    state = dk.psixy_state(1, 0.0)
    assert np.allclose(state.amplitudes, [2 ** -0.5, 2 ** -0.5])


def test_psixy_phase_shows_in_jy():
    state = dk.psixy_state(2, np.pi / 2)
    assert dk.expectation(state, "y") == pytest.approx(1.0, abs=1e-12)


def test_white_noise_endpoints():
    target = dk.dicke_state(4, 2)
    pure = dk.white_noise_mix(target, 0.0)
    assert np.allclose(pure.to_density().matrix, np.outer(target.amplitudes, target.amplitudes.conj()))
    mixed = dk.white_noise_mix(target, 1.0)
    assert np.allclose(np.diag(mixed.to_density().matrix), 1 / 16)
    assert np.allclose(mixed.to_density().matrix, np.diag(np.diag(mixed.to_density().matrix)))


def test_white_noise_fidelity_value():
    target = dk.dicke_state(4, 2)
    rho = dk.white_noise_mix(target, 0.3)
    fid = np.vdot(target.amplitudes, rho.to_density().matrix @ target.amplitudes).real
    assert fid == pytest.approx(0.3 / 16 + 0.7, abs=1e-12)


@pytest.mark.parametrize("p", [-0.1, 1.1])
def test_white_noise_p_range(p):
    with pytest.raises(dk.DomainError):
        dk.white_noise_mix(dk.dicke_state(2, 1), p)


def test_psixy_noise_endpoints_and_errors():
    proj_dicke = dk.psixy_noise_mix(2, 0.0)
    target = dk.dicke_state(2, 1).amplitudes
    assert np.allclose(proj_dicke.to_density().matrix, np.outer(target, target.conj()))
    proj_sep = dk.psixy_noise_mix(2, 1.0, 0.0)
    plus = dk.psixy_state(2, 0.0).amplitudes
    assert np.allclose(proj_sep.to_density().matrix, np.outer(plus, plus.conj()))
    with pytest.raises(dk.DomainError):
        dk.psixy_noise_mix(3, 0.5)


def test_psixy_noise_stays_above_separable_bound():
    # the coherent admixture barely lowers the planar moments
    rho = dk.psixy_noise_mix(4, 0.5)
    value = dk.expectation(rho, dk.QuadraticForm(a=(1, 1, 0)))
    assert value == pytest.approx(5.5, abs=1e-10)
    assert value > 5.0


def test_density_matrix_validation():
    with pytest.raises(dk.DomainError):
        dk.DensityMatrix(1, [[0.5, 0.5j], [0.5j, 0.5]])  # not Hermitian
    with pytest.raises(dk.DomainError):
        dk.DensityMatrix(1, [[1.0, 0], [0, 1.0]])  # trace 2
    with pytest.raises(dk.DomainError):
        dk.DensityMatrix(1, [[1.5, 0], [0, -0.5]])  # negative eigenvalue


@pytest.mark.parametrize(
    "components,weights,identity_weight",
    [
        ((dk.dicke_state(2, 1),), (1.5,), -0.5),  # negative identity weight
        ((dk.dicke_state(2, 1), dk.dicke_state(2, 0)), (-0.2, 1.2), 0.0),  # negative weight
        ((dk.dicke_state(2, 1),), (float("nan"),), 0.0),
        ((dk.dicke_state(2, 1),), (0.5,), float("nan")),
        ((dk.dicke_state(2, 1),), (float("inf"),), 0.0),
        ((dk.dicke_state(2, 1),), (True,), 0.0),  # bool is not a weight
        ((dk.dicke_state(2, 1),), (0.5,), False),
        ((dk.dicke_state(2, 1),), (0.5,), 0.0),  # sums to 1/2
        ((dk.dicke_state(2, 1),), (0.7,), 0.4),  # sums to 1.1
        ((dk.dicke_state(2, 1), dk.dicke_state(3, 1)), (0.5, 0.5), 0.0),  # mixed N
        ((dk.dicke_symmetric(2, 1), dk.dicke_symmetric(3, 1)), (0.5, 0.5), 0.0),
        ((dk.dicke_state(2, 1), dk.dicke_symmetric(2, 1)), (0.5, 0.5), 0.0),  # mixed kinds
        ((dk.dicke_state(2, 1),), (0.5, 0.5), 0.0),  # weight count mismatch
        ((), (), 1.0),  # no component fixes N
        ((dk.white_noise_mix(dk.dicke_state(2, 0), 1.0).to_density(),), (1.0,), 0.0),  # components must be pure
    ],
)
def test_mixture_rejects_invalid_weights_and_components(components, weights, identity_weight):
    with pytest.raises(dk.DomainError):
        dk.Mixture(components, weights, identity_weight=identity_weight)


def test_noise_mixtures_build_no_dense_matrix(monkeypatch):
    # PSD by construction: neither constructor nor evaluation may diagonalize
    # or assemble a 2^N x 2^N matrix
    def forbidden(*_args, **_kwargs):
        raise AssertionError("dense path called on a noise mixture")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(dk.operators, "collective_operator", forbidden)
    monkeypatch.setattr(dk.states, "DensityMatrix", forbidden)
    monkeypatch.setattr(np, "outer", forbidden)
    for rho in (dk.white_noise_mix(dk.dicke_state(6, 3), 0.2), dk.psixy_noise_mix(6, 0.2, 0.3),
                dk.white_noise_mix(dk.dicke_symmetric(6, 3), 0.2)):
        assert isinstance(rho, dk.Mixture)
        dk.criterion_verdict(rho, "theorem2")
        dk.criterion_verdict(rho, "variance")
        dk.fidelity_witness_verdict(rho, 6, 3)
        dk.superradiance_intensity(rho)


_FORMS = st.builds(
    lambda a, b: dk.QuadraticForm(a=a, b=b),
    st.tuples(*[st.floats(0.0, 1.0)] * 3),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3),
)


def _assert_same_moments(mixture, reference, form):
    n = mixture.n_qubits
    for op in (form, "x", "y", "z"):
        assert abs(dk.expectation(mixture, op) - dk.expectation(reference, op)) <= 1e-12, op
    for k in range(n + 1):
        got = dk.fidelity_witness_verdict(mixture, n, k).value
        want = dk.fidelity_witness_verdict(reference, n, k).value
        assert abs(got - want) <= 1e-12, k


@settings(deadline=None, max_examples=40)
@given(data=st.data(), p=st.floats(0.0, 1.0), form=_FORMS)
def test_noise_mixture_matches_dense_route(data, p, form):
    if data.draw(st.booleans(), label="psixy"):
        n = data.draw(st.sampled_from([2, 4, 6]), label="n")
        mixture = dk.psixy_noise_mix(n, p, data.draw(st.floats(-np.pi, np.pi), label="phi"))
    else:
        n = data.draw(st.integers(2, 6), label="n")
        mixture = dk.white_noise_mix(dk.dicke_state(n, data.draw(st.integers(0, n), label="m")), p)
    dense = mixture.to_density()
    _assert_same_moments(mixture, dense, form)
    # a general operator takes the identity share as Tr(H)/2^N
    op = dk.collective_operator(n, form)
    assert abs(dk.expectation(mixture, op) - dk.expectation(dense, op)) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 6), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0),
       phi=st.floats(-np.pi, np.pi), data=st.data(), form=_FORMS)
def test_symmetric_mixture_matches_embedded(n, p, q, phi, data, form):
    m = data.draw(st.integers(0, n), label="m")
    symmetric = dk.Mixture(
        (dk.dicke_symmetric(n, m), dk.psixy_symmetric(n, phi)),
        ((1.0 - p) * q, (1.0 - p) * (1.0 - q)),
        identity_weight=p,
    )
    embedded = dk.Mixture(
        tuple(dk.symmetric_to_dense(c) for c in symmetric.components),
        symmetric.weights,
        identity_weight=symmetric.identity_weight,
    )
    _assert_same_moments(symmetric, embedded, form)
    _assert_same_moments(symmetric, symmetric.to_density(), form)
    white = dk.white_noise_mix(dk.dicke_symmetric(n, m), p)
    _assert_same_moments(white, dk.white_noise_mix(dk.dicke_state(n, m), p), form)


def test_symmetric_embedding_matches_dense_dicke():
    for n in range(1, 7):
        for m in range(n + 1):
            dense = dk.symmetric_to_dense(dk.dicke_symmetric(n, m))
            assert np.allclose(dense.amplitudes, dk.dicke_state(n, m).amplitudes, atol=1e-12)


def test_psixy_symmetric_matches_dense():
    n, phi = 6, 0.4
    dense = dk.psixy_state(n, phi)
    embedded = dk.symmetric_to_dense(dk.psixy_symmetric(n, phi))
    assert np.allclose(dense.amplitudes, embedded.amplitudes, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 11])
def test_psixy_symmetric_matches_dense_at_every_phase(n):
    for phi in (0.0, 0.4, 2.1, -3.0):
        dense = dk.psixy_state(n, phi)
        embedded = dk.symmetric_to_dense(dk.psixy_symmetric(n, phi))
        assert np.max(np.abs(dense.amplitudes - embedded.amplitudes)) < 1e-15


@pytest.mark.parametrize("n", [1, 40, 1000, 10_000])
def test_psixy_symmetric_matches_the_lgamma_route(n):
    # reference: one lgamma-based log binomial per excitation count
    from math import lgamma

    log_binom = [lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1) for k in range(n + 1)]
    reference = np.exp(0.5 * (np.array(log_binom) - n * np.log(2.0))) * np.exp(0.7j * np.arange(n + 1))
    reference /= np.linalg.norm(reference)
    amps = dk.psixy_symmetric(n, 0.7).sector_amplitudes
    assert np.max(np.abs(amps - reference)) <= 1e-12


def test_symmetric_norm_enforced():
    with pytest.raises(dk.DomainError):
        dk.SymmetricState(2, [1.0, 1.0, 0.0])


@pytest.mark.parametrize("side", [(), (1, 2, 3), (0,), (4,), (1, 1), (1.5,), (True,), (np.bool_(True),)])
def test_bipartition_validation(side):
    with pytest.raises(dk.DomainError):
        dk.Bipartition(3, side)


def test_schmidt_examples():
    state = dk.dicke_state(4, 2)
    spec = dk.schmidt_spectrum(state, dk.Bipartition(4, (1, 2)))
    assert np.allclose(spec, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)
    spec = dk.schmidt_spectrum(state, dk.Bipartition(4, (1,)))
    assert np.allclose(spec, [0.5, 0.5], atol=1e-12)
    ground = dk.dicke_state(4, 0)
    spec = dk.schmidt_spectrum(ground, dk.Bipartition(4, (2, 3)))
    assert np.allclose(spec, [1.0], atol=1e-12)
    assert spec.dtype == float and not spec.flags.writeable


def test_schmidt_closed_form_all_splits():
    for n in range(2, 9):
        state_cache = {m: dk.dicke_state(n, m) for m in range(n + 1)}
        for m in range(n + 1):
            for n1 in range(1, n // 2 + 1):
                numeric = dk.schmidt_spectrum(
                    state_cache[m], dk.Bipartition(n, tuple(range(1, n1 + 1)))
                )
                # C(N1,k) C(N-N1,m-k) / C(N,m) over the valid k, descending
                closed = sorted((comb(n1, k) * comb(n - n1, m - k) / comb(n, m)
                                 for k in range(max(0, m - (n - n1)), min(n1, m) + 1)), reverse=True)
                assert np.allclose(numeric, closed, atol=1e-10), (n, m, n1)


def test_schmidt_split_only_size_matters_for_dicke():
    state = dk.dicke_state(5, 2)
    a = dk.schmidt_spectrum(state, dk.Bipartition(5, (2, 4)))
    b = dk.schmidt_spectrum(state, dk.Bipartition(5, (1, 2)))
    assert np.allclose(a, b, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 6))
def test_schmidt_sums_to_one_on_random_states(seed, n):
    state = next(dk.sample_random_states("pure", n, 1, seed=seed))
    split = dk.Bipartition(n, (1,))
    spec = dk.schmidt_spectrum(state, split)
    assert spec.sum() == pytest.approx(1.0, abs=1e-10)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10 ** 6))
def test_product_states_have_rank_one_splits(seed):
    state = next(dk.sample_random_states("product", 4, 1, seed=seed))
    for n1 in (1, 2):
        spec = dk.schmidt_spectrum(state, dk.Bipartition(4, tuple(range(1, n1 + 1))))
        assert spec[0] == pytest.approx(1.0, abs=1e-10)


def test_assemble_bipartite_interleaves_qubits():
    # |1> on qubit 2, |0> elsewhere, via split {2} | {1,3}
    split = dk.Bipartition(3, (2,))
    state = dk.assemble_bipartite(np.array([0, 1.0]), np.array([1.0, 0, 0, 0]), split)
    assert state.amplitudes[0b010] == pytest.approx(1.0)


@pytest.mark.filterwarnings("error")  # a bad qubit is refused before any arithmetic can warn
@pytest.mark.parametrize("bad", [[float("nan"), 1.0], [float("inf"), 0.0], [0.0, 0.0]])
def test_product_state_validates_before_normalizing(bad):
    with pytest.raises(dk.DomainError, match="zero or has non-finite"):
        dk.product_state([[1.0, 0.0], bad])


@pytest.mark.parametrize("n", range(1, 11))
def test_product_state_matches_a_kron_chain_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(5):  # unnormalised complex qubits, normalised once at the end
        qubits = list(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
        reference = functools.reduce(np.kron, [np.array([1.0], dtype=complex)] + qubits)
        reference = reference / np.linalg.norm(reference)
        assert dk.product_state(qubits).amplitudes.tobytes() == reference.tobytes()


@pytest.mark.filterwarnings("error")  # 1e200 squared overflows: a warning means an unscaled norm
@pytest.mark.parametrize("tiny_or_huge", [1e-200, 1e200, 5e-324, 1.7e308])
def test_product_state_accepts_a_qubit_whose_squared_norm_leaves_the_float_range(tiny_or_huge):
    state = dk.product_state([[tiny_or_huge, 0], [1, 1]])
    np.testing.assert_allclose(state.amplitudes, [2 ** -0.5, 2 ** -0.5, 0, 0], rtol=1e-15, atol=0)


def test_product_state_refuses_too_many_qubits_before_forming_the_product():
    tracemalloc.start()
    try:
        with pytest.raises(dk.DomainError, match="n_qubits = 20 exceeds the backend limit of 12 qubits"):
            dk.product_state([[1, 0]] * 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the 2^20 amplitudes would take 16 MiB


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("qubits, message", [
    ([[1, 0], [1, 2, 3], [0, 0]], "must have shape (2,), got (3,)"),
    ([[1, 0], [[1, 0]], [1, 2, 3]], "must have shape (2,), got (1, 2)"),
    ([[1, 0], [0, 0], [1, 2, 3]], "state [0.+0.j 0.+0.j] is zero"),
    ([[1, 0], [0, 0], [np.nan, 1]], "state [0.+0.j 0.+0.j] is zero"),
    ([[1, 0], [np.nan, 1], [0, 0]], "state [nan+0.j  1.+0.j] is zero"),
    ([[1, 0], [1, np.inf], [1, 2, 3]], "state [ 1.+0.j inf+0.j] is zero"),
], ids=["shape", "shape-2d", "zero-before-shape", "zero-before-nan", "nan-before-zero", "inf-before-shape"])
def test_product_state_names_the_first_bad_qubit(qubits, message):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        dk.product_state(qubits)


_SPLIT = dk.Bipartition(2, (1,))


@pytest.mark.filterwarnings("error")  # an unscaled norm of 1e200 overflows, and of 1e-200 underflows
@pytest.mark.parametrize("tiny_or_huge", [1e-200, 1e200, 5e-324, 1.7e308])
def test_assemble_bipartite_scales_its_factors_as_product_state_does(tiny_or_huge):
    factor = [tiny_or_huge, tiny_or_huge]
    for phi_a, phi_b in ((factor, [1, 0]), ([1, 0], factor)):
        state = dk.assemble_bipartite(phi_a, phi_b, _SPLIT)
        assert state.amplitudes.tobytes() == dk.product_state([phi_a, phi_b]).amplitudes.tobytes()


@pytest.mark.filterwarnings("error")  # a bad factor is refused before any arithmetic can warn
@pytest.mark.parametrize("phi_a, phi_b, message", [
    ([0, 0], [1, 0], "phi_a [0.+0.j 0.+0.j] is zero or has non-finite amplitudes"),
    ([1, 0], [np.nan, 1], "phi_b [nan+0.j  1.+0.j] is zero or has non-finite amplitudes"),
    ([np.inf, 0], [1, 0], "phi_a [inf+0.j  0.+0.j] is zero or has non-finite amplitudes"),
    ([1, 0], [0, 0], "phi_b [0.+0.j 0.+0.j] is zero or has non-finite amplitudes"),
    ([0, 0], [1, 0, 0, 0], "phi_a [0.+0.j 0.+0.j] is zero"),
    ([1, 0, 0], [0, 0], "phi_a must have shape (2,), got (3,)"),
], ids=["zero", "nan", "inf", "zero-b", "zero-before-shape", "shape-before-zero"])
def test_assemble_bipartite_names_the_first_bad_factor(phi_a, phi_b, message):
    with pytest.raises(dk.DomainError, match=re.escape(f"assemble_bipartite factor {message}")):
        dk.assemble_bipartite(phi_a, phi_b, _SPLIT)


@pytest.mark.parametrize("n", range(2, 9))
def test_assemble_bipartite_matches_a_permuted_outer_product_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for k in range(1, n):  # unnormalised complex factors on a random split, normalised once at the end
        split = dk.Bipartition(n, tuple(rng.choice(np.arange(1, n + 1), k, replace=False).tolist()))
        a = rng.normal(size=2 ** k) + 1j * rng.normal(size=2 ** k)
        b = rng.normal(size=2 ** (n - k)) + 1j * rng.normal(size=2 ** (n - k))
        reference = np.transpose(np.outer(a, b).reshape([2] * n), np.argsort(split.axes)).reshape(-1)
        reference = reference / np.linalg.norm(reference)
        assert dk.assemble_bipartite(a, b, split).amplitudes.tobytes() == reference.tobytes()


def test_shared_tables_are_cached_and_read_only():
    tables = {
        "flip table": lambda: dk.states._flip_table(6),
        "Dicke amplitudes": lambda: (dk.states._dicke_amplitudes(6, 2),),
        "sector ladder": lambda: dk.states._sector_ladder(6),
        "Lemma 1 Bloch vector": lambda: (dk.collective._ti_maximum(dk.QuadraticForm(a=(1, 1, 0), b=(0, 0, -4)), 6)
                                         .argument.vectors,),
        "tensor-power argument": lambda: (dk.maximize_over_ti_product(dk.QuadraticForm(a=(1, 1, 0)), 6)
                                          .argument.vectors,),
        "Lemma 2 operators": lambda: tuple(op.matrix for op in dk.lemma2_operators()),
        "Theorem 3 operators": lambda: tuple(op.matrix for op in dk.theorem3_operators()),
    }
    for name, table in tables.items():
        first, second = table(), table()
        for a, b in zip(first, second):
            assert a is b, name
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[0] = 0
    cols, signs, counts = dk.states._flip_table(6)
    assert cols.shape == signs.shape == (6, 64) and signs.dtype == np.int8
    assert counts.tolist() == [i.bit_count() for i in range(64)]


def _log_domain_weights(n):
    """sqrt(C(N,m) / 2^N) from log C(N,k) = sum_{j<k} log((N-j)/(j+1)), as
    ``psixy_symmetric`` formed it on every call before the ladder table held it."""
    m = np.arange(n + 1)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - m[:-1]) / (m[:-1] + 1.0)))))
    return np.exp(0.5 * (log_binom - n * np.log(2.0)))


def test_sector_ladder_holds_the_five_state_free_arrays():
    z, z2, coupling, coupling2, weights = dk.states._sector_ladder(6)
    assert z.tolist() == [m - 3.0 for m in range(7)] and z2.tolist() == (z * z).tolist()
    assert coupling.tolist() == [sqrt((m + 1) * (6 - m)) for m in range(6)]
    assert coupling2.tolist() == (coupling[:-1] * coupling[1:]).tolist()
    assert weights.tobytes() == _log_domain_weights(6).tobytes()
    assert np.allclose(weights, [sqrt(comb(6, m) / 64) for m in range(7)], rtol=1e-15, atol=0)
    assert dk.states._sector_ladder.cache_info().maxsize == 4


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 10_000])
def test_psixy_symmetric_amplitudes_are_bit_identical_to_the_one_line_expression(n):
    for phi in (0.0, -0.0, 0.7, 5.9, -2.2):
        reference = _log_domain_weights(n) * np.exp(1j * phi * np.arange(n + 1))
        reference /= np.linalg.norm(reference)
        assert dk.psixy_symmetric(n, phi).sector_amplitudes.tobytes() == reference.tobytes(), phi


def _per_call_sector_moments(amps, n):
    """``_sector_moments`` with its N-only arrays rebuilt on every call, as it
    was before the cached ladder table; the reference of the tests below."""
    m = np.arange(n + 1.0)
    z = m - 0.5 * n
    p = amps.real ** 2 + amps.imag ** 2
    coupling = np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
    raised = np.vdot(amps[1:], coupling * amps[:-1])
    raised2 = float(np.vdot(amps[2:], coupling[:-1] * coupling[1:] * amps[:-2]).real)
    jz, jz2 = float(p @ z), float(p @ (z * z))
    planar = (0.5 * n * (0.5 * n + 1.0) * float(p.sum()) - jz2) / 2.0
    first = (0.0 - float(raised.real), 0.0 - float(raised.imag), jz)
    return dk.Moments(first, (planar + raised2 / 2.0, planar - raised2 / 2.0, jz2))


def _symmetric_outputs(state):
    """Moments, every collective verdict (or its refusal) and two intensities,
    as exact float hex strings."""
    first, second = dk.moments(state)
    out = [x.hex() for x in first + second]
    for kind in ("theorem2", "variance", "symmetric_jz", "crit2", "genuine3", "genuine4"):
        try:
            v = dk.criterion_verdict(state, kind, m=1 if kind == "crit2" else None)
            out.append((v.value.hex(), v.bound.hex(), v.margin.hex(), v.detected))
        except dk.DomainError as refusal:
            out.append(str(refusal))
    return out + [dk.superradiance_intensity(state).hex(), dk.superradiance_intensity(state, 0.37).hex()]


@pytest.mark.parametrize("n", [*range(1, 61), 999, 1000, 4097, 10_000])
def test_sector_moments_from_the_ladder_table_are_bit_identical(n, monkeypatch):
    rng = np.random.default_rng(n)
    m = int(rng.integers(0, n + 1))
    vectors = [v / np.linalg.norm(v) for v in rng.normal(size=(2, n + 1)) + 1j * rng.normal(size=(2, n + 1))]
    builders = [
        lambda: dk.dicke_symmetric(n, m),
        *(lambda phi=phi: dk.psixy_symmetric(n, phi) for phi in (0.0, 0.7, 1.3, float(rng.uniform(0, 2 * np.pi)))),
        *(lambda v=v: dk.SymmetricState(n, v) for v in vectors),
        lambda: dk.white_noise_mix(dk.dicke_symmetric(n, n // 2), 1.0 / n),
        lambda: dk.white_noise_mix(dk.psixy_symmetric(n, 0.7), 0.3),
        lambda: dk.Mixture((dk.SymmetricState(n, vectors[0]), dk.dicke_symmetric(n, m)), (0.4, 0.5), 0.1),
    ]
    cached = [_symmetric_outputs(build()) for build in builders]
    monkeypatch.setattr(dk.states, "_sector_moments", _per_call_sector_moments)
    assert [_symmetric_outputs(build()) for build in builders] == cached  # fresh states: no moments kept


def test_sector_moments_allocate_under_three_sector_vectors():
    import tracemalloc

    n = 10_000
    amps = dk.psixy_symmetric(n, 0.7).sector_amplitudes
    dk.states._sector_moments(amps, n)  # the ladder table is built here, once
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        dk.states._sector_moments(amps, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * amps.nbytes, peak / amps.nbytes


def test_dicke_state_copies_the_shared_amplitudes():
    state = dk.dicke_state(6, 2)
    cached = dk.states._dicke_amplitudes(6, 2)
    assert state.amplitudes is not cached and not np.shares_memory(state.amplitudes, cached)
    assert state.amplitudes.tobytes() == cached.tobytes()


_CALLER_DATA = {  # record, qubit count, a valid array of its field as the caller holds it
    "PureState": (dk.PureState, 1, np.array([0.6, 0.8j])),
    "SymmetricState": (dk.SymmetricState, 2, np.array([0.0, 0.6, 0.8])),
    "DensityMatrix": (dk.DensityMatrix, 1, np.array([[0.5, 0.25j], [-0.25j, 0.5]])),
}


@pytest.mark.parametrize("record, n, data", _CALLER_DATA.values(), ids=_CALLER_DATA.keys())
@pytest.mark.parametrize("as_caller", [np.copy, lambda a: a.astype(complex), lambda a: a.tolist()],
                         ids=["ndarray", "complex-ndarray", "list"])
def test_a_state_holds_a_read_only_copy_of_the_callers_data(record, n, data, as_caller):
    caller = as_caller(data)
    state = record(n, caller)
    held = getattr(state, record._field)
    before = held.tobytes()
    assert not held.flags.writeable
    with pytest.raises(ValueError):
        held[0] = 0
    if isinstance(caller, np.ndarray):
        assert not np.shares_memory(held, caller) and caller.flags.writeable
        caller[...] = 0
    else:
        caller[0] = 0
    assert held.tobytes() == before


def _peak_sector_vectors(build, n):
    """Peak traced allocation of ``build()``, in (N+1)-entry complex vectors,
    once the per-N tables it reads are built."""
    import tracemalloc

    build()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * (n + 1))


def test_symmetric_constructors_allocate_one_sector_vector():
    n = 10_000
    assert _peak_sector_vectors(lambda: dk.dicke_symmetric(n, 4321), n) <= 1.1
    # the phase is formed in the one vector; a float-to-complex buffer of the
    # weights is the rest
    assert _peak_sector_vectors(lambda: dk.psixy_symmetric(n, 0.7), n) <= 2.0


@pytest.mark.parametrize("build", [
    lambda: dk.dicke_symmetric(5, 2), lambda: dk.psixy_symmetric(5, 0.7),
    lambda: dk.product_state([[1, 0], [0.6, 0.8]]), lambda: dk.symmetric_to_dense(dk.psixy_symmetric(3, 0.7)),
    lambda: dk.assemble_bipartite([1, 1], [0, 1], dk.Bipartition(2, (1,))),
    lambda: dk.psixy_state(3, 0.7).to_density(), lambda: dk.white_noise_mix(dk.dicke_state(2, 1), 0.5).to_density(),
], ids=["dicke_symmetric", "psixy_symmetric", "product_state", "symmetric_to_dense", "assemble_bipartite",
        "PureState.to_density", "Mixture.to_density"])
def test_built_states_are_read_only(build):
    state = build()
    held = getattr(state, state._field)
    assert not held.flags.writeable
    with pytest.raises(ValueError):
        held[0] = 0


@pytest.mark.parametrize("kind", ["pure", "product", "biseparable", "density"])
def test_sampled_states_are_read_only(kind):
    states = list(dk.sample_random_states(kind, 3, 5, seed=4))
    for state in states:
        held = getattr(state, state._field)
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0] = 0


@pytest.mark.parametrize("n", [True, 0, 2.0])
def test_psixy_state_refuses_a_size_that_is_not_a_qubit_count(n):
    with pytest.raises(dk.DomainError, match="n_qubits must be an integer >= 1"):
        dk.psixy_state(n)
