"""Every public entry point refuses a scalar argument of the wrong kind with
DomainError: a bool where a number is meant, NaN or infinity, a string or
None.  Each case names the argument it feeds and the text its refusal opens
with, so a bad value is caught by that argument's own check."""

import re
from dataclasses import fields

import numpy as np
import pytest

import dickekit as dk
from dickekit.collective import ti_objective

BAD_VALUES = {
    "True": True, "np_True": np.True_, "nan": float("nan"), "inf": float("inf"),
    "-inf": float("-inf"), "str": "1", "None": None,
}

_PURE = dk.dicke_state(2, 1)
# the criterion kinds that read no m, each with a qubit count it applies to
_KINDS_WITHOUT_M = {"theorem2": 2, "variance": 2, "symmetric_jz": 2, "genuine3": 3, "genuine4": 4}
_OP = dk.collective_operator(2, dk.QuadraticForm(a=(1, 1, 0)))
_SPLIT = dk.Bipartition(2, (1,))

# argument: (call feeding it the bad value, start of the refusal)
ENTRY_POINTS = {
    "PureState.n_qubits": (lambda v: dk.PureState(v, [1, 0]), "n_qubits must be"),
    "DensityMatrix.n_qubits": (lambda v: dk.DensityMatrix(v, [[1, 0], [0, 0]]), "n_qubits must be"),
    "SymmetricState.n_qubits": (lambda v: dk.SymmetricState(v, [1, 0]), "n_qubits must be"),
    "Mixture.weight": (lambda v: dk.Mixture((_PURE, _PURE), (v, 0.5)), "Mixture weight must be"),
    "Mixture.identity_weight": (lambda v: dk.Mixture((_PURE,), (0.5,), identity_weight=v),
                                "Mixture identity weight must be"),
    "Bipartition.n_qubits": (lambda v: dk.Bipartition(v, (1,)), "n_qubits must be"),
    "Bipartition.label": (lambda v: dk.Bipartition(3, (v,)), "Bipartition qubit label must be"),
    "dicke_state.n": (lambda v: dk.dicke_state(v, 1), "n_qubits must be"),
    "dicke_state.m": (lambda v: dk.dicke_state(4, v), "excitation count m must be"),
    "dicke_symmetric.n": (lambda v: dk.dicke_symmetric(v, 1), "n_qubits must be"),
    "dicke_symmetric.m": (lambda v: dk.dicke_symmetric(4, v), "excitation count m must be"),
    "psixy_state.n": (lambda v: dk.psixy_state(v), "n_qubits must be"),
    "psixy_state.phi": (lambda v: dk.psixy_state(3, v), "psixy phase must be a finite number"),
    "psixy_symmetric.n": (lambda v: dk.psixy_symmetric(v), "n_qubits must be"),
    "psixy_symmetric.phi": (lambda v: dk.psixy_symmetric(3, v), "psixy phase must be a finite number"),
    "white_noise_mix.p": (lambda v: dk.white_noise_mix(_PURE, v), "noise ratio p must be"),
    "psixy_noise_mix.n": (lambda v: dk.psixy_noise_mix(v, 0.5), "n_qubits must be"),
    "psixy_noise_mix.p": (lambda v: dk.psixy_noise_mix(4, v), "noise ratio p must be"),
    "psixy_noise_mix.phi": (lambda v: dk.psixy_noise_mix(4, 0.5, v), "psixy phase must be"),
    "dicke_fidelity_bound.n": (lambda v: dk.dicke_fidelity_bound(v, 1), "n must be"),
    "dicke_fidelity_bound.m": (lambda v: dk.dicke_fidelity_bound(4, v), "excitation count m must be"),
    "fidelity_witness_verdict.n": (lambda v: dk.fidelity_witness_verdict(_PURE, v, 1), "state has 2 qubits"),
    "fidelity_witness_verdict.m": (lambda v: dk.fidelity_witness_verdict(_PURE, 2, v), "excitation count m must be"),
    "fidelity_threshold_numeric.n": (lambda v: dk.fidelity_threshold_numeric(v), "n must be"),
    "verify_appendix_inequality.n": (lambda v: dk.verify_appendix_inequality(v), "n must be"),
    "lemma1_bound.n": (lambda v: dk.lemma1_bound(dk.QuadraticForm(a=(1, 1, 0)), v), "n must be"),
    "theorem2_bound.n": (lambda v: dk.theorem2_bound(v), "n must be"),
    "criterion_verdict.crit2_m": (lambda v: dk.criterion_verdict(_PURE, "crit2", m=v), "crit2 shift m must be"),
    **{f"criterion_verdict.{kind}_m": (lambda v, kind=kind, n=n: dk.criterion_verdict(dk.dicke_state(n, 1), kind, m=v),
                                       f"{kind} does not read m")
       for kind, n in _KINDS_WITHOUT_M.items()},
    "superradiance_intensity.i0": (lambda v: dk.superradiance_intensity(_PURE, v), "i0 must be"),
    "collective_noise_threshold.n": (lambda v: dk.collective_noise_threshold(v, "theorem2"), "n must be"),
    "collective_noise_threshold.fidelity_n": (lambda v: dk.collective_noise_threshold(v, "fidelity"),
                                              "n must be"),
    "collective_threshold_numeric.n": (lambda v: dk.collective_threshold_numeric(v, "theorem2"), "n must be"),
    "theorem3_eigenvalues.X": (lambda v: dk.theorem3_eigenvalues(v), "theorem3 X must be"),
    "lemma2_eigenvalues.n_l": (lambda v: dk.lemma2_eigenvalues((v, 0, 0)), "lemma2 direction n_l must be"),
    "QuadraticForm.a": (lambda v: dk.QuadraticForm(a=(v, 1, 0)), "quadratic coefficient a_l must be"),
    "QuadraticForm.b": (lambda v: dk.QuadraticForm(b=(0, 0, v)), "linear coefficient b_l must be"),
    "collective_operator.n": (lambda v: dk.collective_operator(v, "x"), "n_qubits must be"),
    "maximize_over_product_states.restarts": (lambda v: dk.maximize_over_product_states(_OP, restarts=v),
                                              "restarts must be"),
    "maximize_over_product_states.seed": (lambda v: dk.maximize_over_product_states(_OP, seed=v), "seed must be"),
    "maximize_over_biseparable.restarts": (lambda v: dk.maximize_over_biseparable(_OP, restarts=v),
                                           "restarts must be"),
    "maximize_over_biseparable.seed": (lambda v: dk.maximize_over_biseparable(_OP, seed=v), "seed must be"),
    "maximize_over_ti_product.n": (lambda v: dk.maximize_over_ti_product(dk.QuadraticForm(a=(1, 1, 0)), v),
                                   "n must be"),
    "ti_objective.n": (lambda v: ti_objective(dk.QuadraticForm(a=(1, 1, 0)), v, np.zeros(3)), "n must be"),
    "ti_objective.s": (lambda v: ti_objective(dk.QuadraticForm(a=(1, 1, 0)), 3, [v, v, v]), "Bloch vector s must"),
    # every component the same, so a bool vector has a bool dtype
    "BlochProduct.vectors": (lambda v: dk.BlochProduct([[v, v, v]]), "Bloch vectors must"),
    "sample_random_states.n": (lambda v: next(dk.sample_random_states("pure", v, 1)), "n_qubits must be"),
    "sample_random_states.count": (lambda v: next(dk.sample_random_states("pure", 2, v)), "count must be"),
    "sample_random_states.seed": (lambda v: next(dk.sample_random_states("pure", 2, 1, seed=v)), "seed must be"),
    **{f"Tolerances.{f.name}": (lambda v, name=f.name: dk.Tolerances(**{name: v}), f"tolerance {f.name} must be")
       for f in fields(dk.Tolerances)},
}


# None is the default of these: read no m
_NONE_ALLOWED = {f"criterion_verdict.{kind}_m" for kind in _KINDS_WITHOUT_M}


@pytest.mark.filterwarnings("error")  # refused before any arithmetic can warn
@pytest.mark.parametrize("call, message, bad", [
    pytest.param(call, message, bad, id=f"{name}-{value_id}")
    for name, (call, message) in ENTRY_POINTS.items()
    for value_id, bad in BAD_VALUES.items()
    if not (bad is None and name in _NONE_ALLOWED)
])
def test_bad_scalar_arguments_raise_domain_error(call, message, bad):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        call(bad)


# argument: (call on an array, the 0/1 entries of an input it accepts, start of the refusal)
_ARRAY_ENTRY_POINTS = {
    "PureState.amplitudes": (lambda v: dk.PureState(1, v), [1, 0], "PureState amplitudes must hold numbers"),
    "DensityMatrix.matrix": (lambda v: dk.DensityMatrix(1, v), [[1, 0], [0, 0]],
                             "DensityMatrix matrix must hold numbers"),
    "SymmetricState.sector_amplitudes": (lambda v: dk.SymmetricState(2, v), [1, 0, 0],
                                         "SymmetricState sector_amplitudes must hold numbers"),
    "SymmetricState.stack": (lambda v: dk.SymmetricState._from_stack(2, v), [[1, 0, 0], [0, 0, 1]],
                             "SymmetricState sector_amplitudes must hold numbers"),
    "HermitianOperator.matrix": (lambda v: dk.HermitianOperator(v), [[1, 0], [0, 1]],
                                 "HermitianOperator matrix must hold numbers"),
    "BlochProduct.vectors": (lambda v: dk.BlochProduct(v), [[0, 0, 0], [0, 0, 0]],
                             "Bloch vectors must hold real numbers"),
    "ti_objective.s": (lambda v: ti_objective(dk.QuadraticForm(a=(1, 1, 0)), 3, v), [[0, 0, 0], [0, 0, 0]],
                       "Bloch vector s must hold real numbers"),
    "product_state.qubit_states": (lambda v: dk.product_state(v), [[1, 0], [0, 1]],
                                   "single-qubit state must hold numbers"),
    "assemble_bipartite.phi_a": (lambda v: dk.assemble_bipartite(v, [1, 0], _SPLIT), [1, 0],
                                 "assemble_bipartite factor phi_a must hold numbers"),
    "assemble_bipartite.phi_b": (lambda v: dk.assemble_bipartite([1, 0], v, _SPLIT), [0, 1],
                                 "assemble_bipartite factor phi_b must hold numbers"),
}


def _ragged(a):
    """The accepted entries with the last one nested a level deeper: [1, [0]] for [1, 0]."""
    nested = a.tolist()
    innermost = nested if a.ndim == 1 else nested[-1]
    innermost[-1] = [innermost[-1]]
    return nested


# each the accepted input's entries in a form NumPy would otherwise parse or cast,
# or, ragged, refuse to make an array of
_NOT_NUMBERS = {
    "bool": lambda a: a != 0,
    "str": lambda a: a.astype(str),
    "str-list": lambda a: a.astype(str).tolist(),
    "bytes": lambda a: a.astype(bytes),
    "object-str": lambda a: a.astype(str).astype(object),
    "object-bool": lambda a: (a != 0).astype(object),
    "object-None": lambda a: np.where(a == 0, None, a),
    "ragged": _ragged,
}


@pytest.mark.filterwarnings("error")  # refused before NumPy parses or casts the array
@pytest.mark.parametrize("call, entries, message, to_bad", [
    pytest.param(call, entries, message, to_bad, id=f"{name}-{bad_id}")
    for name, (call, entries, message) in _ARRAY_ENTRY_POINTS.items()
    for bad_id, to_bad in _NOT_NUMBERS.items()
])
def test_an_array_that_does_not_hold_numbers_is_refused(call, entries, message, to_bad):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        call(to_bad(np.array(entries)))


# mixed qubits or factors, each refused by its own check, not parsed as |0>
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", [
    (lambda: dk.product_state([["1", "0"], [True, False]]), "single-qubit state must hold numbers"),
    (lambda: dk.product_state([[True, False]]), "single-qubit state must hold numbers"),
    (lambda: dk.product_state([[1, 0], [b"1", b"0"]]), "single-qubit state must hold numbers"),
    (lambda: dk.assemble_bipartite(["1", "0"], [True, False], _SPLIT), "factor phi_a must hold numbers"),
    (lambda: dk.assemble_bipartite([1, 0], [b"1", b"0"], _SPLIT), "factor phi_b must hold numbers"),
], ids=["product-str-bool", "product-bool", "product-int-bytes", "bipartite-str-bool", "bipartite-int-bytes"])
def test_qubits_and_factors_that_do_not_hold_numbers_are_refused(call, message):
    with pytest.raises(dk.DomainError, match=message):
        call()


_AS_NUMBERS = {
    "int": lambda a: a,
    "float-list": lambda a: a.astype(float).tolist(),
    "complex": lambda a: a.astype(complex),
    "object-int": lambda a: a.astype(object),
    "object-float32": lambda a: np.array([np.float32(x) for x in a.ravel()], dtype=object).reshape(a.shape),
    "object-complex": lambda a: a.astype(complex).astype(object),
}
_COMPLEX = {"complex", "object-complex"}
_REAL_ONLY = {"BlochProduct.vectors", "ti_objective.s"}


@pytest.mark.parametrize("call, entries, as_numbers", [
    pytest.param(call, entries, as_numbers, id=f"{name}-{numbers_id}")
    for name, (call, entries, _message) in _ARRAY_ENTRY_POINTS.items()
    for numbers_id, as_numbers in _AS_NUMBERS.items()
    if not (name in _REAL_ONLY and numbers_id in _COMPLEX)
])
def test_an_array_of_numbers_is_accepted_whatever_its_numeric_dtype(call, entries, as_numbers):
    call(as_numbers(np.array(entries)))


@pytest.mark.filterwarnings("error")  # not cast to real with a ComplexWarning
@pytest.mark.parametrize("numbers_id", sorted(_COMPLEX))
def test_bloch_vectors_refuse_complex_entries(numbers_id):
    with pytest.raises(dk.DomainError, match="Bloch vectors must hold real numbers, got dtype"):
        dk.BlochProduct(_AS_NUMBERS[numbers_id](np.zeros((1, 3))))
    with pytest.raises(dk.DomainError, match="Bloch vector s must hold real numbers, got dtype"):
        ti_objective(dk.QuadraticForm(a=(1, 1, 0)), 3, _AS_NUMBERS[numbers_id](np.zeros(3)))


_BAD_RECORDS = {"float": 0.0, "None": None, "dict": {"detection_tolerance": 0.0}}


@pytest.mark.parametrize("bad", _BAD_RECORDS.values(), ids=_BAD_RECORDS.keys())
@pytest.mark.parametrize("call", [
    lambda tol: dk.criterion_verdict(_PURE, "theorem2", tol=tol),
    lambda tol: dk.criterion_verdict(dk.dicke_symmetric(4, 2), "symmetric_jz", tol=tol),
    lambda tol: dk.fidelity_witness_verdict(_PURE, 2, 1, tol=tol),
], ids=["theorem2", "symmetric_jz", "fidelity"])
def test_a_tolerance_that_is_not_a_tolerances_record_is_refused(call, bad):
    with pytest.raises(dk.DomainError, match="tol must be a Tolerances"):
        call(bad)


@pytest.mark.parametrize("form", [(1, 1, 0), ((1, 1, 0), (0, 0, 0)), None, "x"])
def test_lemma1_bound_refuses_what_is_not_a_quadratic_form(form):
    with pytest.raises(dk.DomainError, match="form must be a QuadraticForm"):
        dk.lemma1_bound(form, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: dk.white_noise_mix(_PURE, 10 ** 400), "noise ratio p must be"),
    # the shift -2m overflows a float before any verdict is formed
    (lambda: dk.criterion_verdict(_PURE, "crit2", m=10 ** 400), "linear coefficient b_l must be"),
    (lambda: dk.criterion_verdict(_PURE, "crit2", m=-(10 ** 308)), "linear coefficient b_l must be"),
], ids=["white_noise_mix.p", "crit2.m", "crit2.m_doubled"])
def test_an_int_beyond_the_float_range_is_not_a_finite_number(call, message):
    with pytest.raises(dk.DomainError, match=message):
        call()


# a finite phase whose multiple m phi leaves the float range: refused before NumPy warns
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, phi", [
    (10, 1e308), (10, -1e308), (np.int64(10), 1e308), (10_000, 1e305), (2, float(np.finfo(float).max)),
], ids=["1e308", "-1e308", "int64-n", "n=1e4", "max"])
def test_a_psixy_phase_whose_multiple_leaves_the_float_range_is_refused(n, phi):
    with pytest.raises(dk.DomainError, match=re.escape(f"psixy phase {phi!r} times n = {n} leaves the float range")):
        dk.psixy_symmetric(n, phi)
    assert np.isfinite(dk.psixy_state(10, phi).amplitudes).all()  # one qubit's phase stays in range


# a valid state and argument whose result leaves the float range: refused like lemma1_bound's closed form
_HUGE = dk.QuadraticForm(a=(1e308, 0, 0))
_HUGE_OP = dk.HermitianOperator(np.full((2, 2), 1e308))
_PLUS = dk.product_state([[1, 1]])
_HUGE_OP_MESSAGE = "a 2-dimensional HermitianOperator on 1 qubits leaves the float range of the expectation"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", [
    (lambda: dk.expectation(dk.dicke_symmetric(10 ** 4, 5000), _HUGE),
     f"{_HUGE} on 10000 qubits leaves the float range of the expectation"),
    (lambda: dk.expectation(dk.dicke_state(4, 2), _HUGE), f"{_HUGE} on 4 qubits leaves the float range of the expectation"),
    (lambda: dk.expectation(dk.white_noise_mix(dk.dicke_state(4, 2), 0.5), _HUGE),
     f"{_HUGE} on 4 qubits leaves the float range of the expectation"),
    (lambda: dk.superradiance_intensity(dk.dicke_symmetric(10 ** 4, 5000), i0=1e308),
     "i0 = 1e+308 on 10000 qubits leaves the float range of the intensity"),
    (lambda: dk.expectation(_PLUS, _HUGE_OP), _HUGE_OP_MESSAGE),
    (lambda: dk.expectation(_PLUS.to_density(), _HUGE_OP), _HUGE_OP_MESSAGE),
    (lambda: dk.expectation(dk.white_noise_mix(_PLUS, 0.5), _HUGE_OP), _HUGE_OP_MESSAGE),
    (lambda: dk.max_eigenvalue(_HUGE_OP), "the top eigenvalue of a 2-dimensional operator leaves the float range"),
], ids=["expectation-symmetric", "expectation-dense", "expectation-mixture", "superradiance_intensity",
        "operator-pure", "operator-density", "operator-mixture", "max_eigenvalue"])
def test_a_result_beyond_the_float_range_is_refused(call, message):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        call()


def test_an_operator_past_the_float_range_in_sum_but_not_in_eigenvalue_is_kept():
    # the entries of 1e307 J_x^2 on 4 qubits sum past the float range, its top eigenvalue 4e307 does not
    op = dk.collective_operator(4, dk.QuadraticForm(a=(1e307, 0, 0)))
    assert dk.max_eigenvalue(op) == pytest.approx(4e307)


# argument: (call feeding it something that is not a sequence, start of the refusal)
_NOT_SEQUENCES = {
    "QuadraticForm.a": (lambda v: dk.QuadraticForm(a=v), "QuadraticForm a must be a sequence"),
    "QuadraticForm.b": (lambda v: dk.QuadraticForm(b=v), "QuadraticForm b must be a sequence"),
    "Mixture.components": (lambda v: dk.Mixture(v, (1.0,)), "Mixture components must be a sequence"),
    "Mixture.weights": (lambda v: dk.Mixture((_PURE,), v), "Mixture weights must be a sequence"),
    "Bipartition.side_a": (lambda v: dk.Bipartition(3, v), "Bipartition side_a must be a sequence"),
    "product_state.qubit_states": (lambda v: dk.product_state(v), "product_state qubit states must be a sequence"),
}


@pytest.mark.parametrize("call, message, bad", [
    pytest.param(call, message, bad, id=f"{name}-{value_id}")
    for name, (call, message) in _NOT_SEQUENCES.items()
    for value_id, bad in {"None": None, "float": 1.0, "int": 1, "str": "110", "state": _PURE,
                          "0-d array": np.array(1.0)}.items()
])
def test_a_container_argument_that_is_not_a_sequence_is_refused(call, message, bad):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        call(bad)


_STATES = "PureState or DensityMatrix or SymmetricState or Mixture"

# argument: (call feeding it something that is not the record it needs, start of the refusal)
_NOT_RECORDS = {
    "criterion_verdict.state": (lambda v: dk.criterion_verdict(v, "theorem2"), f"state must be a {_STATES}"),
    "criterion_verdict.fidelity_state": (lambda v: dk.criterion_verdict(v, "fidelity", 1),
                                         f"state must be a {_STATES}"),
    "fidelity_witness_verdict.state": (lambda v: dk.fidelity_witness_verdict(v, 2, 1), f"state must be a {_STATES}"),
    "expectation.state": (lambda v: dk.expectation(v, _OP), f"state must be a {_STATES}"),
    "expectation.form_state": (lambda v: dk.expectation(v, dk.QuadraticForm()), f"state must be a {_STATES}"),
    "moments.state": (lambda v: dk.moments(v), f"state must be a {_STATES}"),
    "superradiance_intensity.state": (lambda v: dk.superradiance_intensity(v), f"state must be a {_STATES}"),
    "white_noise_mix.target": (lambda v: dk.white_noise_mix(v, 0.1),
                               "Mixture component must be a PureState or SymmetricState"),
    "symmetric_to_dense.state": (lambda v: dk.symmetric_to_dense(v), "state must be a SymmetricState"),
    "assemble_bipartite.split": (lambda v: dk.assemble_bipartite([1, 0], [1, 0], v),
                                 "split must be a Bipartition"),
    "schmidt_spectrum.state": (lambda v: dk.schmidt_spectrum(v, _SPLIT), "state must be a PureState"),
    "schmidt_spectrum.split": (lambda v: dk.schmidt_spectrum(_PURE, v), "split must be a Bipartition"),
    "lemma1_bound.form": (lambda v: dk.lemma1_bound(v, 3), "form must be a QuadraticForm"),
    "maximize_over_ti_product.form": (lambda v: dk.maximize_over_ti_product(v, 3), "form must be a QuadraticForm"),
    "ti_objective.form": (lambda v: ti_objective(v, 3, np.zeros(3)), "form must be a QuadraticForm"),
    "lemma2_vector_norm.state": (lambda v: dk.lemma2_vector_norm(v), "state must be a PureState or DensityMatrix"),
    "max_eigenvalue.op": (lambda v: dk.max_eigenvalue(v), "op must be a HermitianOperator"),
    "maximize_over_product_states.op": (lambda v: dk.maximize_over_product_states(v), "op must be a HermitianOperator"),
    "maximize_over_biseparable.op": (lambda v: dk.maximize_over_biseparable(v), "op must be a HermitianOperator"),
}


@pytest.mark.parametrize("call, message, bad", [
    pytest.param(call, message, bad, id=f"{name}-{value_id}")
    for name, (call, message) in _NOT_RECORDS.items()
    for value_id, bad in {"None": None, "float": 1.0, "tuple": (1, 1, 0), "str": "x",
                          "tolerances": dk.DEFAULT_TOLERANCES}.items()
])
def test_a_record_argument_of_the_wrong_type_is_refused(call, message, bad):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        call(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: dk.schmidt_spectrum(dk.dicke_symmetric(2, 1), _SPLIT), "state must be a PureState, got SymmetricState"),
    (lambda: dk.symmetric_to_dense(_PURE), "state must be a SymmetricState, got PureState"),
    (lambda: dk.white_noise_mix(_PURE.to_density(), 0.1), "Mixture component must be a PureState or SymmetricState"),
    (lambda: dk.lemma2_vector_norm(dk.white_noise_mix(_PURE, 0.5)),
     "state must be a PureState or DensityMatrix, got Mixture"),
    (lambda: dk.lemma2_vector_norm(dk.dicke_symmetric(2, 1)),
     "state must be a PureState or DensityMatrix, got SymmetricState"),
], ids=["schmidt_spectrum", "symmetric_to_dense", "white_noise_mix", "lemma2_vector_norm-mixture",
        "lemma2_vector_norm-symmetric"])
def test_a_state_of_another_backend_is_refused(call, message):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        call()


# argument: (call feeding it a value of the wrong size or kind, start of the refusal)
_WRONG_SIZES = {
    "QuadraticForm.a": (lambda: dk.QuadraticForm(a=(1, 2)), "QuadraticForm coefficients must be triples"),
    "expectation.which": (lambda: dk.expectation(_PURE, 3.0), "expected a QuadraticForm or an axis tag, got float"),
    "DensityMatrix.matrix": (lambda: dk.DensityMatrix(1, np.eye(4) / 4),
                             "DensityMatrix: expected shape (2,2), got (4, 4)"),
    "product_state.qubit_states": (lambda: dk.product_state([]), "product_state needs at least one qubit"),
    "assemble_bipartite.phi_b": (lambda: dk.assemble_bipartite([1, 0], [1, 0, 0, 0], _SPLIT),
                                 "assemble_bipartite factor phi_b must have shape (2,), got (4,)"),
    "schmidt_spectrum.split": (lambda: dk.schmidt_spectrum(_PURE, dk.Bipartition(3, (1,))),
                               "split is over 3 qubits but the state has 2"),
    "BlochProduct.vectors": (lambda: dk.BlochProduct(np.zeros((2, 2))), "Bloch vectors must have shape (..., 3), got (2, 2)"),
    "BlochProduct.vectors_1d": (lambda: dk.BlochProduct(np.zeros(3)), "BlochProduct needs shape (N, 3), got (3,)"),
    "BlochProduct.vectors_length": (lambda: dk.BlochProduct([[0, 0, 0.5], [0, 0.6, 0]]),
                                    "Bloch vectors must be finite with length <= 1/2, max is 0.6"),
    "ti_objective.s": (lambda: ti_objective(dk.QuadraticForm(a=(1, 1, 0)), 3, np.zeros(2)),
                       "Bloch vector s must have shape (..., 3), got (2,)"),
    "ti_objective.s_scalar": (lambda: ti_objective(dk.QuadraticForm(a=(1, 1, 0)), 3, 0.0),
                              "Bloch vector s must have shape (..., 3), got ()"),
    "ti_objective.s_length": (lambda: ti_objective(dk.QuadraticForm(a=(1, 1, 0)), 3, [[0, 0, 0], [1, 0, 0]]),
                              "Bloch vector s must be finite with length <= 1/2"),
    "lemma2_eigenvalues.n_l": (lambda: dk.lemma2_eigenvalues([1, 0]),
                               "lemma2 direction needs a 3-vector, got shape (2,)"),
}


@pytest.mark.parametrize("call, message", _WRONG_SIZES.values(), ids=_WRONG_SIZES.keys())
def test_an_argument_of_the_wrong_size_or_kind_is_refused(call, message):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        call()
