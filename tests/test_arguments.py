"""Every public entry point refuses a scalar argument of the wrong kind with
DomainError: a bool where a number is meant, NaN or infinity, a string or
None.  Each case names the argument it feeds and the text its refusal opens
with, so a bad value is caught by that argument's own check."""

import re
from dataclasses import fields

import numpy as np
import pytest

import dickekit as dk

BAD_VALUES = {
    "True": True, "np_True": np.True_, "nan": float("nan"), "inf": float("inf"),
    "-inf": float("-inf"), "str": "1", "None": None,
}

_PURE = dk.dicke_state(2, 1)
_OP = dk.collective_operator(2, dk.QuadraticForm(a=(1, 1, 0)))

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
    "dicke_schmidt_squared.n": (lambda v: dk.dicke_schmidt_squared(v, 1, 1), "n must be"),
    "dicke_schmidt_squared.m": (lambda v: dk.dicke_schmidt_squared(4, v, 1), "excitation count m must be"),
    "dicke_schmidt_squared.n1": (lambda v: dk.dicke_schmidt_squared(4, 2, v), "split size n1 must be"),
    "dicke_fidelity_bound.n": (lambda v: dk.dicke_fidelity_bound(v, 1), "n must be"),
    "dicke_fidelity_bound.m": (lambda v: dk.dicke_fidelity_bound(4, v), "excitation count m must be"),
    "fidelity_witness_verdict.n": (lambda v: dk.fidelity_witness_verdict(_PURE, v, 1), "state has 2 qubits"),
    "fidelity_witness_verdict.m": (lambda v: dk.fidelity_witness_verdict(_PURE, 2, v), "excitation count m must be"),
    "fidelity_threshold_numeric.n": (lambda v: dk.fidelity_threshold_numeric(v), "n must be"),
    "verify_appendix_inequality.n": (lambda v: dk.verify_appendix_inequality(v), "n must be"),
    "lemma1_bound.n": (lambda v: dk.lemma1_bound(dk.QuadraticForm(a=(1, 1, 0)), v), "n must be"),
    "criterion_verdict.crit2_m": (lambda v: dk.criterion_verdict(_PURE, "crit2", m=v), "crit2 shift m must be"),
    "superradiance_intensity.i0": (lambda v: dk.superradiance_intensity(_PURE, v), "i0 must be"),
    "collective_noise_threshold.n": (lambda v: dk.collective_noise_threshold(v, "theorem2"), "n must be"),
    "collective_noise_threshold.fidelity_n": (lambda v: dk.collective_noise_threshold(v, "fidelity"),
                                              "n must be"),
    "collective_threshold_numeric.n": (lambda v: dk.collective_threshold_numeric(v, "theorem2"), "n must be"),
    "analytic_eigenvalues.X": (lambda v: dk.analytic_eigenvalues("theorem3_eig", v), "theorem3_eig X must be"),
    "theorem3_operators.x1": (lambda v: dk.theorem3_operators(v, 0.0), "x1 must be"),
    "theorem3_operators.y1": (lambda v: dk.theorem3_operators(1.0, v), "y1 must be"),
    "QuadraticForm.a": (lambda v: dk.QuadraticForm(a=(v, 1, 0)), "quadratic coefficient a_l must be"),
    "QuadraticForm.b": (lambda v: dk.QuadraticForm(b=(0, 0, v)), "linear coefficient b_l must be"),
    "HermitianOperator.dimension": (lambda v: dk.HermitianOperator(v, [[1]]), "HermitianOperator dimension must be"),
    "single_site.qubit": (lambda v: dk.single_site(dk.SIGMA_X, v, 2), "qubit label must be"),
    "single_site.n": (lambda v: dk.single_site(dk.SIGMA_X, 1, v), "n must be"),
    "collective_operator.n": (lambda v: dk.collective_operator(v, "x"), "n_qubits must be"),
    "maximize_over_product_states.n": (lambda v: dk.maximize_over_product_states(_OP, n=v), "n must be"),
    "maximize_over_product_states.restarts": (lambda v: dk.maximize_over_product_states(_OP, restarts=v),
                                              "restarts must be"),
    "maximize_over_product_states.seed": (lambda v: dk.maximize_over_product_states(_OP, seed=v), "seed must be"),
    "maximize_over_biseparable.n": (lambda v: dk.maximize_over_biseparable(_OP, n=v), "n must be"),
    "maximize_over_biseparable.restarts": (lambda v: dk.maximize_over_biseparable(_OP, restarts=v),
                                           "restarts must be"),
    "maximize_over_biseparable.seed": (lambda v: dk.maximize_over_biseparable(_OP, seed=v), "seed must be"),
    "maximize_over_ti_product.n": (lambda v: dk.maximize_over_ti_product(dk.QuadraticForm(a=(1, 1, 0)), v),
                                   "n must be"),
    "sample_random_states.n": (lambda v: next(dk.sample_random_states("pure", v, 1)), "n_qubits must be"),
    "sample_random_states.count": (lambda v: next(dk.sample_random_states("pure", 2, v)), "count must be"),
    "sample_random_states.seed": (lambda v: next(dk.sample_random_states("pure", 2, 1, seed=v)), "seed must be"),
    **{f"Tolerances.{f.name}": (lambda v, name=f.name: dk.Tolerances(**{name: v}), f"tolerance {f.name} must be")
       for f in fields(dk.Tolerances)},
}


# None is the default of these: infer n from the operator
_NONE_ALLOWED = {"maximize_over_product_states.n", "maximize_over_biseparable.n"}


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


_BAD_RECORDS = {"float": 0.0, "None": None, "dict": {"detection_tolerance": 0.0}}


@pytest.mark.parametrize("bad", _BAD_RECORDS.values(), ids=_BAD_RECORDS.keys())
@pytest.mark.parametrize("call", [
    lambda tol: dk.make_verdict("x", 1.0, 0.0, dk.DETECTED_ENTANGLED, tol),
    lambda tol: dk.criterion_verdict(_PURE, "theorem2", tol=tol),
    lambda tol: dk.criterion_verdict(dk.dicke_symmetric(4, 2), "symmetric_jz", tol=tol),
    lambda tol: dk.fidelity_witness_verdict(_PURE, 2, 1, tol=tol),
], ids=["make_verdict", "theorem2", "symmetric_jz", "fidelity"])
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


_SPLIT = dk.Bipartition(2, (1,))
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
], ids=["schmidt_spectrum", "symmetric_to_dense", "white_noise_mix"])
def test_a_state_of_another_backend_is_refused(call, message):
    with pytest.raises(dk.DomainError, match=re.escape(message)):
        call()
