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
    "fidelity_noise_threshold.n": (lambda v: dk.fidelity_noise_threshold(v), "n must be"),
    "fidelity_threshold_numeric.n": (lambda v: dk.fidelity_threshold_numeric(v), "n must be"),
    "verify_appendix_inequality.n": (lambda v: dk.verify_appendix_inequality(v), "n must be"),
    "lemma1_bound.n": (lambda v: dk.lemma1_bound(dk.QuadraticForm(a=(1, 1, 0)), v), "n must be"),
    "criterion_verdict.crit2_m": (lambda v: dk.criterion_verdict(_PURE, "crit2", m=v), "crit2 shift m must be"),
    "superradiance_intensity.i0": (lambda v: dk.superradiance_intensity(_PURE, v), "i0 must be"),
    "collective_noise_threshold.n": (lambda v: dk.collective_noise_threshold(v, "theorem2"), "n must be"),
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
    lambda tol: dk.maximize_over_product_states(_OP, restarts=1, tol=tol),
    lambda tol: dk.maximize_over_biseparable(_OP, restarts=1, tol=tol),
], ids=["make_verdict", "theorem2", "symmetric_jz", "fidelity", "product", "biseparable"])
def test_a_tolerance_that_is_not_a_tolerances_record_is_refused(call, bad):
    with pytest.raises(dk.DomainError, match="tol must be a Tolerances"):
        call(bad)


@pytest.mark.parametrize("form", [(1, 1, 0), ((1, 1, 0), (0, 0, 0)), None, "x"])
def test_lemma1_bound_refuses_what_is_not_a_quadratic_form(form):
    with pytest.raises(dk.DomainError, match="expected a QuadraticForm"):
        dk.lemma1_bound(form, 3)


def test_an_int_beyond_the_float_range_is_not_a_finite_number():
    with pytest.raises(dk.DomainError, match="noise ratio p must be"):
        dk.white_noise_mix(_PURE, 10 ** 400)
