import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

import dickekit as dk
from dickekit import config


def test_tolerances_hold_only_what_a_caller_sets():
    assert [f.name for f in fields(dk.Tolerances)] == ["detection_tolerance"]
    assert (config.SYMMETRY_ATOL, config.CONVERGENCE_TOL) == (1e-8, 1e-12)  # fixed at the former defaults
    assert not hasattr(config, "with_overrides")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-12, True, np.bool_(False), "1e-9", None])
@pytest.mark.parametrize("name", [f.name for f in fields(dk.Tolerances)])
def test_tolerances_refuse_values_that_cannot_be_a_threshold(name, bad):
    with pytest.raises(dk.DomainError, match=name):
        replace(dk.DEFAULT_TOLERANCES, **{name: bad})


def test_tolerances_store_floats():
    for value in (0, np.float32(0.5), np.int64(1)):
        tol = dk.Tolerances(detection_tolerance=value)
        assert type(tol.detection_tolerance) is float and tol.detection_tolerance == value


@pytest.mark.parametrize("func, reads_tol", [
    (dk.make_verdict, True), (dk.criterion_verdict, True), (dk.fidelity_witness_verdict, True),
    (dk.maximize_over_product_states, False), (dk.maximize_over_biseparable, False),
    (dk.lemma1_bound, False), (dk.fidelity_threshold_numeric, False),
    (dk.collective_threshold_numeric, False),
])
def test_one_way_to_set_each_threshold(func, reads_tol):
    # thresholds come only from a Tolerances, and only a function that reads
    # one takes one
    params = inspect.signature(func).parameters
    assert "detection_tolerance" not in params
    assert ("tol" in params) == reads_tol
