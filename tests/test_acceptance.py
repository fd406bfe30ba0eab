"""Acceptance gate: one test per documented criterion, at full scale.

Each test prints its sub-check report (visible with ``pytest -s`` or on
failure) and asserts the criterion outcome.  The batteries and their budgets
live in ``dickekit.selftest``.
"""

import pytest

from dickekit import DomainError, selftest


@pytest.mark.parametrize("criterion", selftest.ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_acceptance(criterion):
    # each battery is numbered by its place, and its name carries that number
    number = selftest.ALL_CRITERIA.index(criterion) + 1
    assert criterion.__name__.startswith(f"criterion_{number:02d}_")
    [result] = selftest.run_all(only=number)
    assert result.criterion == number
    print()
    print(selftest.format_report([result], verbose=True))
    assert result.passed, "\n".join(result.failures)


@pytest.mark.parametrize("only", [0, len(selftest.ALL_CRITERIA) + 1])
def test_run_all_refuses_a_criterion_number_out_of_range(only):
    with pytest.raises(DomainError, match="only must be"):
        selftest.run_all(only=only)
