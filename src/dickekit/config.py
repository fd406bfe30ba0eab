"""Numerical tolerances and backend size limits."""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite
from numbers import Real

from .errors import DomainError

# Dense statevectors/operators are capped at 12 qubits (4096-dim vectors,
# 4096 x 4096 matrices); symmetric-sector computations scale to much larger N.
DENSE_QUBIT_LIMIT = 12
SYMMETRIC_QUBIT_LIMIT = 10_000

DEFAULT_RESTARTS = 64

# Fixed tolerances of state validation and of the numeric noise thresholds.
NORM_ATOL = 1e-12       # state normalization
HERMITIAN_ATOL = 1e-12  # entrywise Hermiticity
TRACE_ATOL = 1e-12      # unit trace of density matrices and mixture weights
PSD_ATOL = 1e-10        # allowed negativity of density eigenvalues
SCHMIDT_ATOL = 1e-10    # Schmidt spectrum normalization
SOUNDNESS_TOL = 1e-9    # a margin at p = 1 up to this counts as a crossing at the endpoint
ROOT_XTOL = 1e-12       # root finding on noise-sweep margins


@dataclass(frozen=True)
class Tolerances:
    """The thresholds a caller may set, each finite and nonnegative; the CLI
    sets them with ``--tolerance NAME=VALUE``."""

    detection_tolerance: float = 0.0  # margin must exceed this to count as detected
    symmetry_atol: float = 1e-8       # <J^2> distance from J(J+1), relative to max(1, J(J+1))
    convergence_tol: float = 1e-12    # alternating-update stopping threshold

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass (np.bool_ is not a Real) but never a tolerance
            if isinstance(value, bool) or not isinstance(value, Real) or not isfinite(value) or value < 0:
                raise DomainError(f"tolerance {f.name} must be finite and nonnegative, got {value!r}")
            object.__setattr__(self, f.name, float(value))


DEFAULT_TOLERANCES = Tolerances()
