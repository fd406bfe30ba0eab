"""Numerical tolerances and backend size limits."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import DomainError, _check_real

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
            object.__setattr__(self, f.name, _check_real(getattr(self, f.name), f"tolerance {f.name}", 0))


DEFAULT_TOLERANCES = Tolerances()


def _check_tolerances(tol) -> Tolerances:
    if not isinstance(tol, Tolerances):
        raise DomainError(f"tol must be a Tolerances, got {tol!r}")
    return tol
