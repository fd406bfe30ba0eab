"""Centralized numerical tolerances and backend size limits."""

from __future__ import annotations

from dataclasses import dataclass, replace

# Dense statevectors/operators are capped at 12 qubits (4096-dim vectors,
# 4096 x 4096 matrices); symmetric-sector computations scale to much larger N.
DENSE_QUBIT_LIMIT = 12
SYMMETRIC_QUBIT_LIMIT = 10_000

DEFAULT_RESTARTS = 64


@dataclass(frozen=True)
class Tolerances:
    """One record holding every tolerance used by the library.

    Functions take an optional ``Tolerances`` so callers can tighten or relax
    individual checks; ``replace(DEFAULT_TOLERANCES, ...)`` builds variants.
    """

    norm_atol: float = 1e-12          # state normalization
    hermitian_atol: float = 1e-12     # entrywise Hermiticity
    trace_atol: float = 1e-12         # unit trace of density matrices
    psd_atol: float = 1e-10           # allowed negativity of density eigenvalues
    expectation_atol: float = 1e-10   # expectation-value agreement checks
    schmidt_atol: float = 1e-10       # Schmidt spectrum normalization / closed forms
    commutator_atol: float = 1e-12    # angular-momentum algebra checks
    symmetry_atol: float = 1e-8       # <J^2> distance from J(J+1), relative to max(1, J(J+1))
    detection_tolerance: float = 0.0  # margin must exceed this to count as detected
    attainment_tol: float = 1e-6      # optimizers must reach known optima this closely
    soundness_tol: float = 1e-9       # sampled states may not exceed bounds by more
    convergence_tol: float = 1e-12    # alternating-update stopping threshold
    bisection_xtol: float = 1e-12     # root finding on noise-sweep margins


DEFAULT_TOLERANCES = Tolerances()


def with_overrides(tol: Tolerances, overrides: dict[str, float] | None) -> Tolerances:
    """Return ``tol`` with the named fields replaced."""
    if not overrides:
        return tol
    return replace(tol, **overrides)
