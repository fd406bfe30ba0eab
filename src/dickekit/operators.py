"""Collective spin operators, quadratic forms, and expectation values.

Single-qubit operator convention: |1> is the excited level and the +1
eigenvector of ``sigma_z``.  The triple (sigma_x, sigma_y, sigma_z) is the
standard Pauli triple conjugated by a pi rotation about the y axis (which
exchanges the ground and excited levels), so the angular-momentum algebra
[J_a, J_b] = i eps_abc J_c holds unchanged.

Collective operators are J_a = (1/2) sum_k sigma_a^(k).  Quadratic forms
sum_l a_l <J_l^2> + sum_l b_l <J_l> with a_l >= 0 are the building blocks of
all collective entanglement criteria in this library.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import DomainError, InvariantViolationError
from .states import DensityMatrix, Mixture, PureState, SymmetricState, _check_qubit_count

SIGMA_X = np.array([[0, -1], [-1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)
for _s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
    _s.setflags(write=False)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
AXES = ("x", "y", "z")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense Hermitian observable."""

    dimension: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.dimension, self.dimension):
            raise DomainError(
                f"HermitianOperator: expected shape ({self.dimension},{self.dimension}), "
                f"got {mat.shape}"
            )
        if np.abs(mat - mat.conj().T).max() > DEFAULT_TOLERANCES.hermitian_atol:
            raise DomainError("HermitianOperator matrix is not Hermitian within tolerance")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class QuadraticForm:
    """Coefficients of sum_l a_l J_l^2 + sum_l b_l J_l with a_l >= 0."""

    a: tuple[float, float, float] = (0.0, 0.0, 0.0)
    b: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        b = tuple(float(x) for x in self.b)
        if len(a) != 3 or len(b) != 3:
            raise DomainError("QuadraticForm coefficients must be triples (x, y, z)")
        if not all(np.isfinite(x) for x in a + b):
            raise DomainError(f"quadratic form coefficients must be finite, got a = {a}, b = {b}")
        if any(x < 0 for x in a):
            raise DomainError(f"quadratic coefficients must be nonnegative, got a = {a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def is_linear_free(self) -> bool:
        return all(x == 0.0 for x in self.b)


def single_site(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator on 1-based ``qubit`` into N qubits."""
    if not 1 <= qubit <= n:
        raise DomainError(f"qubit label {qubit} not within 1..{n}")
    return reduce(np.kron, [op if k == qubit else np.eye(2, dtype=complex) for k in range(1, n + 1)])


@lru_cache(maxsize=64)
def _axis_matrix(n: int, axis: str) -> np.ndarray:
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for qubit in range(1, n + 1):
        out += single_site(PAULI[axis], qubit, n)
    out *= 0.5
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _axis_squared(n: int, axis: str) -> np.ndarray:
    j = _axis_matrix(n, axis)
    out = j @ j
    out.setflags(write=False)
    return out


def collective_operator(n: int, which: "QuadraticForm | str") -> HermitianOperator:
    """Dense J_axis for an axis tag, or sum_l a_l J_l^2 + b_l J_l for a form."""
    _check_qubit_count(n)
    if isinstance(which, str):
        if which not in AXES:
            raise DomainError(f"axis must be one of {AXES}, got {which!r}")
        mat = _axis_matrix(n, which)
    elif isinstance(which, QuadraticForm):
        mat = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for coeff, axis in zip(which.a, AXES):
            if coeff != 0.0:
                mat += coeff * _axis_squared(n, axis)
        for coeff, axis in zip(which.b, AXES):
            if coeff != 0.0:
                mat += coeff * _axis_matrix(n, axis)
    else:
        raise DomainError(f"cannot build a collective operator from {type(which).__name__}")
    try:
        return HermitianOperator(2 ** n, mat)
    except DomainError as exc:  # assembly of Hermitian pieces can only fail via a bug
        raise InvariantViolationError(f"collective operator assembly is not Hermitian: {exc}") from exc


# ---------------------------------------------------------------------------
# symmetric-sector backend
# ---------------------------------------------------------------------------

def _sector_apply(axis: str, amps: np.ndarray, n: int) -> np.ndarray:
    """Apply J_axis to maximal-spin sector amplitudes (tridiagonal, O(N))."""
    m = np.arange(n + 1)
    if axis == "z":
        return (m - n / 2.0) * amps
    c = np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))  # couples excitation m <-> m+1
    out = np.zeros_like(amps)
    if axis == "x":
        out[1:] -= 0.5 * c * amps[:-1]
        out[:-1] -= 0.5 * c * amps[1:]
    elif axis == "y":
        out[1:] += 0.5j * c * amps[:-1]
        out[:-1] -= 0.5j * c * amps[1:]
    else:
        raise DomainError(f"axis must be one of {AXES}, got {axis!r}")
    return out


def _form_expectation(moment, which: "QuadraticForm | str") -> float:
    """<sum_l a_l J_l^2 + b_l J_l> as sum_l a_l <J_l^2> + b_l <J_l>.

    ``moment(axis, power)`` returns <J_axis^power> for power 1 or 2; an axis
    tag ``which`` means the bare J_axis.
    """
    if isinstance(which, str):
        if which not in AXES:
            raise DomainError(f"axis must be one of {AXES}, got {which!r}")
        return moment(which, 1)
    if not isinstance(which, QuadraticForm):
        raise DomainError(f"cannot take an expectation of {type(which).__name__}")
    total = 0.0
    for coeff, axis in zip(which.a, AXES):
        if coeff != 0.0:
            total += coeff * moment(axis, 2)
    for coeff, axis in zip(which.b, AXES):
        if coeff != 0.0:
            total += coeff * moment(axis, 1)
    return total


def _pure_moments(apply, amps: np.ndarray):
    """Moments of a pure state: <J^2> = |J psi|^2 and <J> = <psi|J psi>, where
    ``apply(axis, amps)`` returns J_axis applied to ``amps``."""
    def moment(axis: str, power: int) -> float:
        jv = apply(axis, amps)
        return float(np.vdot(jv, jv).real) if power == 2 else float(np.vdot(amps, jv).real)
    return moment


def _density_moments(rho: np.ndarray, n: int):
    """Moments of a dense density matrix, Tr(rho J^2) and Tr(rho J), read off
    the cached axis matrices without assembling a collective operator."""
    def moment(axis: str, power: int) -> float:
        mat = _axis_squared(n, axis) if power == 2 else _axis_matrix(n, axis)
        return float(np.einsum("ij,ji->", rho, mat).real)
    return moment


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------

def expectation(state, op) -> float:
    """<op> on a PureState, DensityMatrix, SymmetricState, or Mixture.

    ``op`` may be a HermitianOperator, a QuadraticForm, or an axis tag
    ('x', 'y', 'z') meaning the corresponding J operator.  Symmetric-sector
    states accept only collective forms and axis tags.  A Mixture takes the
    weighted sum of its components' values plus its identity weight times
    Tr(op)/2^N, which is exact: Tr(J_l^2)/2^N = N/4 and Tr(J_l)/2^N = 0.
    """
    if isinstance(state, Mixture):
        value = sum(w * expectation(psi, op) for w, psi in zip(state.weights, state.components))
        return value + state.identity_weight * _identity_expectation(state.n_qubits, op)
    if isinstance(state, SymmetricState):
        if isinstance(op, HermitianOperator):
            raise DomainError("SymmetricState supports only collective forms and axis tags")
        n = state.n_qubits
        moment = _pure_moments(lambda axis, v: _sector_apply(axis, v, n), state.sector_amplitudes)
        return _form_expectation(moment, op)

    if isinstance(op, (QuadraticForm, str)):
        n = _qubits_of(state)
        _check_qubit_count(n)
        if isinstance(state, PureState):
            moment = _pure_moments(lambda axis, v: _axis_matrix(n, axis) @ v, state.amplitudes)
        else:
            moment = _density_moments(state.matrix, n)
        return _form_expectation(moment, op)
    if not isinstance(op, HermitianOperator):
        raise DomainError(f"cannot take an expectation of {type(op).__name__}")

    if isinstance(state, PureState):
        if state.dimension != op.dimension:
            raise DomainError(
                f"dimension mismatch: state dim {state.dimension}, operator dim {op.dimension}"
            )
        return float(np.vdot(state.amplitudes, op.matrix @ state.amplitudes).real)
    if isinstance(state, DensityMatrix):
        if state.dimension != op.dimension:
            raise DomainError(
                f"dimension mismatch: state dim {state.dimension}, operator dim {op.dimension}"
            )
        return float(np.einsum("ij,ji->", state.matrix, op.matrix).real)
    raise DomainError(f"unsupported state type {type(state).__name__}")


def _identity_expectation(n: int, op) -> float:
    """Tr(op)/2^N, the value of ``op`` on the maximally mixed state."""
    if isinstance(op, HermitianOperator):
        return float(np.trace(op.matrix).real) / op.dimension
    return _form_expectation(lambda _axis, power: n / 4.0 if power == 2 else 0.0, op)


def _qubits_of(state) -> int:
    if isinstance(state, (PureState, DensityMatrix)):
        return state.n_qubits
    raise DomainError(f"unsupported state type {type(state).__name__}")


def variance(state, axis: str) -> float:
    """Var(J_axis) = <J_axis^2> - <J_axis>^2."""
    a = {"x": (1.0, 0, 0), "y": (0, 1.0, 0), "z": (0, 0, 1.0)}[axis]
    second = expectation(state, QuadraticForm(a=a))
    first = expectation(state, axis)
    return second - first ** 2
