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
from functools import reduce

import numpy as np

from .errors import DomainError, InvariantViolationError
from .states import (
    DensityMatrix,
    Mixture,
    PureState,
    SymmetricState,
    _check_hermitian,
    _check_qubit_count,
    _excitation_counts,
    _is_int,
)

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
        if not _is_int(self.dimension) or mat.shape != (self.dimension, self.dimension):
            raise DomainError(
                f"HermitianOperator: expected an integer dimension d and shape (d, d), "
                f"got d = {self.dimension!r} and shape {mat.shape}"
            )
        _check_hermitian(mat, "HermitianOperator matrix")
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
    if not _is_int(qubit) or not _is_int(n) or not 1 <= qubit <= n:
        raise DomainError(f"qubit label {qubit!r} not an integer within 1..{n!r}")
    return reduce(np.kron, [op if k == qubit else np.eye(2, dtype=complex) for k in range(1, n + 1)])


def _spin_rows(n: int, axis: str, power: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Row table of J_axis^power on N qubits: (J^power x)_i = sum_r vals[r, i] x[cols[r, i]].

    Row i of sigma_x or sigma_y on the qubit at bit k has its one entry in
    column i ^ 2^k: -1 for sigma_x, and +i or -i for sigma_y as that qubit is
    excited or not.  J_z is diagonal.  J^2 composes the table with itself, so
    a table has at most N^2 rows of 2^N entries and no 4^N matrix is built.
    """
    labels = np.arange(2 ** n)
    if axis == "z":  # (number of excited qubits) - N/2
        cols, vals = labels[None, :], _excitation_counts(n)[None, :] - 0.5 * n
    else:
        flips = 1 << np.arange(n)[:, None]
        cols = labels ^ flips
        vals = np.full(cols.shape, -0.5) if axis == "x" else np.where(labels & flips, 0.5j, -0.5j)
    if power == 2:  # (J^2 x)_i = sum_r vals[r, i] sum_s vals[s, c] x[cols[s, c]], c = cols[r, i]
        flat = cols.ravel()
        cols, vals = np.take(cols, flat, axis=1), np.take(vals, flat, axis=1) * vals.ravel()
        cols, vals = cols.reshape(-1, labels.size), vals.reshape(-1, labels.size)
    return cols, vals


def _dense_apply(axis: str, amps: np.ndarray, n: int) -> np.ndarray:
    """Apply J_axis to 2^N dense amplitudes along its row table (O(N 2^N))."""
    cols, vals = _spin_rows(n, axis)
    return (vals * amps[cols]).sum(axis=0)


def _check_axis(axis) -> str:
    if axis not in AXES:
        raise DomainError(f"axis must be one of {AXES}, got {axis!r}")
    return axis


def _form_sum(term, which: "QuadraticForm | str"):
    """sum_l a_l term(l, 2) + b_l term(l, 1) for a form, or term(axis, 1) for
    an axis tag: the one reading of a form, whether ``term(axis, power)``
    gives <J_axis^power> or the matrix J_axis^power."""
    if isinstance(which, str):
        return term(_check_axis(which), 1)
    if not isinstance(which, QuadraticForm):
        raise DomainError(f"expected a QuadraticForm or an axis tag, got {type(which).__name__}")
    total = 0.0
    for coeff, axis in zip(which.a, AXES):
        if coeff != 0.0:
            total = total + coeff * term(axis, 2)  # not in place: a real J_x^2 may meet a complex J_y
    for coeff, axis in zip(which.b, AXES):
        if coeff != 0.0:
            total = total + coeff * term(axis, 1)
    return total


def collective_operator(n: int, which: "QuadraticForm | str") -> HermitianOperator:
    """Dense J_axis for an axis tag, or sum_l a_l J_l^2 + b_l J_l for a form,
    written from the row tables; expectations never need this matrix."""
    _check_qubit_count(n)
    dim = 2 ** n

    def matrix(axis: str, power: int) -> np.ndarray:
        cols, vals = _spin_rows(n, axis, power)
        out = np.zeros(dim * dim, dtype=vals.dtype)  # J_x and J_z rows are real
        np.add.at(out, (cols + dim * np.arange(dim)).ravel(), vals.ravel())  # exact: sums of +-1/4
        return out.reshape(dim, dim)

    mat = np.zeros((dim, dim), dtype=complex) + _form_sum(matrix, which)
    try:
        return HermitianOperator(dim, mat)
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
    else:  # y; callers have checked the axis tag
        out[1:] += 0.5j * c * amps[:-1]
        out[:-1] -= 0.5j * c * amps[1:]
    return out


def _pure_moments(apply, amps: np.ndarray):
    """Moments of a pure state: <J^2> = |J psi|^2 and <J> = <psi|J psi>, where
    ``apply(axis, amps)`` returns J_axis applied to ``amps``."""
    def moment(axis: str, power: int) -> float:
        jv = apply(axis, amps)
        return float(np.vdot(jv, jv).real) if power == 2 else float(np.vdot(amps, jv).real)
    return moment


def _density_moments(rho: np.ndarray, n: int):
    """Moments of a dense density matrix, Tr(rho J^p) = sum_i (J^p rho)_ii,
    gathered from rho along the row table of J^p with no operator built."""
    def moment(axis: str, power: int) -> float:
        cols, vals = _spin_rows(n, axis, power)
        return float(np.sum(vals * rho[cols, np.arange(2 ** n)]).real)
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
        return _form_sum(moment, op)

    if not isinstance(state, (PureState, DensityMatrix)):
        raise DomainError(f"unsupported state type {type(state).__name__}")
    n = state.n_qubits
    if isinstance(op, (QuadraticForm, str)):
        if isinstance(state, PureState):
            moment = _pure_moments(lambda axis, v: _dense_apply(axis, v, n), state.amplitudes)
        else:
            moment = _density_moments(state.matrix, n)
        return _form_sum(moment, op)
    if not isinstance(op, HermitianOperator):
        raise DomainError(f"cannot take an expectation of {type(op).__name__}")
    if state.dimension != op.dimension:
        raise DomainError(f"dimension mismatch: state dim {state.dimension}, operator dim {op.dimension}")
    if isinstance(state, PureState):
        return float(np.vdot(state.amplitudes, op.matrix @ state.amplitudes).real)
    return float(np.einsum("ij,ji->", state.matrix, op.matrix).real)


def _identity_expectation(n: int, op) -> float:
    """Tr(op)/2^N, the value of ``op`` on the maximally mixed state."""
    if isinstance(op, HermitianOperator):
        return float(np.trace(op.matrix).real) / op.dimension
    return _form_sum(lambda _axis, power: n / 4.0 if power == 2 else 0.0, op)


def variance(state, axis: str) -> float:
    """Var(J_axis) = <J_axis^2> - <J_axis>^2."""
    _check_axis(axis)
    a = tuple(float(ax == axis) for ax in AXES)
    second = expectation(state, QuadraticForm(a=a))
    first = expectation(state, axis)
    return second - first ** 2
