"""Collective spin operators, quadratic forms, and expectation values.

Single-qubit operator convention: |1> is the excited level and the +1
eigenvector of ``sigma_z``.  The triple (sigma_x, sigma_y, sigma_z) is the
standard Pauli triple conjugated by a pi rotation about the y axis (which
exchanges the ground and excited levels), so the angular-momentum algebra
[J_a, J_b] = i eps_abc J_c holds unchanged.

Collective operators are J_a = (1/2) sum_k sigma_a^(k).  Quadratic forms
sum_l a_l <J_l^2> + sum_l b_l <J_l> with a_l >= 0 are the building blocks of
all collective entanglement criteria in this library; their expectations are
read from the state's collective moments (``states.moments``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, InvariantViolationError, _check_int, _check_real, _check_sequence, _check_type
from .states import (
    _STATE_TYPES,
    Mixture,
    PureState,
    SymmetricState,
    _check_hermitian,
    _check_qubit_count,
    _spin_rows,
    moments,
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
        d = _check_int(self.dimension, "HermitianOperator dimension")
        if mat.shape != (d, d):
            raise DomainError(f"HermitianOperator: expected shape ({d}, {d}), got {mat.shape}")
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
        a, b = _check_sequence(self.a, "QuadraticForm a"), _check_sequence(self.b, "QuadraticForm b")
        if len(a) != 3 or len(b) != 3:
            raise DomainError("QuadraticForm coefficients must be triples (x, y, z)")
        a = tuple(_check_real(x, "quadratic coefficient a_l", 0) for x in a)
        b = tuple(_check_real(x, "linear coefficient b_l") for x in b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def is_linear_free(self) -> bool:
        return all(x == 0.0 for x in self.b)


def single_site(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator on 1-based ``qubit`` into N qubits."""
    _check_int(n, "n", 1)
    _check_int(qubit, "qubit label", 1, n)
    return reduce(np.kron, [op if k == qubit else np.eye(2, dtype=complex) for k in range(1, n + 1)])


def _form_sum(term, which: "QuadraticForm | str"):
    """sum_l a_l term(l, 2) + b_l term(l, 1) for a form, or term(axis, 1) for
    an axis tag: the one reading of a form, whether ``term(axis, power)``
    gives <J_axis^power> or the matrix J_axis^power."""
    if isinstance(which, str):
        if which not in AXES:
            raise DomainError(f"axis must be one of {AXES}, got {which!r}")
        return term(which, 1)
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
# expectation values
# ---------------------------------------------------------------------------

def expectation(state, op) -> float:
    """<op> on a PureState, DensityMatrix, SymmetricState, or Mixture.

    ``op`` may be a HermitianOperator, a QuadraticForm, or an axis tag
    ('x', 'y', 'z') meaning the corresponding J operator.  Forms and axis tags
    are read from the state's collective moments; symmetric-sector states
    accept only these.  A Mixture takes a HermitianOperator's weighted sum
    over its components plus its identity weight times Tr(op)/2^N.
    """
    _check_type(state, _STATE_TYPES, "state")
    if not isinstance(op, HermitianOperator):  # <J_l^p> is moments(state)[p - 1][l]
        return _form_sum(lambda axis, power: moments(state)[power - 1][AXES.index(axis)], op)
    if isinstance(state, Mixture):
        return state.average(lambda psi: expectation(psi, op), float(np.trace(op.matrix).real) / op.dimension)
    if isinstance(state, SymmetricState):
        raise DomainError("SymmetricState supports only collective forms and axis tags")
    if state.dimension != op.dimension:
        raise DomainError(f"dimension mismatch: state dim {state.dimension}, operator dim {op.dimension}")
    if isinstance(state, PureState):
        return float(np.vdot(state.amplitudes, op.matrix @ state.amplitudes).real)
    return float(np.einsum("ij,ji->", state.matrix, op.matrix).real)
