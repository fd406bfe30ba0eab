"""Multiqubit quantum states: dense and symmetric-sector representations.

Conventions used throughout the library:

- Qubit labels are 1-based.  Qubit 1 is the most significant bit of the
  amplitude index, and |0> precedes |1>.
- |1> is the excited level and is the +1 eigenvector of the single-qubit z
  operator, so the Dicke state with m excitations has <Jz> = m - N/2.
- Amplitudes are complex128; states are immutable after construction.

The symmetric-sector representation stores only the N+1 amplitudes of the
maximal-spin (permutation-symmetric) subspace, indexed by excitation count,
which keeps collective-spin computations tractable at large N.  Noisy states
are ``Mixture`` records: weights over pure components plus a weight on the
identity, never a dense density matrix.

Single-qubit operator convention: |1> is the excited level and the +1
eigenvector of ``sigma_z``.  The triple (sigma_x, sigma_y, sigma_z) is the
standard Pauli triple conjugated by a pi rotation about the y axis (which
exchanges the ground and excited levels), so the angular-momentum algebra
[J_a, J_b] = i eps_abc J_c holds unchanged.

Collective operators are J_a = (1/2) sum_k sigma_a^(k).  Quadratic forms
sum_l a_l <J_l^2> + sum_l b_l <J_l> with a_l >= 0 are the building blocks of
all collective entanglement criteria in this library; ``expectation`` reads
them from the state's collective moments, and ``collective_operator`` writes
their dense matrices from the same row tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, isfinite, sqrt
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .config import DENSE_QUBIT_LIMIT, SYMMETRIC_QUBIT_LIMIT
from .config import HERMITIAN_ATOL, NORM_ATOL, PSD_ATOL, TRACE_ATOL
from .errors import (DomainError, InvariantViolationError, _check_int, _check_numeric, _check_real,
                     _check_sequence, _check_type)


def _first_refused(values, ok):
    """The entry of ``values`` (one per state: a number, or an array for a
    stack) at the first False of ``ok``, or None when every state passes."""
    if np.count_nonzero(ok) == ok.size:
        return None
    return np.ravel(values)[np.argmin(ok)].item()


def _unit_vectors(data: np.ndarray, shape: tuple, length: int, kind: str) -> np.ndarray:
    """``kind`` amplitudes, one vector or a stack of them, made read-only in
    place and refused unless each vector has ``shape`` (length,) and unit norm."""
    if shape != (length,):
        raise DomainError(f"{kind} amplitudes: expected shape ({length},), got {shape}")
    data.setflags(write=False)
    flat = data.view(float)  # re, im interleaved
    norms = np.sqrt(np.vecdot(flat, flat))
    # any NaN or inf amplitude makes its norm NaN or inf, which is refused
    norm = _first_refused(norms, abs(norms - 1.0) <= NORM_ATOL)
    if norm is not None:
        if not isfinite(norm):
            raise DomainError(f"{kind} amplitudes contain non-finite values")
        raise DomainError(f"{kind} is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return data


def _check_hermitian(mat: np.ndarray, kind: str) -> None:
    """Refuse ``mat``, one matrix or a stack of them over its last two axes,
    unless each is Hermitian within ``HERMITIAN_ATOL``.

    A NaN or inf entry makes the residual NaN or inf, which fails the same
    test, so finiteness costs no extra pass over the data."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, refused below
        residual = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    worst = _first_refused(residual, residual <= HERMITIAN_ATOL)
    if worst is not None:
        problem = "is not Hermitian within tolerance" if isfinite(worst) else "has non-finite entries"
        raise DomainError(f"{kind} {problem}")


@lru_cache(maxsize=DENSE_QUBIT_LIMIT)
def _flip_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The labelling facts of the 2^N basis labels, read-only and shared, all
    read off one bit matrix labels & 2^k: row k holds the bit-flip partner
    i ^ 2^k and the int8 sign +1 or -1 as the qubit at bit k of label i is
    excited or not (the sign sigma_y gives that row); the third array counts
    each label's excited qubits.  It holds no values: callers scale by the
    exact -1/2 or i/2 themselves."""
    labels = np.arange(2 ** n)
    flips = 1 << np.arange(n)[:, None]
    excited = (labels & flips) != 0
    table = labels ^ flips, np.where(excited, 1, -1).astype(np.int8), excited.sum(axis=0)
    for arr in table:
        arr.setflags(write=False)
    return table


def _check_qubit_count(n: int, limit: int = DENSE_QUBIT_LIMIT) -> None:
    if _check_int(n, "n_qubits", 1) > limit:
        raise DomainError(f"n_qubits = {n} exceeds the backend limit of {limit} qubits")


class _State:
    """Base of the state records: holds a state's collective moments once computed."""

    @cached_property
    def _moments(self) -> "Moments":
        return _collective_moments(self)


class _ArrayState(_State):
    """Base of the states held in one array, the field named ``_field``.  The
    constructor runs ``_checked`` on its one array and ``_from_stack`` on a
    whole stack, once: a stack with a bad state fails with the message one of
    its bad states gets alone.  ``_checked`` makes the array it is given
    read-only in place, so the public constructor copies the caller's data
    once and ``_from_stack`` owns what the library has just built."""

    _field = ""
    _limit = DENSE_QUBIT_LIMIT

    def __post_init__(self):
        _check_qubit_count(self.n_qubits, self._limit)
        data = getattr(self, self._field)
        data = np.array(_check_numeric(data, f"{type(self).__name__} {self._field}"), dtype=complex, order="C")
        object.__setattr__(self, self._field, self._checked(self.n_qubits, data, data.shape))

    @classmethod
    def _from_stack(cls, n: int, stack) -> list:
        """One state per entry of ``stack`` along its first axis, each a view
        of the stack, checked and made read-only in place: the states own a
        stack the library has just built, which no caller may keep writing to.
        A bad entry is refused before any state is built."""
        _check_qubit_count(n, cls._limit)
        stack = np.asarray(_check_numeric(stack, f"{cls.__name__} {cls._field}"), dtype=complex, order="C")
        states = []
        for data in cls._checked(n, stack, stack.shape[1:]):
            state = object.__new__(cls)
            object.__setattr__(state, "n_qubits", n)
            object.__setattr__(state, cls._field, data)
            states.append(state)
        return states


@dataclass(frozen=True, eq=False)
class PureState(_ArrayState):
    """Dense N-qubit pure state: 2^N complex amplitudes with unit norm."""

    n_qubits: int
    amplitudes: np.ndarray
    _field = "amplitudes"

    @staticmethod
    def _checked(n: int, data: np.ndarray, shape: tuple) -> np.ndarray:
        return _unit_vectors(data, shape, 2 ** n, "PureState")

    @property
    def dimension(self) -> int:
        return 2 ** self.n_qubits

    def to_density(self) -> "DensityMatrix":
        """Projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix._from_stack(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj())[None])[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix(_ArrayState):
    """Dense N-qubit mixed state: Hermitian, unit-trace, positive semidefinite."""

    n_qubits: int
    matrix: np.ndarray
    _field = "matrix"

    @staticmethod
    def _checked(n: int, data: np.ndarray, shape: tuple) -> np.ndarray:
        """Hermitian, unit trace and positive semidefinite: one eigvalsh
        covers a whole stack."""
        dim = 2 ** n
        if shape != (dim, dim):
            raise DomainError(f"DensityMatrix: expected shape ({dim},{dim}), got {shape}")
        data.setflags(write=False)
        _check_hermitian(data, "DensityMatrix")
        traces = data.diagonal(0, -2, -1).sum(-1)
        trace = _first_refused(traces, (abs(traces.real - 1.0) <= TRACE_ATOL) & (abs(traces.imag) <= TRACE_ATOL))
        if trace is not None:
            raise DomainError(f"DensityMatrix trace is {trace:.15g}, expected 1")
        min_eigs = np.linalg.eigvalsh(data)[..., 0]
        min_eig = _first_refused(min_eigs, min_eigs >= -PSD_ATOL)
        if min_eig is not None:
            raise DomainError(f"DensityMatrix has negative eigenvalue {min_eig:.3e}")
        return data

    @property
    def dimension(self) -> int:
        return 2 ** self.n_qubits


@dataclass(frozen=True, eq=False)
class SymmetricState(_ArrayState):
    """Permutation-symmetric N-qubit pure state in the maximal-spin sector.

    ``sector_amplitudes[m]`` is the amplitude of the Dicke basis state with m
    excitations; only N+1 numbers are stored.
    """

    n_qubits: int
    sector_amplitudes: np.ndarray
    _field = "sector_amplitudes"
    _limit = SYMMETRIC_QUBIT_LIMIT

    @staticmethod
    def _checked(n: int, data: np.ndarray, shape: tuple) -> np.ndarray:
        return _unit_vectors(data, shape, n + 1, "SymmetricState")


@dataclass(frozen=True, eq=False)
class Mixture(_State):
    """Convex mixture sum_i w_i |psi_i><psi_i| + w_I I/2^N, held lazily.

    The components are pure states of one kind (all ``PureState`` or all
    ``SymmetricState``) on the same N.  Finite nonnegative weights summing to
    one make the mixture Hermitian, unit-trace and positive semidefinite by
    construction, so no 2^N x 2^N matrix is built or diagonalized; every
    quantity linear in the state is the same weighted sum of component
    values plus the identity's share.
    """

    components: tuple
    weights: tuple
    identity_weight: float = 0.0

    def __post_init__(self):
        components = _check_sequence(self.components, "Mixture components")
        if not components:
            raise DomainError("Mixture needs at least one pure component")
        kind = type(_check_type(components[0], (PureState, SymmetricState), "Mixture component"))
        n = components[0].n_qubits
        if any(type(psi) is not kind or psi.n_qubits != n for psi in components):
            raise DomainError("Mixture components must be all PureState or all SymmetricState, on one N")
        weights = _check_sequence(self.weights, "Mixture weights")
        weights = tuple(_check_real(w, "Mixture weight", 0) for w in weights)
        if len(weights) != len(components):
            raise DomainError(f"Mixture has {len(components)} components but {len(weights)} weights")
        identity_weight = _check_real(self.identity_weight, "Mixture identity weight", 0)
        total = sum(weights) + identity_weight
        if abs(total - 1.0) > TRACE_ATOL:
            raise DomainError(f"Mixture weights sum to {total:.15g}, expected 1")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "identity_weight", identity_weight)

    @property
    def n_qubits(self) -> int:
        return self.components[0].n_qubits

    def average(self, value: Callable, identity_value):
        """sum_i w_i value(psi_i) + w_I identity_value: the mixture's value of a
        quantity linear in the state, given its value on the identity I/2^N."""
        total = sum(w * value(psi) for w, psi in zip(self.weights, self.components))
        return total + self.identity_weight * identity_value

    def to_density(self) -> "DensityMatrix":
        """The mixture as a dense DensityMatrix (dense qubit limit applies)."""
        n = self.n_qubits
        _check_qubit_count(n)

        def projector(psi) -> np.ndarray:
            v = (symmetric_to_dense(psi) if isinstance(psi, SymmetricState) else psi).amplitudes
            return np.outer(v, v.conj())

        return DensityMatrix._from_stack(n, self.average(projector, np.eye(2 ** n) / 2 ** n)[None])[0]


_STATE_TYPES = (PureState, DensityMatrix, SymmetricState, Mixture)


# ---------------------------------------------------------------------------
# collective moments
# ---------------------------------------------------------------------------

class Moments(NamedTuple):
    """First and second moments of the collective spin: ``first`` holds
    (<J_x>, <J_y>, <J_z>) and ``second`` holds (<J_x^2>, <J_y^2>, <J_z^2>)."""

    first: tuple[float, float, float]
    second: tuple[float, float, float]


def moments(state) -> Moments:
    """The collective moments of a PureState, DensityMatrix, SymmetricState or
    Mixture, computed once per state object and kept on it."""
    return _check_type(state, _STATE_TYPES, "state")._moments


def _collective_moments(state: _State) -> Moments:
    n = state.n_qubits
    if isinstance(state, Mixture):  # the identity's share: Tr(J_l)/2^N = 0 and Tr(J_l^2)/2^N = N/4
        table = state.average(lambda psi: np.array(moments(psi)), np.array([[0.0] * 3, [n / 4.0] * 3]))
        return Moments(*map(tuple, table.tolist()))
    if isinstance(state, SymmetricState):
        return _sector_moments(state.sector_amplitudes, n)
    if isinstance(state, PureState):
        amps, images = state.amplitudes, _dense_images(state.amplitudes, n)
    else:  # a DensityMatrix: Tr(rho J^p) = sum_i (J^p rho)_ii, gathered along the row table
        diagonal = np.arange(2 ** n)

        def trace(axis: str, power: int) -> float:
            cols, vals = _spin_rows(n, axis, power)
            return float(np.sum(vals * state.matrix[cols, diagonal]).real)

        return Moments(tuple(trace(a, 1) for a in "xyz"), tuple(trace(a, 2) for a in "xyz"))
    first, second = [], []
    for image in images:  # <J> = <psi|J psi> and <J^2> = |J psi|^2, one image J psi at a time
        first.append(float(np.vdot(amps, image).real))
        second.append(float(np.vdot(image, image).real))
    return Moments(tuple(first), tuple(second))


def _dense_images(amps: np.ndarray, n: int):
    """J_x, J_y and J_z applied to 2^N dense amplitudes, yielded in turn (O(N 2^N)).
    J_x = -(1/2) sum_k flipped_k and J_y = (i/2) sum_k sign_k flipped_k share one
    gather along the flip table; scaling the sum, not each row, is exact."""
    cols, signs, counts = _flip_table(n)
    flipped = amps[cols]
    yield -0.5 * flipped.sum(axis=0)
    yield 0.5j * (signs * flipped).sum(axis=0)
    yield (counts - 0.5 * n) * amps


def _sector_moments(amps: np.ndarray, n: int) -> Moments:
    """Moments of maximal-spin sector amplitudes a_m in O(N), from p_m = |a_m|^2,
    z_m = m - N/2 and two ladder sums: <J_+> = sum_m c_m a*_{m+1} a_m, with c_m =
    sqrt((m+1)(N-m)), and <J_+^2> = sum_m c_m c_{m+1} a*_{m+2} a_m.  J_x = -(J_+ + J_-)/2
    and J_y = i(J_+ - J_-)/2 give <J_x> = -Re<J_+> and <J_y> = -Im<J_+>, and since
    J_+J_- + J_-J_+ = 2(J^2 - J_z^2) in the sector, <J_x^2> and <J_y^2> are
    (J(J+1) sum p - <J_z^2>)/2 +- Re<J_+^2>/2.  A Dicke state's moments are exact."""
    z, z2, coupling, coupling2 = _sector_ladder(n)[:4]
    p = amps.real ** 2 + amps.imag ** 2
    raised = np.vdot(amps[1:], coupling * amps[:-1])
    raised2 = float(np.vdot(amps[2:], coupling2 * amps[:-2]).real)
    jz, jz2 = float(p @ z), float(p @ z2)
    planar = (0.5 * n * (0.5 * n + 1.0) * float(p.sum()) - jz2) / 2.0
    # 0.0 - x, not -x: a zero first moment stays +0.0
    first = (0.0 - float(raised.real), 0.0 - float(raised.imag), jz)
    return Moments(first, (planar + raised2 / 2.0, planar - raised2 / 2.0, jz2))


@lru_cache(maxsize=4)
def _sector_ladder(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The state-free arrays of the symmetric sector on N qubits, read-only
    and shared: z_m = m - N/2, z_m^2, c_m = sqrt((m+1)(N-m)) and c_m c_{m+1}
    for ``_sector_moments``, and the psixy weights w_m = sqrt(C(N,m) / 2^N).
    Four entries hold at most 1.6 MB at the symmetric limit."""
    m = np.arange(n + 1.0)
    z = m - 0.5 * n
    coupling = np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
    # log C(N,k) = sum_{j<k} log((N-j)/(j+1)): log-domain binomials keep the
    # weights stable far beyond the dense limit
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - m[:-1]) / (m[:-1] + 1.0)))))
    weights = np.exp(0.5 * (log_binom - n * np.log(2.0)))
    table = z, z * z, coupling, coupling[:-1] * coupling[1:], weights
    for arr in table:
        arr.setflags(write=False)
    return table


def _spin_rows(n: int, axis: str, power: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Row table of J_axis^power on N qubits: (J^power x)_i = sum_r vals[r, i] x[cols[r, i]].

    Row i of sigma_x or sigma_y on the qubit at bit k has its one entry in
    column i ^ 2^k of the cached ``_flip_table``: -1 for sigma_x, and +i or -i
    (its sign) for sigma_y.  J_z is diagonal.  J^2 composes the table with
    itself, so a table has at most N^2 rows of 2^N entries and no 4^N matrix
    is built.
    """
    cols, signs, counts = _flip_table(n)
    if axis == "z":  # (number of excited qubits) - N/2
        cols, vals = np.arange(2 ** n)[None, :], counts[None, :] - 0.5 * n
    else:
        vals = np.full(cols.shape, -0.5) if axis == "x" else signs * 0.5j
    if power == 2:  # (J^2 x)_i = sum_r vals[r, i] sum_s vals[s, c] x[cols[s, c]], c = cols[r, i]
        flat = cols.ravel()
        cols, vals = np.take(cols, flat, axis=1), np.take(vals, flat, axis=1) * vals.ravel()
        cols, vals = cols.reshape(-1, 2 ** n), vals.reshape(-1, 2 ** n)
    return cols, vals


@dataclass(frozen=True)
class Bipartition:
    """A split of qubits {1..N} into a nonempty proper subset and its complement."""

    n_qubits: int
    side_a: tuple[int, ...]

    def __post_init__(self):
        _check_qubit_count(self.n_qubits, limit=SYMMETRIC_QUBIT_LIMIT)
        side = tuple(sorted(int(_check_int(q, "Bipartition qubit label", 1, self.n_qubits))
                            for q in _check_sequence(self.side_a, "Bipartition side_a")))
        object.__setattr__(self, "side_a", side)
        if len(set(side)) != len(side):
            raise DomainError(f"Bipartition side_a has repeated qubits: {side}")
        if not side or len(side) >= self.n_qubits:
            raise DomainError("Bipartition sides must both be nonempty")

    @property
    def side_b(self) -> tuple[int, ...]:
        in_a = set(self.side_a)
        return tuple(q for q in range(1, self.n_qubits + 1) if q not in in_a)

    @property
    def axes(self) -> tuple[int, ...]:
        """Tensor axes of side A's qubits, then of side B's: qubit q is axis q - 1."""
        return tuple(q - 1 for q in self.side_a + self.side_b)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def dicke_state(n: int, m: int) -> PureState:
    """Dense Dicke state |m,N>: equal weight 1/sqrt(C(N,m)) on every basis
    label with exactly m excited qubits."""
    _check_qubit_count(n)
    return PureState(n, _dicke_amplitudes(n, _check_int(m, "excitation count m", 0, n)))


@lru_cache(maxsize=2 * DENSE_QUBIT_LIMIT)
def _dicke_amplitudes(n: int, m: int) -> np.ndarray:
    """The 2^N amplitudes of |m,N>, unchecked (callers have validated n and m)
    and read-only, since every caller shares them."""
    amps = np.zeros(2 ** n, dtype=complex)
    amps[_flip_table(n)[2] == m] = 1.0 / sqrt(comb(n, m))
    amps.setflags(write=False)
    return amps


def dicke_symmetric(n: int, m: int) -> SymmetricState:
    """Symmetric-sector Dicke state: unit amplitude on excitation count m."""
    _check_qubit_count(n, limit=SYMMETRIC_QUBIT_LIMIT)
    amps = np.zeros((1, n + 1), dtype=complex)
    amps[0, _check_int(m, "excitation count m", 0, n)] = 1.0
    return SymmetricState._from_stack(n, amps)[0]


def symmetric_to_dense(state: SymmetricState) -> PureState:
    """Embed a symmetric-sector state into the full 2^N-dimensional space."""
    n = _check_type(state, (SymmetricState,), "state").n_qubits
    _check_qubit_count(n)  # dense limit applies here
    dicke_amplitudes = np.array([1.0 / sqrt(comb(n, m)) for m in range(n + 1)])
    return PureState._from_stack(n, (state.sector_amplitudes * dicke_amplitudes)[_flip_table(n)[2]][None])[0]


def _factor_product(factors: Sequence, names: Sequence[str], dims: Sequence[int], axes=None) -> PureState:
    """The normalized tensor product of caller factors, the first the most
    significant, factor k of ``dims[k]`` numbers named ``names[k]``; a zero or
    non-finite factor ahead of the first misshapen one is the first bad one.
    Each is scaled by the exact power of two that brings its largest entry into
    [1/2, 1), so any finite nonzero scale is accepted and a normal-range product
    keeps its bits.  ``axes`` orders the qubits before the product is normalized."""
    vectors = [np.asarray(_check_numeric(f, name), dtype=complex) for f, name in zip(factors, names)]
    shaped = next((k for k, (v, d) in enumerate(zip(vectors, dims)) if v.shape != (d,)), len(vectors))
    rows = np.zeros((shaped, max(dims)), dtype=complex)  # one zero-padded row per factor ahead of it
    for row, v in zip(rows, vectors):
        row[:v.size] = v
    top = np.abs(rows.view(float)).max(axis=1)  # over re and im; NaN propagates
    bad = np.flatnonzero(~np.isfinite(top) | (top == 0.0))
    if bad.size:
        raise DomainError(f"{names[bad[0]]} {vectors[bad[0]]} is zero or has non-finite amplitudes")
    if shaped < len(vectors):
        raise DomainError(f"{names[shaped]} must have shape ({dims[shaped]},), got {vectors[shaped].shape}")
    rows = np.ldexp(rows.view(float), -np.frexp(top)[1][:, None]).view(complex)
    amps = np.ones(1, dtype=complex)
    for row, d in zip(rows, dims):
        amps = np.multiply.outer(amps, row[:d]).ravel()
    if axes is not None:
        amps = np.transpose(amps.reshape([2] * len(axes)), axes).reshape(-1)
    return PureState._from_stack(amps.size.bit_length() - 1, (amps / np.linalg.norm(amps))[None])[0]


def product_state(qubit_states: Sequence[Iterable[complex]]) -> PureState:
    """Tensor product of single-qubit states; the first factor is qubit 1 (MSB).
    Every qubit is checked, and the first bad one named, before its products
    are formed."""
    qubit_states = _check_sequence(qubit_states, "product_state qubit states")
    n = len(qubit_states)
    if n == 0:
        raise DomainError("product_state needs at least one qubit")
    _check_qubit_count(n)  # before 2^N amplitudes are formed
    return _factor_product(qubit_states, ["single-qubit state"] * n, [2] * n)


def psixy_state(n: int, phi: float = 0.0) -> PureState:
    """Tensor power of (|0> + e^{i phi} |1>)/sqrt(2): the equatorial product
    state that saturates the separable bound on <Jx^2> + <Jy^2>."""
    _check_qubit_count(n)
    phi = _check_real(phi, "psixy phase")
    q = np.array([1.0, np.exp(1j * phi)], dtype=complex) / sqrt(2.0)
    return product_state([q] * n)


def psixy_symmetric(n: int, phi: float = 0.0) -> SymmetricState:
    """Symmetric-sector amplitudes of psixy_state: a_m = w_m e^{i m phi}, with
    the weights w_m = sqrt(C(N,m)) 2^{-N/2} of the cached ladder table."""
    _check_qubit_count(n, limit=SYMMETRIC_QUBIT_LIMIT)
    phi = _check_real(phi, "psixy phase")
    if not isfinite(phi * float(n)):  # a float product: a NumPy n would warn on overflow
        raise DomainError(f"psixy phase {phi!r} times n = {n} leaves the float range")
    # the one sector vector holds m, then i m phi, then e^{i m phi}, then w_m e^{i m phi}:
    # the products and the order of their operands are those of w * exp(1j * phi * m)
    amps = np.arange(n + 1, dtype=complex)[None]
    np.multiply(1j * phi, amps, out=amps)
    np.exp(amps, out=amps)
    np.multiply(_sector_ladder(n)[4], amps, out=amps)
    amps /= np.linalg.norm(amps)
    return SymmetricState._from_stack(n, amps)[0]


def assemble_bipartite(phi_a: np.ndarray, phi_b: np.ndarray, split: Bipartition) -> PureState:
    """Pure state phi_a (x) phi_b with the factors placed on the qubits of
    ``split.side_a`` and ``split.side_b`` respectively, checked and scaled as
    ``product_state``'s qubits are."""
    _check_qubit_count(_check_type(split, (Bipartition,), "split").n_qubits)
    names = ["assemble_bipartite factor phi_a", "assemble_bipartite factor phi_b"]
    dims = [2 ** len(split.side_a), 2 ** len(split.side_b)]
    return _factor_product([phi_a, phi_b], names, dims, np.argsort(split.axes))  # the product's axes are split.axes


def white_noise_mix(target: PureState | SymmetricState, p: float) -> Mixture:
    """p * I/2^N + (1-p) |target><target|, the white-noise admixture family.

    Works on either backend: a symmetric-sector target keeps the mixture
    O(N), since the identity term is carried by its weight alone."""
    p = _check_real(p, "noise ratio p", 0, 1)
    return Mixture((target,), (1.0 - p,), identity_weight=p)


def psixy_noise_mix(n: int, p: float, phi: float = 0.0) -> Mixture:
    """p |psixy><psixy| + (1-p) |N/2,N><N/2,N|: coherent equatorial noise on
    the half-excited Dicke state.  Requires even n."""
    _check_qubit_count(n)
    _check_int(n, "psixy_noise_mix qubit count", even=True)
    p = _check_real(p, "noise ratio p", 0, 1)
    return Mixture((psixy_state(n, phi), dicke_state(n, n // 2)), (p, 1.0 - p))


# ---------------------------------------------------------------------------
# Schmidt analysis
# ---------------------------------------------------------------------------

def schmidt_spectrum(state: PureState, split: Bipartition) -> np.ndarray:
    """Squared singular values of the state reshaped along the bipartition,
    descending and read-only, numerically zero ones dropped."""
    _check_type(state, (PureState,), "state")
    if _check_type(split, (Bipartition,), "split").n_qubits != state.n_qubits:
        raise DomainError(
            f"split is over {split.n_qubits} qubits but the state has {state.n_qubits}"
        )
    n = state.n_qubits
    matrix = state.amplitudes.reshape([2] * n).transpose(split.axes)
    matrix = matrix.reshape(2 ** len(split.side_a), 2 ** len(split.side_b))
    singular = np.linalg.svd(matrix, compute_uv=False)
    squared = np.sort(singular ** 2)[::-1]
    squared = squared / squared.sum()  # remove last-digit drift; sum is 1 by unitarity
    squared = squared[squared > 1e-14]  # drop numerically-zero coefficients
    squared.setflags(write=False)
    return squared


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

SIGMA_X = np.array([[0, -1], [-1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)
for _s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
    _s.setflags(write=False)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
AXES = ("x", "y", "z")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense Hermitian observable; its dimension is that of its square matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _check_numeric(self.matrix, "HermitianOperator matrix")
        mat = np.array(mat, dtype=complex)  # a copy, frozen below
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"HermitianOperator needs a square matrix, got shape {mat.shape}")
        _check_hermitian(mat, "HermitianOperator matrix")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


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

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mat = np.zeros((dim, dim), dtype=complex) + _form_sum(matrix, which)
    try:
        return HermitianOperator(mat)
    except DomainError as exc:  # Hermitian pieces fail only when large coefficients overflow, or via a bug
        if not np.isfinite(mat).all():
            raise DomainError(f"collective operator on {n} qubits leaves the float range: {exc}") from exc
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
        value = _form_sum(lambda axis, power: moments(state)[power - 1][AXES.index(axis)], op)
    elif isinstance(state, Mixture):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            identity_value = float(np.trace(op.matrix).real) / op.dimension
        value = state.average(lambda psi: expectation(psi, op), identity_value)
    elif isinstance(state, SymmetricState):
        raise DomainError("SymmetricState supports only collective forms and axis tags")
    elif state.dimension != op.dimension:
        raise DomainError(f"dimension mismatch: state dim {state.dimension}, operator dim {op.dimension}")
    elif isinstance(state, PureState):
        value = float(np.vdot(state.amplitudes, op.matrix @ state.amplitudes).real)
    else:
        value = float(np.einsum("ij,ji->", state.matrix, op.matrix).real)
    if not isfinite(value):
        what = f"a {op.dimension}-dimensional HermitianOperator" if isinstance(op, HermitianOperator) else op
        raise DomainError(f"{what} on {state.n_qubits} qubits leaves the float range of the expectation")
    return value
