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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, isfinite, sqrt
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .config import DENSE_QUBIT_LIMIT, SYMMETRIC_QUBIT_LIMIT
from .config import HERMITIAN_ATOL, NORM_ATOL, PSD_ATOL, TRACE_ATOL
from .errors import DomainError, _check_int, _check_real, _check_sequence, _check_type


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _first_refused(values, ok):
    """The entry of ``values`` (one per state: a number, or an array for a
    stack) at the first False of ``ok``, or None when every state passes."""
    if np.count_nonzero(ok) == ok.size:
        return None
    return np.ravel(values)[np.argmin(ok)].item()


def _unit_vectors(data: np.ndarray, shape: tuple, length: int, kind: str) -> np.ndarray:
    """Read-only copy of ``kind`` amplitudes, one vector or a stack of them,
    refused unless each vector has ``shape`` (length,) and unit norm."""
    if shape != (length,):
        raise DomainError(f"{kind} amplitudes: expected shape ({length},), got {shape}")
    data = _frozen(data)
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
def _excitation_counts(n: int) -> np.ndarray:
    """Number of excited qubits (set bits) in each of the 2^N basis labels,
    read-only, since every caller shares it."""
    counts = ((np.arange(2 ** n) >> np.arange(n)[:, None]) & 1).sum(axis=0)
    counts.setflags(write=False)
    return counts


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
    its bad states gets alone."""

    _field = ""
    _limit = DENSE_QUBIT_LIMIT

    def __post_init__(self):
        _check_qubit_count(self.n_qubits, self._limit)
        data = np.asarray(getattr(self, self._field), dtype=complex)
        object.__setattr__(self, self._field, self._checked(self.n_qubits, data, data.shape))

    @classmethod
    def _from_stack(cls, n: int, stack) -> list:
        """One state per entry of ``stack`` along its first axis, each a view
        of one read-only checked copy; a bad entry is refused before any state
        is built."""
        _check_qubit_count(n, cls._limit)
        stack = np.asarray(stack, dtype=complex)
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
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


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
        data = _frozen(data)
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

        return DensityMatrix(n, self.average(projector, np.eye(2 ** n) / 2 ** n))


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
    if isinstance(state, PureState):
        amps, images = state.amplitudes, _dense_images(state.amplitudes, n)
    elif isinstance(state, SymmetricState):
        amps, images = state.sector_amplitudes, _sector_images(state.sector_amplitudes, n)
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
    J_x and J_y flip one qubit per row of their tables, so they share one gather."""
    cols, vals = _spin_rows(n, "x")
    flipped = amps[cols]
    yield (vals * flipped).sum(axis=0)
    yield (_spin_rows(n, "y")[1] * flipped).sum(axis=0)
    yield _spin_rows(n, "z")[1][0] * amps


def _sector_images(amps: np.ndarray, n: int):
    """J_x, J_y and J_z applied to maximal-spin sector amplitudes, yielded in turn (O(N)).
    J_x and J_y share the coupling (1/2) sqrt((m+1)(N-m)) of excitations m and m+1."""
    m = np.arange(n + 1)
    coupling = 0.5 * np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
    for raise_coeff in (-1.0, 1j):  # J_x = -(J_+ + J_-)/2 and J_y = i(J_+ - J_-)/2
        image = np.zeros_like(amps)
        image[1:] += raise_coeff * coupling * amps[:-1]
        image[:-1] += np.conj(raise_coeff) * coupling * amps[1:]
        yield image
    yield (m - n / 2.0) * amps


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


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def dicke_state(n: int, m: int) -> PureState:
    """Dense Dicke state |m,N>: equal weight 1/sqrt(C(N,m)) on every basis
    label with exactly m excited qubits."""
    _check_qubit_count(n)
    return PureState(n, _dicke_amplitudes(n, _check_int(m, "excitation count m", 0, n)))


def _dicke_amplitudes(n: int, m: int) -> np.ndarray:
    """The 2^N amplitudes of |m,N>, unchecked: callers have validated n and m."""
    amps = np.zeros(2 ** n, dtype=complex)
    amps[_excitation_counts(n) == m] = 1.0 / sqrt(comb(n, m))
    return amps


def dicke_symmetric(n: int, m: int) -> SymmetricState:
    """Symmetric-sector Dicke state: unit amplitude on excitation count m."""
    _check_qubit_count(n, limit=SYMMETRIC_QUBIT_LIMIT)
    amps = np.zeros(n + 1, dtype=complex)
    amps[_check_int(m, "excitation count m", 0, n)] = 1.0
    return SymmetricState(n, amps)


def symmetric_to_dense(state: SymmetricState) -> PureState:
    """Embed a symmetric-sector state into the full 2^N-dimensional space."""
    n = _check_type(state, (SymmetricState,), "state").n_qubits
    _check_qubit_count(n)  # dense limit applies here
    dicke_amplitudes = np.array([1.0 / sqrt(comb(n, m)) for m in range(n + 1)])
    return PureState(n, (state.sector_amplitudes * dicke_amplitudes)[_excitation_counts(n)])


def product_state(qubit_states: Sequence[Iterable[complex]]) -> PureState:
    """Tensor product of single-qubit states; the first factor is qubit 1 (MSB)."""
    qubit_states = _check_sequence(qubit_states, "product_state qubit states")
    if len(qubit_states) == 0:
        raise DomainError("product_state needs at least one qubit")
    amps = np.array([1.0], dtype=complex)
    for q in qubit_states:
        v = np.asarray(q, dtype=complex)
        if v.shape != (2,):
            raise DomainError(f"single-qubit state must have shape (2,), got {v.shape}")
        norm = np.linalg.norm(v)  # checked before any arithmetic on v can warn
        if not isfinite(norm) or norm == 0.0:
            raise DomainError(f"single-qubit state {v} is zero or has non-finite amplitudes")
        amps = np.kron(amps, v)
    amps = amps / np.linalg.norm(amps)
    return PureState(len(qubit_states), amps)


def psixy_state(n: int, phi: float = 0.0) -> PureState:
    """Tensor power of (|0> + e^{i phi} |1>)/sqrt(2): the equatorial product
    state that saturates the separable bound on <Jx^2> + <Jy^2>."""
    _check_qubit_count(n)
    phi = _check_real(phi, "psixy phase")
    q = np.array([1.0, np.exp(1j * phi)], dtype=complex) / sqrt(2.0)
    return product_state([q] * n)


def psixy_symmetric(n: int, phi: float = 0.0) -> SymmetricState:
    """Symmetric-sector amplitudes of psixy_state: a_m = sqrt(C(N,m)) 2^{-N/2} e^{i m phi}."""
    _check_qubit_count(n, limit=SYMMETRIC_QUBIT_LIMIT)
    phi = _check_real(phi, "psixy phase")
    m = np.arange(n + 1)
    # log C(N,k) = sum_{j<k} log((N-j)/(j+1)): log-domain binomials keep this
    # stable far beyond the dense limit
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - m[:-1]) / (m[:-1] + 1.0)))))
    amps = np.exp(0.5 * (log_binom - n * np.log(2.0))) * np.exp(1j * phi * m)
    amps /= np.linalg.norm(amps)
    return SymmetricState(n, amps)


def assemble_bipartite(phi_a: np.ndarray, phi_b: np.ndarray, split: Bipartition) -> PureState:
    """Pure state phi_a (x) phi_b with the factors placed on the qubits of
    ``split.side_a`` and ``split.side_b`` respectively."""
    n = _check_type(split, (Bipartition,), "split").n_qubits
    _check_qubit_count(n)
    a = np.asarray(phi_a, dtype=complex)
    b = np.asarray(phi_b, dtype=complex)
    if a.shape != (2 ** len(split.side_a),) or b.shape != (2 ** len(split.side_b),):
        raise DomainError("assemble_bipartite: factor dimensions do not match the split")
    order = list(split.side_a) + list(split.side_b)  # 1-based labels, axis order of the outer product
    tensor = np.outer(a, b).reshape([2] * n)
    perm = [order.index(q) for q in range(1, n + 1)]
    amps = np.transpose(tensor, perm).reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return PureState(n, amps)


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
    descending and read-only, numerically zero ones dropped.  For Dicke states
    this matches ``dicke_schmidt_squared``."""
    _check_type(state, (PureState,), "state")
    if _check_type(split, (Bipartition,), "split").n_qubits != state.n_qubits:
        raise DomainError(
            f"split is over {split.n_qubits} qubits but the state has {state.n_qubits}"
        )
    n = state.n_qubits
    axes = [q - 1 for q in split.side_a] + [q - 1 for q in split.side_b]
    matrix = state.amplitudes.reshape([2] * n).transpose(axes)
    matrix = matrix.reshape(2 ** len(split.side_a), 2 ** len(split.side_b))
    singular = np.linalg.svd(matrix, compute_uv=False)
    squared = np.sort(singular ** 2)[::-1]
    squared = squared / squared.sum()  # remove last-digit drift; sum is 1 by unitarity
    squared = squared[squared > 1e-14]  # drop numerically-zero coefficients
    squared.setflags(write=False)
    return squared


def dicke_schmidt_squared(n: int, m: int, n1: int) -> np.ndarray:
    """Closed-form squared Schmidt coefficients of |m,N> for a split with N1
    qubits on one side: C(N1,k) C(N-N1,m-k) / C(N,m) over valid k, descending."""
    _check_int(n, "n", 2)
    _check_int(n1, "split size n1", 1, n - 1)
    _check_int(m, "excitation count m", 0, n)
    total = comb(n, m)
    k_lo = max(0, m - (n - n1))
    k_hi = min(n1, m)
    vals = [comb(n1, k) * comb(n - n1, m - k) / total for k in range(k_lo, k_hi + 1)]
    return np.sort(np.array(vals, dtype=float))[::-1]
