"""Brute-force verification layer: seeded sampling, maximization and enumeration.

Every closed-form bound in ``collective`` has an independent route through
this module, which imports nothing from it: dense eigensolving, alternating
exact updates over product states (closed-form Bloch vectors on the
operator's Pauli coefficients) or biseparable pure states, a Schmidt-coefficient
sweep over every bipartition of a pure target, and the overlap bound's
appendix inequality enumerated in exact integers.

Restart r draws its start from its own counter-derived substream
``default_rng([seed, r])``.  The alternating searches step their restarts in
lockstep, stacked in chunks of bounded size; a restart that has converged
freezes, so each restart gets the same start and does the same sweeps
whatever the chunk size, as if it ran alone.  The sampler draws from
``default_rng([seed])`` in blocks, in the order one sample at a time would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from math import comb, isfinite

import numpy as np

from .config import CONVERGENCE_TOL, DEFAULT_RESTARTS
from .errors import DomainError, InvariantViolationError, _check_bloch, _check_int, _check_type
from .states import (
    AXES,
    PAULI,
    Bipartition,
    DensityMatrix,
    HermitianOperator,
    PureState,
    _check_qubit_count,
    _split_order,
    assemble_bipartite,
    product_state,
    schmidt_spectrum,
)

_BISEP_QUBIT_LIMIT = 8  # general pure-state pairs get expensive beyond this
_SWEEP_CAP = 2000  # alternating sweeps per restart before it counts as unconverged
_RESTART_CHUNK = 64  # restarts stacked at once, so memory does not grow with restarts
_SAMPLE_BLOCK = 1 << 14  # floats in a sampler block's largest array, so memory does not grow with count


@dataclass(frozen=True, eq=False)
class BlochProduct:
    """Product state recorded as one Bloch vector s^(k) = <sigma>/2 per qubit."""

    vectors: np.ndarray  # shape (N, 3), |s| <= 1/2

    def __post_init__(self):
        vecs = _check_bloch(self.vectors, "Bloch vectors")  # a copy, frozen below
        if vecs.ndim != 2 or vecs.shape[0] < 1:
            raise DomainError(f"BlochProduct needs shape (N, 3), got {vecs.shape}")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def n_qubits(self) -> int:
        return self.vectors.shape[0]

    def to_state(self) -> PureState:
        """Reconstruct the pure product state (requires |s| = 1/2 per qubit)."""
        qubits = []
        for s in self.vectors:
            if not abs(np.linalg.norm(s) - 0.5) <= 1e-10:
                raise DomainError("only unit-length (pure) Bloch vectors embed into a PureState")
            h = s[0] * PAULI["x"] + s[1] * PAULI["y"] + s[2] * PAULI["z"]
            _vals, vecs = np.linalg.eigh(h)
            qubits.append(vecs[:, -1])
        return product_state(qubits)


@dataclass(frozen=True, eq=False)
class BiseparableArgument:
    """Optimal biseparable pure state: a split plus one factor per side."""

    split: Bipartition
    state_a: np.ndarray
    state_b: np.ndarray

    def to_state(self) -> PureState:
        return assemble_bipartite(self.state_a, self.state_b, self.split)


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best value found, its argument, and how the search got there.

    For the alternating searches ``values`` and ``sweeps`` hold one entry per
    restart (per split and restart, split by split, for the biseparable
    search); ``history`` is the best restart's value after each of its sweeps,
    and ``converged`` says whether that restart stopped on its gain rather
    than on the sweep cap.  The exact tensor-power maximum has no sweeps.
    """

    value: float
    argument: object
    sweeps: tuple[int, ...] = ()
    converged: bool = True
    history: tuple[float, ...] = ()
    values: tuple[float, ...] = ()


def _as_matrix(op) -> tuple[np.ndarray, int]:
    """The matrix of a ``HermitianOperator`` on qubits, and their number."""
    dim = _check_type(op, (HermitianOperator,), "op").dimension
    n = dim.bit_length() - 1
    if n < 1 or 2 ** n != dim:  # a 1 x 1 operator acts on no qubit to search over
        raise DomainError(f"operator dimension {dim} is not 2^n for a qubit count n >= 1")
    return op.matrix, n


def max_eigenvalue(op: HermitianOperator) -> float:
    """Largest eigenvalue of a Hermitian operator (dense solver)."""
    mat, _n = _as_matrix(op)
    top = float(np.linalg.eigvalsh(mat)[-1])
    if not isfinite(top):
        raise DomainError(f"the top eigenvalue of a {len(mat)}-dimensional operator leaves the float range")
    return top


# ---------------------------------------------------------------------------
# lockstep restarts (shared by the product and biseparable searches)
# ---------------------------------------------------------------------------

def _haar_rows(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """``count`` Haar-random unit vectors in C^d, each drawn as d real then d
    imaginary normals: the order of ``count`` one-vector draws."""
    x = rng.normal(size=(count, 2, d))
    v = x[:, 0] + 1j * x[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _outer_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of two stacks of vectors."""
    return (u[:, :, None] * v[:, None, :]).reshape(len(u), -1)


def _kron_rows(factors: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of the m vectors in each row of a stack ``(R, m, d)``."""
    out = factors[:, 0]
    for k in range(1, factors.shape[1]):
        out = _outer_rows(out, factors[:, k])
    return out


def _top_eigvecs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and its eigenvector for each matrix of a stack."""
    vals, vecs = np.linalg.eigh(h)
    return vals[:, -1], vecs[:, :, -1]


def _lockstep(sweep, factors: list[np.ndarray], scale: float):
    """Run exact alternating sweeps on a stack of restarts in lockstep.

    ``factors`` hold the restarts along their first axis and are updated in
    place; ``sweep`` updates a copy of the active ones and returns their values.  A
    restart whose gain is at most ``CONVERGENCE_TOL`` max(scale, |value|)
    freezes, so each does exactly the sweeps it would do alone, up to the cap.
    Returns per-restart values, sweep counts, whether each stopped on its gain,
    and the value of every restart after every sweep (rows).
    """
    count = len(factors[0])
    values = np.full(count, -np.inf)
    sweeps = np.zeros(count, dtype=int)
    stopped = np.zeros(count, dtype=bool)
    rows = []
    active = np.arange(count)
    for _sweep in range(_SWEEP_CAP):
        part = [f.take(active, axis=0) for f in factors]
        new = sweep(part)
        old = values[active]
        if np.any(new < old - 1e-9 * np.maximum(scale, np.abs(old))):
            worst = int(np.argmin(new - old))
            raise InvariantViolationError(
                f"alternating update decreased the objective: {old[worst]} -> {new[worst]}"
            )
        for f, p in zip(factors, part):
            f[active] = p
        values[active] = new
        sweeps[active] += 1
        rows.append(values.copy())
        done = new - old <= CONVERGENCE_TOL * np.maximum(scale, np.abs(new))
        stopped[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break
    return values, sweeps, stopped, rows


class _Search:
    """Runs seeded restarts on one operator in bounded chunks and keeps the first best one."""

    def __init__(self, restarts: int, seed: int, op):
        self.restarts = _check_int(restarts, "restarts", 1)
        self.seed = _check_int(seed, "seed", 0)
        mat, self.n = _as_matrix(op)
        # the search runs on mat in units of 2^op.exponent, which bring the largest real or
        # imaginary part of an entry into [1/2, 1); scale, the largest |entry| in those
        # units, sets the stopping gain, so a search on 2^k op steps as the one on op
        self.exponent = op.exponent
        self.mat = np.empty(mat.shape, complex)
        np.ldexp(mat.real, -self.exponent, out=self.mat.real)
        np.ldexp(mat.imag, -self.exponent, out=self.mat.imag)
        self.scale = float(np.abs(self.mat).max())
        self.values: list[float] = []
        self.sweeps: list[int] = []
        # the best restart so far: value, factors, split label, convergence, history
        self.value = -np.inf
        self.factors = self.label = None
        self.converged, self.history = False, ()

    def run(self, start, sweep, label=None) -> None:
        """``start(rng)`` draws one restart's factors from its own
        ``default_rng([seed, r])`` stream."""
        for first in range(0, self.restarts, _RESTART_CHUNK):
            chunk = range(first, min(self.restarts, first + _RESTART_CHUNK))
            starts = [start(np.random.default_rng([self.seed, r])) for r in chunk]
            factors = [np.stack(parts) for parts in zip(*starts)]
            values, sweeps, stopped, rows = _lockstep(sweep, factors, self.scale)
            self.values += values.tolist()
            self.sweeps += sweeps.tolist()
            i = int(np.argmax(values))
            if values[i] > self.value:
                self.value = float(values[i])
                self.factors, self.label = [f[i] for f in factors], label
                self.converged = bool(stopped[i])
                self.history = tuple(float(row[i]) for row in rows[: sweeps[i]])

    def result(self, argument) -> OptimizationResult:
        """The result in the operator's units; refused if any value leaves the float range."""
        with np.errstate(over="ignore"):  # refused below
            values, history = (np.ldexp(x, self.exponent) for x in (self.values, self.history))
        if not (np.isfinite(values).all() and np.isfinite(history).all()):
            raise DomainError(f"a search on a {len(self.mat)}-dimensional operator leaves the float range")
        return OptimizationResult(
            float(np.ldexp(self.value, self.exponent)), argument, sweeps=tuple(self.sweeps),
            converged=self.converged, history=tuple(history.tolist()), values=tuple(values.tolist()),
        )


# ---------------------------------------------------------------------------
# product-state maximization (closed-form Bloch updates on the Pauli tensor)
# ---------------------------------------------------------------------------

_LABELS = np.stack([np.eye(2), *(PAULI[a] for a in AXES)])  # the Pauli labels 1, x, y, z, in that order
# row a maps one qubit's entries X[i, j], column 2i + j, to (Re - Im) Tr(sigma_a X) / 2 for a real X
_PAULI_MAP = (_LABELS.real - _LABELS.imag).transpose(0, 2, 1).reshape(4, 4) / 2
_Y_SIGN = np.array([1.0, 1.0, -1.0, 1.0])  # (-1)^(is the label y)


def _pauli_tensor(mat: np.ndarray, n: int) -> np.ndarray:
    """The real Pauli coefficients c_P = Tr(P mat) / 2^N of a Hermitian
    ``mat``, flat: the base-4 digits of an index, qubit 1 first, are the
    labels 1, x, y, z of P.

    Q = Re mat + Im mat holds mat whole: its real part is symmetric and its
    imaginary part antisymmetric, like the strings with an even and an odd
    number n_y of labels y.  So one pass of ``_PAULI_MAP`` per qubit, which
    moves that qubit's new label last, reads each c_P from Q up to the sign
    (-1)^(n_y (n_y - 1) / 2): each y takes the parity of the y's before it.
    """
    pairs = mat.reshape([2] * (2 * n)).transpose([axis for k in range(n) for axis in (k, n + k)])
    q = pairs.real + pairs.imag
    parity = np.ones(1)  # over the labels made so far
    for k in range(n):
        q = q.reshape(4, -1).T @ _PAULI_MAP.T
        q.reshape(-1, 4 ** k, 4)[:, :, 2] *= parity
        parity = (parity[:, None] * _Y_SIGN).ravel()
    return q.reshape(-1)


def _pauli_rows(qubits: np.ndarray) -> np.ndarray:
    """(1, <sigma_x>, <sigma_y>, <sigma_z>) = (1, 2 s) for each unit qubit vector of a stack."""
    t = np.einsum("...i,aij,...j->...a", qubits.conj(), _LABELS, qubits).real
    t[..., 0] = 1.0
    return t


def _sweep_span(env: np.ndarray, t: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Set qubits lo..hi-1 of the stack ``t`` (R, N, 4) of rows (1, 2s) in
    turn to their best Bloch vectors s; return the objective after the last.

    ``env`` is the Pauli tensor contracted with every qubit outside the span:
    flat at the top, one row per restart below.  The first half of the span
    is swept against env contracted with the second half, then the second
    against env contracted with the updated first.  For one qubit env is
    (g_0, v), and g_0 + v . 2s is largest at s = v / 2|v|, where it is
    g_0 + |v|; v = 0 leaves s as it is.
    """
    if hi - lo == 1:
        g = env if env.ndim == 2 else np.tile(env, (len(t), 1))  # N = 1: the tensor is g itself
        v = g[:, 1:]
        norm = np.sqrt(np.vecdot(v, v))
        np.divide(v, norm[:, None], out=t[:, lo, 1:], where=norm[:, None] > 0)
        return g[:, 0] + norm
    mid = (lo + hi) // 2
    split = env.reshape(*env.shape[:-1], 4 ** (mid - lo), 4 ** (hi - mid))
    if env.ndim == 1:  # one tensor for every restart: two well-shaped matrix products
        _sweep_span(_kron_rows(t[:, mid:hi]) @ split.T, t, lo, mid)
        return _sweep_span(_kron_rows(t[:, lo:mid]) @ split, t, mid, hi)
    _sweep_span(np.vecdot(split, _kron_rows(t[:, mid:hi])[:, None, :]), t, lo, mid)
    return _sweep_span(np.vecdot(split, _kron_rows(t[:, lo:mid])[:, :, None], axis=1), t, mid, hi)


def maximize_over_product_states(
    op: HermitianOperator,
    *,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> OptimizationResult:
    """Best <psi_1 (x) ... (x) psi_N | op | psi_1 (x) ... (x) psi_N> found from
    seeded Haar-random starts followed by cyclic exact single-qubit updates,
    all restarts stepped in lockstep.

    The search runs on op's Pauli coefficients (``_pauli_tensor``), in units
    that bring op's largest real or imaginary part into [1/2, 1), and on one
    Bloch vector per qubit, each set to its best given the others in closed
    form (``_sweep_span``).  A value beyond the float range is refused."""
    search = _Search(restarts, seed, op)
    n = search.n
    tensor = _pauli_tensor(search.mat, n)
    search.run(lambda rng: (_pauli_rows(_haar_rows(rng, n, 2)),), lambda part: _sweep_span(tensor, *part, 0, n))
    (t,) = search.factors
    return search.result(BlochProduct(t[:, 1:] / 2))


# ---------------------------------------------------------------------------
# biseparable maximization
# ---------------------------------------------------------------------------

def _is_permutation_invariant(mat: np.ndarray, n: int) -> bool:
    """Whether ``mat`` is unchanged, bit for bit, by every qubit transposition;
    a nearly symmetric operator takes the all-splits route, which is always right."""
    tensor = mat.reshape([2] * (2 * n))
    return all(np.array_equal(tensor, tensor.swapaxes(0, q).swapaxes(n, n + q)) for q in range(1, n))


def _bipartitions(n: int, permutation_invariant: bool):
    if permutation_invariant:
        for size in range(1, n // 2 + 1):
            yield Bipartition(n, tuple(range(1, size + 1)))
    else:
        # qubit 1 stays on side A to skip complements
        for size_rest in range(0, n - 1):
            for rest in itertools.combinations(range(2, n + 1), size_rest):
                yield Bipartition(n, (1,) + rest)


def _haar_pairs(x: np.ndarray, d_a: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Haar-random factors on C^d_a and C^d_b, one pair per row of ``x`` (one row
    or a stack), each row 2 (d_a + d_b) normals: real and imaginary parts of the
    first factor, then of the second.  Each factor gets the bits it would get alone."""
    a = x[..., :d_a] + 1j * x[..., d_a:2 * d_a]
    b = x[..., 2 * d_a:2 * d_a + d_b] + 1j * x[..., 2 * d_a + d_b:]
    return _unit_rows(a), _unit_rows(b)


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` (one row or a stack) over its norm, summed as 1-d
    ``np.linalg.norm`` sums it (re . re + im . im over the strided views), so
    each row gets the bits it would get alone."""
    return v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[..., None]


def _bisep_sweep(w_l: np.ndarray, w_k: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """One exact update of each side for a stack of pairs ``(R, d_a)``,
    ``(R, d_b)``.  With w[i, j, k, l] = <i j| op |k l>, ``w_l`` is w with l as
    the column index and ``w_k`` with k; returns the value after the update."""
    a, b = factors
    d_a, d_b = a.shape[1], b.shape[1]
    image = (w_l @ b.T).reshape(d_a, d_b, d_a, -1)  # sum_l w[i,j,k,l] b[r,l]
    _value, a[:] = _top_eigvecs(np.einsum("ijkr,rj->rik", image, b.conj()))
    image = (w_k @ a.T).reshape(d_a, d_b, d_b, -1)  # sum_k w[i,j,k,l] a[r,k]
    value, b[:] = _top_eigvecs(np.einsum("ijlr,ri->rjl", image, a.conj()))
    return value


def _check_bisep_qubits(n: int) -> None:
    """Refuse more qubits than a biseparable search takes, before its 4^N operator is built."""
    if n > _BISEP_QUBIT_LIMIT:
        raise DomainError(f"n = {n} exceeds the biseparable-search limit of {_BISEP_QUBIT_LIMIT}")


def maximize_over_biseparable(
    op: HermitianOperator,
    *,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> OptimizationResult:
    """Best <phi_A (x) phi_B | op | phi_A (x) phi_B> over all bipartitions.

    Each side is updated to the top eigenvector of its effective operator
    (exact alternating maximization) from seeded Haar-random starts, all
    restarts of a split stepped in lockstep.  When every qubit transposition
    leaves the operator exactly unchanged, only split sizes are enumerated.
    The search runs in the product search's units; a value beyond the float
    range is refused.
    """
    search = _Search(restarts, seed, op)
    mat, n = search.mat, search.n
    if n < 2:
        raise DomainError("biseparable maximization needs at least two qubits")
    _check_bisep_qubits(n)

    for split in _bipartitions(n, _is_permutation_invariant(mat, n)):
        d_a, d_b = 2 ** len(split.side_a), 2 ** len(split.side_b)
        w_l = mat[np.ix_(split.order, split.order)].reshape(-1, d_b)
        w_k = np.ascontiguousarray(w_l.reshape(d_a, d_b, d_a, d_b).transpose(0, 1, 3, 2)).reshape(-1, d_a)
        search.run(lambda rng: _haar_pairs(rng.normal(size=2 * (d_a + d_b)), d_a, d_b),
                   partial(_bisep_sweep, w_l, w_k), split)
    return search.result(BiseparableArgument(search.label, *search.factors))


def max_biseparable_overlap(state: PureState) -> float:
    """Largest squared overlap of a pure target with biseparable pure states:
    its largest squared Schmidt coefficient over every bipartition, by SVD.
    Assumes no symmetry; the independent route to ``dicke_fidelity_bound``."""
    n = _check_type(state, (PureState,), "state").n_qubits
    if n < 2:
        raise DomainError("a biseparable overlap needs at least two qubits")
    return max(float(schmidt_spectrum(state, split)[0]) for split in _bipartitions(n, False))


# ---------------------------------------------------------------------------
# exhaustive enumeration of the overlap bound's appendix inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AppendixReport:
    """Exhaustive table g(N1, k) = C(N1,k) C(N-N1,N/2-k) with its maximum.

    ``h_values[N1 - 1]`` is the per-split-size maximum of g, for N1 = 1..N/2.
    All entries are exact integers.
    """

    n: int
    table: dict[tuple[int, int], int]
    argmax: tuple[int, int]
    h_values: tuple[int, ...]

    @property
    def max_value(self) -> int:
        return self.table[self.argmax]


def verify_appendix_inequality(n: int) -> AppendixReport:
    """Check, in exact integer arithmetic, that g(N1,k) is maximized at
    (N1, k) = (2, 1) with value 2 C(N-2, N/2-1), and that consecutive even
    split-size maxima obey h_{N1}/h_{N1-2} = ((N1-1)/N1) ((N-N1+2)/(N-N1+1)).

    Raises InvariantViolationError with a counterexample if either claim
    fails (it never should).
    """
    _check_int(n, "n", 4, 64, even=True)
    half = n // 2
    table: dict[tuple[int, int], int] = {}
    for n1 in range(1, half + 1):
        k_lo = max(0, half - (n - n1))
        k_hi = min(n1, half)
        for k in range(k_lo, k_hi + 1):
            table[(n1, k)] = comb(n1, k) * comb(n - n1, half - k)

    expected_max = 2 * comb(n - 2, half - 1)
    overall = max(table.values())
    if table.get((2, 1)) != expected_max or overall != expected_max:
        worst = max(table, key=table.get)
        raise InvariantViolationError(
            f"overlap table maximum mismatch for n = {n}: max {overall} at {worst}, "
            f"expected {expected_max} at (2, 1)"
        )

    h_values = tuple(
        max(v for (n1, _k), v in table.items() if n1 == size) for size in range(1, half + 1)
    )
    for n1 in range(4, half + 1, 2):
        # the ratios h / h_prev and top / bottom, compared by cross-multiplying
        h, h_prev = h_values[n1 - 1], h_values[n1 - 3]
        top, bottom = (n1 - 1) * (n - n1 + 2), n1 * (n - n1 + 1)
        if h * bottom != h_prev * top:
            raise InvariantViolationError(
                f"even split-size ratio mismatch for n = {n}, N1 = {n1}: "
                f"h ratio {h}/{h_prev} != {top}/{bottom}"
            )
        if h > h_prev:
            raise InvariantViolationError(
                f"split-size maxima not decreasing for n = {n}, N1 = {n1}: ratio {h}/{h_prev} > 1"
            )
    return AppendixReport(int(n), table, (2, 1), h_values)


# ---------------------------------------------------------------------------
# seeded state sampling
# ---------------------------------------------------------------------------

def _pure_block(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    return _haar_rows(rng, size, 2 ** n)


def _product_block(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    amps = _kron_rows(_haar_rows(rng, size * n, 2).reshape(size, n, 2))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def _biseparable_block(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Per sample one split draw, then one draw of normals for both factors;
    the pairs are then formed side-A size by size and placed by their splits' orders."""
    dim = 2 ** n
    draws, masks, rows_of = [], [], {}
    for i in range(size):
        mask = int(rng.integers(1, dim - 1))  # uniform nonempty proper subset; bit q is qubit q + 1
        masks.append(mask)
        d_a = 2 ** mask.bit_count()
        draws.append(rng.normal(size=2 * (d_a + dim // d_a)))
        rows_of.setdefault(d_a, []).append(i)
    order_of = {mask: _split_order(n, mask) for mask in set(masks)}
    amps = np.empty((size, dim), dtype=complex)
    for d_a, rows in rows_of.items():
        pairs = _outer_rows(*_haar_pairs(np.stack([draws[i] for i in rows]), d_a, dim // d_a))
        amps[np.array(rows)[:, None], np.stack([order_of[masks[i]] for i in rows])] = pairs
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def _density_block(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    x = rng.normal(size=(size, 2, 2 ** n, 2 ** n))
    g = x[:, 0] + 1j * x[:, 1]
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


_SAMPLERS = {  # kind: (block function, its largest array per sample in floats, state type)
    "pure": (_pure_block, lambda n: 2 ** (n + 1), PureState),
    "product": (_product_block, lambda n: 2 ** (n + 1), PureState),
    "biseparable": (_biseparable_block, lambda n: 2 ** (n + 1), PureState),
    "density": (_density_block, lambda n: 2 ** (2 * n + 1), DensityMatrix),
}


def sample_random_states(kind: str, n: int, count: int, seed: int = 0):
    """Yield ``count`` seeded random states of the requested kind.

    kinds: 'pure' (Haar-like normalized Gaussian vectors), 'product'
    (independent Haar single-qubit states), 'biseparable' (uniform random
    split, Haar factor on each side), 'density' (normalized Wishart).

    States are built in blocks of bounded size from the draws, in the order
    one sample at a time would take them.  Each block is validated once, by
    the checks the state's constructor runs, before any of its states is
    yielded.
    """
    _check_int(count, "count", 1)
    _check_int(seed, "seed", 0)
    if kind not in _SAMPLERS:
        raise DomainError(f"unsupported sample kind {kind!r}")
    _check_qubit_count(n)
    if kind == "biseparable" and n < 2:
        raise DomainError("biseparable sampling needs at least two qubits")
    build, floats, state_type = _SAMPLERS[kind]
    block = max(1, _SAMPLE_BLOCK // floats(n))
    rng = np.random.default_rng([seed])
    for first in range(0, count, block):
        yield from state_type._from_stack(n, build(rng, n, min(block, count - first)))
