"""Brute-force verification layer: seeded sampling and numeric maximization.

Every closed-form bound in the library has an independent numeric route
through this module: dense eigensolving, alternating exact updates over
product or biseparable pure states, and a direct single-Bloch-vector
maximizer for translationally invariant product states.

Restart randomness is drawn from counter-derived substreams
(``default_rng([seed, restart])``) so that serial and parallel execution of
restarts produce identical results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import hypot, sqrt

import numpy as np

from .config import DEFAULT_RESTARTS, DEFAULT_TOLERANCES, Tolerances
from .errors import DomainError, InvariantViolationError
from .operators import AXES, PAULI, HermitianOperator, QuadraticForm
from .states import Bipartition, DensityMatrix, PureState, _is_int, assemble_bipartite, product_state

_BISEP_QUBIT_LIMIT = 8  # general pure-state pairs get expensive beyond this
_RADIUS = 0.5  # Bloch-vector length of a pure qubit state
_SECULAR_MAX_STEPS = 200  # safety cap; Newton from the left needs a handful of steps


@dataclass(frozen=True, eq=False)
class BlochProduct:
    """Product state recorded as one Bloch vector s^(k) = <sigma>/2 per qubit."""

    vectors: np.ndarray  # shape (N, 3), |s| <= 1/2

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=float).copy()
        if vecs.ndim != 2 or vecs.shape[1] != 3 or vecs.shape[0] < 1:
            raise DomainError(f"BlochProduct needs shape (N, 3), got {vecs.shape}")
        lengths = np.linalg.norm(vecs, axis=1)
        if np.any(lengths > 0.5 + 1e-10):
            raise DomainError(f"Bloch vectors must have length <= 1/2, max is {lengths.max():.12g}")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def n_qubits(self) -> int:
        return self.vectors.shape[0]

    def to_state(self) -> PureState:
        """Reconstruct the pure product state (requires |s| = 1/2 per qubit)."""
        qubits = []
        for s in self.vectors:
            if abs(np.linalg.norm(s) - 0.5) > 1e-10:
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
    value: float
    argument: object
    restarts_used: int
    seed: int


def _as_matrix(op, n: int | None = None) -> tuple[np.ndarray, int]:
    """Validate a Hermitian input and return (matrix, n_qubits)."""
    if isinstance(op, HermitianOperator):
        mat = op.matrix
    else:
        mat = np.asarray(op, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"operator must be a square matrix, got shape {mat.shape}")
        if np.abs(mat - mat.conj().T).max() > DEFAULT_TOLERANCES.hermitian_atol:
            raise DomainError("operator is not Hermitian within tolerance")
    dim = mat.shape[0]
    inferred = dim.bit_length() - 1
    if 2 ** inferred != dim:
        raise DomainError(f"operator dimension {dim} is not a power of two")
    if n is not None and n != inferred:
        raise DomainError(f"operator dimension {dim} does not match n = {n}")
    return mat, inferred


def max_eigenvalue(op) -> float:
    """Largest eigenvalue of a Hermitian operator (dense solver)."""
    mat, _n = _as_matrix(op)
    return float(np.linalg.eigvalsh(mat)[-1])


# ---------------------------------------------------------------------------
# product-state maximization (alternating exact single-qubit updates)
# ---------------------------------------------------------------------------

def _haar_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _product_update_sweeps(
    mat: np.ndarray,
    qubits: list[np.ndarray],
    tol: Tolerances,
    max_sweeps: int = 200,
    on_sweep=None,
) -> tuple[float, list[np.ndarray]]:
    """Cyclic exact updates: each qubit is set to the top eigenvector of its
    2x2 effective operator with all others fixed.  Monotone by construction."""
    n = len(qubits)
    eye2 = np.eye(2, dtype=complex)
    scalar = np.array([1.0], dtype=complex)
    value = -np.inf
    for _sweep in range(max_sweeps):
        suffix = [scalar] * (n + 1)
        for k in reversed(range(1, n)):
            suffix[k] = np.kron(qubits[k], suffix[k + 1])
        pre = scalar
        for k in range(n):
            basis = np.kron(np.kron(pre[:, None], eye2), suffix[k + 1][:, None])  # (2^n, 2)
            h_eff = basis.conj().T @ (mat @ basis)
            vals, vecs = np.linalg.eigh(h_eff)
            qubits[k] = vecs[:, -1]
            new_value = float(vals[-1])
            pre = np.kron(pre, qubits[k])
        if new_value < value - 1e-9 * max(1.0, abs(value)):
            raise InvariantViolationError(
                f"alternating update decreased the objective: {value} -> {new_value}"
            )
        gain = new_value - value
        value = new_value
        if on_sweep is not None:
            on_sweep(value)
        if gain < tol.convergence_tol * max(1.0, abs(value)):
            break
    return value, qubits


def maximize_over_product_states(
    op,
    n: int | None = None,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> OptimizationResult:
    """Best <psi_1 (x) ... (x) psi_N | op | psi_1 (x) ... (x) psi_N> found from
    seeded Haar-random starts followed by cyclic exact single-qubit updates."""
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    mat, n = _as_matrix(op, n)
    best_value, best_qubits = -np.inf, None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        qubits = [_haar_qubit(rng) for _ in range(n)]
        value, qubits = _product_update_sweeps(mat, qubits, tol)
        if value > best_value:
            best_value, best_qubits = value, qubits
    bloch = np.array([[float(np.vdot(q, PAULI[a] @ q).real) / 2.0 for a in AXES] for q in best_qubits])
    return OptimizationResult(best_value, BlochProduct(bloch), restarts, seed)


# ---------------------------------------------------------------------------
# translationally invariant product states: one Bloch vector on the sphere
# ---------------------------------------------------------------------------

def ti_objective(form: QuadraticForm, n: int, s: np.ndarray) -> float:
    """Value of the quadratic collective form on |psi(s)>^(x N):
    sum(a) N/4 + N(N-1) sum_l a_l s_l^2 + N sum_l b_l s_l."""
    a = np.asarray(form.a)
    b = np.asarray(form.b)
    return float(a.sum() * n / 4.0 + n * (n - 1) * (a @ (s * s)) + n * (b @ s))


def maximize_over_ti_product(form: QuadraticForm, n: int) -> OptimizationResult:
    """Maximize the quadratic form exactly over states |psi>^(x N).

    The objective is convex in the Bloch vector s, so the maximum sits on the
    sphere |s| = 1/2 at s_l = beta_l / (2 (lambda - alpha_l)), alpha = N(N-1) a,
    beta = N b, with lambda >= max(alpha) the root of the secular equation
    |s(lambda)| = 1/2, or lambda = max(alpha) in its hard case (README, Lemma 1;
    More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 553 (1983)).
    """
    if not _is_int(n) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    alpha = [n * (n - 1) * x for x in form.a]
    beta = [n * x for x in form.b]
    gaps = [max(alpha) - x for x in alpha]  # lambda - alpha_l = gap_l + mu, mu = lambda - max(alpha)
    mu = _secular_root(gaps, beta)
    s = _secular_point(gaps, beta, mu)
    if mu == 0.0:  # hard case
        s[gaps.index(0.0)] = sqrt(max(0.0, _RADIUS ** 2 - hypot(*s) ** 2))
    s = np.array(s) * (_RADIUS / hypot(*s))
    return OptimizationResult(ti_objective(form, n, s), BlochProduct(np.tile(s, (n, 1))), 1, 0)


def _secular_point(gaps, beta, mu: float) -> list[float]:
    """s_l = beta_l / (2 (gap_l + mu)), and 0 wherever beta_l = 0."""
    return [bl / (2.0 * (gl + mu)) if bl != 0.0 else 0.0 for gl, bl in zip(gaps, beta)]


def _secular_root(gaps, beta) -> float:
    """mu > 0 with |s(mu)| = R, or 0 in the hard case.  psi = 1/|s| - 1/R is
    increasing and concave in mu, so Newton steps from the left stay left of
    the root; bisection takes over if roundoff pushes one out of the bracket."""
    top_beta = hypot(*(bl for bl, gl in zip(beta, gaps) if gl == 0.0))
    if top_beta == 0.0 and hypot(*_secular_point(gaps, beta, 0.0)) <= _RADIUS:
        return 0.0
    # |beta| / (2 (max gap + mu)) and |beta_top| / (2 mu) <= |s(mu)| <= |beta| / (2 mu)
    hi = hypot(*beta) / (2.0 * _RADIUS)
    lo = mu = max(0.0, hi - max(gaps), top_beta / (2.0 * _RADIUS))
    for _ in range(_SECULAR_MAX_STEPS):
        s = _secular_point(gaps, beta, mu)
        length = hypot(*s)
        psi = 1.0 / length - 1.0 / _RADIUS
        lo, hi = (lo, mu) if psi >= 0.0 else (mu, hi)
        slope = sum(x * x / (gl + mu) for x, gl in zip(s, gaps) if x != 0.0) / length ** 3
        step = mu - psi / slope
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if psi == 0.0 or abs(step - mu) <= 4.0 * np.finfo(float).eps * mu:
            break
        mu = step
    return mu


# ---------------------------------------------------------------------------
# biseparable maximization
# ---------------------------------------------------------------------------

def _is_permutation_invariant(mat: np.ndarray, n: int) -> bool:
    tensor = mat.reshape([2] * (2 * n))
    for q in range(1, n):
        axes = list(range(2 * n))
        axes[0], axes[q] = axes[q], axes[0]
        axes[n], axes[n + q] = axes[n + q], axes[n]
        if not np.allclose(tensor, tensor.transpose(axes), atol=1e-12):
            return False
    return True


def _bipartitions(n: int, permutation_invariant: bool):
    if permutation_invariant:
        for size in range(1, n // 2 + 1):
            yield Bipartition(n, tuple(range(1, size + 1)))
    else:
        # qubit 1 stays on side A to skip complements
        for size_rest in range(0, n - 1):
            for rest in itertools.combinations(range(2, n + 1), size_rest):
                yield Bipartition(n, (1,) + rest)


def _bisep_update_sweeps(
    w: np.ndarray, a: np.ndarray, b: np.ndarray, tol: Tolerances, max_sweeps: int = 200
) -> tuple[float, np.ndarray, np.ndarray]:
    value = -np.inf
    for _sweep in range(max_sweeps):
        h_a = np.einsum("ijkl,j,l->ik", w, b.conj(), b)
        vals, vecs = np.linalg.eigh(h_a)
        a = vecs[:, -1]
        h_b = np.einsum("ijkl,i,k->jl", w, a.conj(), a)
        vals, vecs = np.linalg.eigh(h_b)
        b = vecs[:, -1]
        new_value = float(vals[-1])
        if new_value < value - 1e-9 * max(1.0, abs(value)):
            raise InvariantViolationError(
                f"alternating update decreased the objective: {value} -> {new_value}"
            )
        gain = new_value - value
        value = new_value
        if gain < tol.convergence_tol * max(1.0, abs(value)):
            break
    return value, a, b


def maximize_over_biseparable(
    op,
    n: int | None = None,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> OptimizationResult:
    """Best <phi_A (x) phi_B | op | phi_A (x) phi_B> over all bipartitions.

    Each side is updated to the top eigenvector of its effective operator
    (exact alternating maximization) from seeded Haar-random starts.  When the
    operator commutes with all qubit transpositions, only split sizes are
    enumerated.
    """
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    mat, n = _as_matrix(op, n)
    if n < 2:
        raise DomainError("biseparable maximization needs at least two qubits")
    if n > _BISEP_QUBIT_LIMIT:
        raise DomainError(f"n = {n} exceeds the biseparable-search limit of {_BISEP_QUBIT_LIMIT}")

    tensor = mat.reshape([2] * (2 * n))
    best = (-np.inf, None, None, None)
    for split in _bipartitions(n, _is_permutation_invariant(mat, n)):
        axes_a = [q - 1 for q in split.side_a]
        axes_b = [q - 1 for q in split.side_b]
        perm = axes_a + axes_b
        d_a, d_b = 2 ** len(axes_a), 2 ** len(axes_b)
        w = tensor.transpose(perm + [n + p for p in perm]).reshape(d_a, d_b, d_a, d_b)
        for r in range(restarts):
            rng = np.random.default_rng([seed, r])
            a = rng.normal(size=d_a) + 1j * rng.normal(size=d_a)
            a /= np.linalg.norm(a)
            b = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
            b /= np.linalg.norm(b)
            value, a, b = _bisep_update_sweeps(w, a, b, tol)
            if value > best[0]:
                best = (value, split, a, b)
    value, split, a, b = best
    return OptimizationResult(value, BiseparableArgument(split, a, b), restarts, seed)


# ---------------------------------------------------------------------------
# seeded state sampling
# ---------------------------------------------------------------------------

def sample_random_states(kind: str, n: int, count: int, seed: int = 0):
    """Yield ``count`` seeded random states of the requested kind.

    kinds: 'pure' (Haar-like normalized Gaussian vectors), 'product'
    (independent Haar single-qubit states), 'biseparable' (uniform random
    split, Haar factor on each side), 'density' (normalized Wishart).
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if kind not in ("pure", "product", "biseparable", "density"):
        raise DomainError(f"unsupported sample kind {kind!r}")
    if kind == "biseparable" and n < 2:
        raise DomainError("biseparable sampling needs at least two qubits")
    rng = np.random.default_rng([seed])
    dim = 2 ** n

    def haar_vector(d: int) -> np.ndarray:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.linalg.norm(v)

    for _ in range(count):
        if kind == "pure":
            yield PureState(n, haar_vector(dim))
        elif kind == "product":
            yield product_state([haar_vector(2) for _ in range(n)])
        elif kind == "biseparable":
            mask = int(rng.integers(1, dim - 1))  # uniform nonempty proper subset
            side_a = tuple(q for q in range(1, n + 1) if mask & (1 << (q - 1)))
            split = Bipartition(n, side_a)
            yield assemble_bipartite(
                haar_vector(2 ** len(split.side_a)),
                haar_vector(2 ** len(split.side_b)),
                split,
            )
        else:  # density
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = g @ g.conj().T
            yield DensityMatrix(n, rho / np.trace(rho).real)
