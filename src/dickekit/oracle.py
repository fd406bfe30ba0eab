"""Brute-force verification layer: seeded sampling and numeric maximization.

Every closed-form bound in the library has an independent numeric route
through this module: dense eigensolving, alternating exact updates over
product or biseparable pure states, a Schmidt-coefficient sweep over every
bipartition of a pure target, and a direct single-Bloch-vector maximizer for
translationally invariant product states.

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
from functools import lru_cache, partial
from math import hypot, isfinite, sqrt

import numpy as np

from .config import CONVERGENCE_TOL, DEFAULT_RESTARTS, SYMMETRIC_QUBIT_LIMIT
from .errors import DomainError, InvariantViolationError, _check_int, _check_numeric, _check_type
from .operators import AXES, PAULI, HermitianOperator, QuadraticForm
from .states import (
    Bipartition,
    DensityMatrix,
    PureState,
    _check_qubit_count,
    assemble_bipartite,
    product_state,
    schmidt_spectrum,
)

_BISEP_QUBIT_LIMIT = 8  # general pure-state pairs get expensive beyond this
_RADIUS = 0.5  # Bloch-vector length of a pure qubit state
_ROOT_MAX_STEPS = 200  # safety cap; Newton and secant steps need a handful
_TINY = float(np.finfo(float).tiny)  # smallest normal double
_SWEEP_CAP = 2000  # alternating sweeps per restart before it counts as unconverged
_RESTART_CHUNK = 64  # restarts stacked at once, so memory does not grow with restarts
_SAMPLE_BLOCK = 1 << 14  # floats in a sampler block's largest array, so memory does not grow with count


@dataclass(frozen=True, eq=False)
class BlochProduct:
    """Product state recorded as one Bloch vector s^(k) = <sigma>/2 per qubit."""

    vectors: np.ndarray  # shape (N, 3), |s| <= 1/2

    def __post_init__(self):
        vecs = _check_numeric(self.vectors, "Bloch vectors", real=True)
        vecs = np.array(vecs, dtype=float)  # a copy, frozen below
        if vecs.ndim != 2 or vecs.shape[1] != 3 or vecs.shape[0] < 1:
            raise DomainError(f"BlochProduct needs shape (N, 3), got {vecs.shape}")
        lengths = np.linalg.norm(vecs, axis=1)
        if not np.all(lengths <= 0.5 + 1e-10):  # NaN fails too
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
    return float(np.linalg.eigvalsh(mat)[-1])


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


def _top_eigvecs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and its eigenvector for each matrix of a stack."""
    vals, vecs = np.linalg.eigh(h)
    return vals[:, -1], vecs[:, :, -1]


def _lockstep(sweep, factors: list[np.ndarray], scale: float):
    """Run exact alternating sweeps on a stack of restarts in lockstep.

    ``factors`` hold the restarts along their first axis and are updated in
    place; ``sweep`` updates a sub-stack and returns its objective values.  A
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
        part = [f[active] for f in factors]
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
        self.mat, self.n = _as_matrix(op)
        self.scale = float(np.abs(self.mat).max())  # so a search on c op steps as the one on op
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
        return OptimizationResult(
            self.value, argument, sweeps=tuple(self.sweeps),
            converged=self.converged, history=self.history, values=tuple(self.values),
        )


# ---------------------------------------------------------------------------
# product-state maximization (alternating exact single-qubit updates)
# ---------------------------------------------------------------------------

def _product_sweep(mat: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """One cyclic sweep over a stack of product states ``(R, n, 2)``: each
    qubit is set to the top eigenvector of its 2x2 effective operator
    B^H mat B, with B = pre (x) 1 (x) suffix, all other qubits fixed.
    Monotone by construction; returns the value after the last qubit."""
    (qubits,) = factors
    count, n, _ = qubits.shape
    suffixes = [np.ones((count, 1), dtype=complex)]  # suffixes[j]: last j qubits
    for k in range(n - 1, 0, -1):
        suffixes.append(_outer_rows(qubits[:, k], suffixes[-1]))
    pre = suffixes[0]
    for k in range(n):
        env = pre[:, :, None] * suffixes[n - 1 - k][:, None, :]  # (R, 2^k, 2^(n-k-1))
        basis = np.zeros((env.shape[1], 2, env.shape[2], count, 2), dtype=complex)
        basis[:, 0, :, :, 0] = basis[:, 1, :, :, 1] = env.transpose(1, 2, 0)
        image = (mat @ basis.reshape(mat.shape[0], 2 * count)).reshape(basis.shape)
        value, qubits[:, k] = _top_eigvecs(np.einsum("rij,isjrt->rst", env.conj(), image))
        pre = _outer_rows(pre, qubits[:, k])
    return value


def maximize_over_product_states(
    op: HermitianOperator,
    *,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> OptimizationResult:
    """Best <psi_1 (x) ... (x) psi_N | op | psi_1 (x) ... (x) psi_N> found from
    seeded Haar-random starts followed by cyclic exact single-qubit updates,
    all restarts stepped in lockstep."""
    search = _Search(restarts, seed, op)
    mat, n = search.mat, search.n
    search.run(lambda rng: (_haar_rows(rng, n, 2),), partial(_product_sweep, mat))
    (qubits,) = search.factors
    bloch = np.array([[float(np.vdot(q, PAULI[a] @ q).real) / 2.0 for a in AXES] for q in qubits])
    return search.result(BlochProduct(bloch))


# ---------------------------------------------------------------------------
# translationally invariant product states: one Bloch vector on the sphere
# ---------------------------------------------------------------------------

def ti_objective(form: QuadraticForm, n: int, s: np.ndarray) -> float:
    """Value of the quadratic collective form on |psi(s)>^(x N):
    sum(a) N/4 + N(N-1) sum_l a_l s_l^2 + N sum_l b_l s_l."""
    _check_type(form, (QuadraticForm,), "form")
    _check_int(n, "n", 1, 2 ** 53)  # N is a float in the sum, exact to 2^53
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
    _check_type(form, (QuadraticForm,), "form")
    _check_int(n, "n", 1, SYMMETRIC_QUBIT_LIMIT)  # the argument holds one Bloch vector per qubit
    return _ti_result(form, int(n))


@lru_cache(maxsize=16)
def _ti_result(form: QuadraticForm, n: int) -> OptimizationResult:
    """``maximize_over_ti_product`` for checked arguments, kept per (form, N)."""
    value, s = _ti_maximum(form, n)
    argument = BlochProduct(s[None])  # one checked vector, broadcast read-only over N rows
    object.__setattr__(argument, "vectors", np.broadcast_to(argument.vectors, (n, 3)))
    return OptimizationResult(value, argument)


@lru_cache(maxsize=256)
def _ti_maximum(form: QuadraticForm, n: int) -> tuple[float, np.ndarray]:
    """The maximum over |psi(s)>^(x N) and its read-only Bloch vector s, for a
    checked n, kept per (form, N): a crit2 sweep or threshold bisection asks
    for the same bound at every point."""
    alpha = [n * (n - 1) * x for x in form.a]
    # a subnormal beta on a top axis would put the root below the normal range
    # (the Newton slope overflows); flushing it moves the value by < 1e-307
    beta = [n * x if abs(n * x) >= _TINY else 0.0 for x in form.b]
    if not isfinite(2.0 * (max(alpha) + hypot(*beta))):  # bounds every 2 (gap_l + mu) the solver forms
        raise DomainError(f"{form} on {n} qubits leaves the float range of the tensor-power solver")
    gaps = [max(alpha) - x for x in alpha]  # lambda - alpha_l = gap_l + mu, mu = lambda - max(alpha)
    mu = _secular_root(gaps, beta)
    s = _secular_point(gaps, beta, mu)
    if mu == 0.0:  # hard case
        s[gaps.index(0.0)] = sqrt(max(0.0, _RADIUS ** 2 - hypot(*s) ** 2))
    s = np.array(s) * (_RADIUS / hypot(*s))
    s.setflags(write=False)
    return ti_objective(form, n, s), s


def _secular_point(gaps, beta, mu: float) -> list[float]:
    """s_l = beta_l / (2 (gap_l + mu)), and 0 wherever beta_l = 0."""
    return [bl / (2.0 * (gl + mu)) if bl != 0.0 else 0.0 for gl, bl in zip(gaps, beta)]


def _secular_root(gaps, beta) -> float:
    """mu > 0 with |s(mu)| = R, or 0 in the hard case.  psi = 1/|s| - 1/R is
    increasing and concave in mu, so Newton steps from the left stay left of
    the root."""
    top_beta = hypot(*(bl for bl, gl in zip(beta, gaps) if gl == 0.0))
    if top_beta == 0.0 and hypot(*_secular_point(gaps, beta, 0.0)) <= _RADIUS:
        return 0.0

    def psi(mu: float) -> tuple[float, float]:
        s = _secular_point(gaps, beta, mu)
        length = hypot(*s)
        slope = sum(x * x / (gl + mu) for x, gl in zip(s, gaps) if x != 0.0) / length ** 3
        return 1.0 / length - 1.0 / _RADIUS, slope

    # |beta| / (2 (max gap + mu)) and |beta_top| / (2 mu) <= |s(mu)| <= |beta| / (2 mu)
    hi = hypot(*beta) / (2.0 * _RADIUS)
    lo = max(0.0, hi - max(gaps), top_beta / (2.0 * _RADIUS))
    return _safeguarded_root(psi, lo, hi, lo)


def _safeguarded_root(f, lo: float, hi: float, x: float, xtol: float = 0.0, last=None) -> float:
    """Root of an increasing f that changes sign on [lo, hi], searched from x.

    ``f(x)`` returns (value, slope) for a Newton step; a slope of None asks for
    the secant through the last two evaluated points, ``last`` being the
    (point, value) evaluated before x.  A step that leaves the bracket becomes
    its midpoint.  Stops on an exact zero or on a step shorter than
    xtol + 4 eps |x| and returns the last evaluated point; raises
    InvariantViolationError at the step cap."""
    for _ in range(_ROOT_MAX_STEPS):
        value, slope = f(x)
        lo, hi = (lo, x) if value >= 0.0 else (x, hi)
        if slope is None:
            slope = (value - last[1]) / (x - last[0])
        last = x, value
        step = x - value / slope if slope else 0.5 * (lo + hi)
        small = xtol + 4.0 * np.finfo(float).eps * abs(x)
        if not lo < step < hi and abs(step - x) > small:
            step = 0.5 * (lo + hi)
        if value == 0.0 or abs(step - x) <= small:
            return x
        x = step
    raise InvariantViolationError(f"root-finder did not converge in {_ROOT_MAX_STEPS} steps; last x = {x!r}")


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
    """Haar-random factors on C^d_a and C^d_b, one pair per row of ``x``, each
    row 2 (d_a + d_b) normals: real and imaginary parts of the first factor,
    then of the second.  Each factor gets the bits it would get alone."""
    a = x[:, :d_a] + 1j * x[:, d_a:2 * d_a]
    b = x[:, 2 * d_a:2 * d_a + d_b] + 1j * x[:, 2 * d_a + d_b:]
    return _unit_rows(a), _unit_rows(b)


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` over its norm, summed as 1-d ``np.linalg.norm`` sums
    it (re . re + im . im over the strided views), so each row gets the bits
    it would get alone."""
    return v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[:, None]


def _haar_pair(rng: np.random.Generator, d_a: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """One pair of Haar-random factors from one draw of 2 (d_a + d_b) normals."""
    a, b = _haar_pairs(rng.normal(size=(1, 2 * (d_a + d_b))), d_a, d_b)
    return a[0], b[0]


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
    """
    search = _Search(restarts, seed, op)
    mat, n = search.mat, search.n
    if n < 2:
        raise DomainError("biseparable maximization needs at least two qubits")
    if n > _BISEP_QUBIT_LIMIT:
        raise DomainError(f"n = {n} exceeds the biseparable-search limit of {_BISEP_QUBIT_LIMIT}")

    tensor = mat.reshape([2] * (2 * n))
    for split in _bipartitions(n, _is_permutation_invariant(mat, n)):
        axes, d_a, d_b = split.axes, 2 ** len(split.side_a), 2 ** len(split.side_b)
        w = tensor.transpose(axes + tuple(n + q for q in axes)).reshape(d_a, d_b, d_a, d_b)
        w_l = w.reshape(-1, d_b)
        w_k = np.ascontiguousarray(w.transpose(0, 1, 3, 2)).reshape(-1, d_a)
        search.run(lambda rng: _haar_pair(rng, d_a, d_b), partial(_bisep_sweep, w_l, w_k), split)
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
# seeded state sampling
# ---------------------------------------------------------------------------

def _pure_block(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    return _haar_rows(rng, size, 2 ** n)


def _product_block(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    qubits = _haar_rows(rng, size * n, 2).reshape(size, n, 2)
    amps = qubits[:, 0]
    for k in range(1, n):
        amps = _outer_rows(amps, qubits[:, k])
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def _biseparable_block(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Per sample one split draw, then one draw of normals for both factors;
    the states are then assembled split by split."""
    dim = 2 ** n
    draws, rows_of = [], {}
    for i in range(size):
        mask = int(rng.integers(1, dim - 1))  # uniform nonempty proper subset; bit q is qubit q + 1
        d_a = 2 ** mask.bit_count()
        draws.append(rng.normal(size=2 * (d_a + dim // d_a)))
        rows_of.setdefault(mask, []).append(i)
    amps = np.empty((size, dim), dtype=complex)
    for mask, rows in rows_of.items():
        # the axis rule of Bipartition.axes, read off the mask: side A's qubits, then side B's
        axes = [q for q in range(n) if mask >> q & 1] + [q for q in range(n) if not mask >> q & 1]
        d_a = 2 ** mask.bit_count()
        pair = _outer_rows(*_haar_pairs(np.stack([draws[i] for i in rows]), d_a, dim // d_a))
        back = [0, *(1 + i for i in sorted(range(n), key=axes.__getitem__))]  # argsort: back to qubit order
        amps[rows] = pair.reshape([len(rows)] + [2] * n).transpose(back).reshape(len(rows), dim)
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
