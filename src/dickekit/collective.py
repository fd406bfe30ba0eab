"""Entanglement criteria built from collective spin measurements, the
fidelity witness beside them, the exact solves behind their bounds, and their
noise thresholds: the closed-form side, which ``oracle.py`` checks.

The kinds ``criterion_verdict`` judges (documented in the README's theory
section):

- Lemma 1 bound: over fully separable states, any form
  sum_l a_l <J_l^2> + sum_l b_l <J_l> with a_l >= 0 attains its maximum on
  N-fold tensor powers of one qubit state; for b = 0 the bound is
  B = sum(a) N/4 + max(a) (N/2)(N/2 - 1/2).
- Theorem 2 ('theorem2'): separable states obey
  <Jx^2> + <Jy^2> <= (N/2)(N/2 + 1/2); equality for equatorial product
  states, and the half-excited Dicke state attains the global maximum
  (N/2)(N/2 + 1) for even N.
- 'variance': the same bound holds for Var(Jx) + Var(Jy).
- 'symmetric_jz': for states in the maximal-spin sector the bound becomes
  N/4 <= <Jz^2>.
- 'crit2' with integer shift m: <Jx^2> + <Jy^2> - 2m <Jz> against the Lemma 1
  bound of the matching form; maximized by a Dicke state with <Jz> = -m.
- 'genuine3'/'genuine4': biseparable 3- and 4-qubit states obey
  <Jx^2> + <Jy^2> <= 2 + sqrt(5)/2 and <= 7/2 + sqrt(3) (Lemma 2/Theorem 3);
  violation certifies genuine multipartite entanglement.
- 'fidelity' with excitation count m: <m,N|rho|m,N> above the biseparable
  overlap bound ``dicke_fidelity_bound`` certifies genuine multipartite
  entanglement.
- Superradiance: the emitted light intensity of a coherent atomic cloud is
  I = I0 (<Jx^2> + <Jy^2> + <Jz>), maximal at the half-excited Dicke state.

Noise thresholds are those of |N/2,N> (even N) under white or psixy noise:
``collective_noise_threshold`` holds the closed forms, and
``collective_threshold_numeric`` root-finds every pair of a kind that has one,
with the root-finder of the Lemma 1 solve.  Of ``oracle.py``, which imports
nothing from here, this module reads only the result records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, hypot, isfinite, lgamma, sqrt

import numpy as np

from .config import DEFAULT_TOLERANCES, ROOT_XTOL, SOUNDNESS_TOL, SYMMETRIC_QUBIT_LIMIT, SYMMETRY_ATOL, Tolerances
from .errors import (DomainError, InvariantViolationError, _check_bloch, _check_int, _check_real,
                     _check_sequence, _check_type)
from .oracle import BlochProduct, OptimizationResult
from .states import (_STATE_TYPES, DensityMatrix, HermitianOperator, Mixture, PureState, QuadraticForm, SymmetricState,
                     _dicke_amplitudes, collective_operator, dicke_state, expectation, moments, psixy_noise_mix,
                     white_noise_mix)

CRITERION_KINDS = ("theorem2", "variance", "symmetric_jz", "crit2", "genuine3", "genuine4", "fidelity")
_NOISE_FAMILIES = ("white", "psixy")
# The noise families a kind judges, where not both: white noise leaves the maximal-spin
# sector symmetric_jz needs, and psixy noise needs an even N, which genuine3 never has.
_KIND_NOISES = {"symmetric_jz": ("psixy",), "genuine3": ("white",)}

GENUINE3_BOUND = 2.0 + sqrt(5.0) / 2.0
GENUINE4_BOUND = 3.5 + sqrt(3.0)

DETECTED_NONE = "none"
DETECTED_ENTANGLED = "entangled"
DETECTED_GENUINE = "genuine_multipartite"

_RADIUS = 0.5  # Bloch-vector length of a pure qubit state
_ROOT_MAX_STEPS = 200  # safety cap; Newton and secant steps need a handful
_TINY = float(np.finfo(float).tiny)  # smallest normal double


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of one criterion evaluation.

    ``margin`` is always ``value - bound``; ``detected`` is non-trivial exactly
    when the margin strictly exceeds the detection tolerance in force.
    """

    criterion_id: str
    value: float
    bound: float
    margin: float
    detected: str


def _verdict(criterion_id: str, value: float, bound: float, detection_class: str,
             tol: Tolerances) -> WitnessVerdict:
    """The verdict of a criterion whose violation certifies ``detection_class``."""
    margin = value - bound
    detected = detection_class if margin > tol.detection_tolerance else DETECTED_NONE
    return WitnessVerdict(criterion_id, float(value), float(bound), float(margin), detected)


def theorem2_bound(n: int) -> float:
    """Separable bound on <Jx^2> + <Jy^2>: (N/2)(N/2 + 1/2)."""
    _check_int(n, "n", 1, 2 ** 53)  # the bound is a float, which counts qubits exactly up to 2^53
    return (n / 2.0) * (n / 2.0 + 0.5)


def lemma1_bound(form: QuadraticForm, n: int) -> float:
    """Separable-state maximum of the quadratic collective form.

    With no linear part the closed form applies; otherwise the maximum over
    N-fold tensor powers (which equals the separable maximum) is solved exactly
    by the solver of ``maximize_over_ti_product``: the secular equation and
    its hard case.
    """
    _check_type(form, (QuadraticForm,), "form")
    _check_int(n, "n", 1, 2 ** 53)  # the form is evaluated with N as a float, exact to 2^53
    if not form.is_linear_free:
        return _ti_maximum(form, int(n)).value  # one cache key, and no int64 wrap, for a NumPy n
    a = form.a
    bound = sum(a) * n / 4.0 + max(a) * (n / 2.0) * (n / 2.0 - 0.5)
    if not isfinite(bound):
        raise DomainError(f"{form} on {n} qubits leaves the float range of the closed form")
    return bound


# ---------------------------------------------------------------------------
# Lemma 1: the maximum over tensor powers, one Bloch vector on the sphere
# ---------------------------------------------------------------------------

def ti_objective(form: QuadraticForm, n: int, s) -> float | np.ndarray:
    """Value of the quadratic collective form on |psi(s)>^(x N), sum(a) N/4 +
    N(N-1) sum_l a_l s_l^2 + N sum_l b_l s_l: a float for one Bloch vector s, an
    array (...) for a stack (..., 3), each vector real and finite with |s| <= 1/2.
    A value past the float range is refused."""
    _check_type(form, (QuadraticForm,), "form")
    n = int(_check_int(n, "n", 1, 2 ** 53))  # no int64 wrap in N(N-1); a float in the sum, exact to 2^53
    s = _check_bloch(s, "Bloch vector s")
    a, b = np.asarray(form.a), np.asarray(form.b)
    with np.errstate(over="ignore", invalid="ignore"):  # a term past the float range makes the value inf or NaN
        value = a.sum() * n / 4.0 + n * (n - 1) * ((s * s) @ a) + n * (s @ b)
    if not np.isfinite(value).all():
        raise DomainError(f"{form} on {n} qubits leaves the float range of the tensor-power objective")
    return float(value) if s.ndim == 1 else value


def maximize_over_ti_product(form: QuadraticForm, n: int) -> OptimizationResult:
    """Maximize the quadratic form exactly over states |psi>^(x N).

    The objective is convex in the Bloch vector s, so the maximum sits on the
    sphere |s| = 1/2 at s_l = beta_l / (2 (lambda - alpha_l)), alpha = N(N-1) a,
    beta = N b, with lambda >= max(alpha) the root of the secular equation
    |s(lambda)| = 1/2, or lambda = max(alpha) in its hard case (README, Lemma 1;
    More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 553 (1983)).  It is the solve
    ``lemma1_bound`` reads, and the product search in ``oracle`` checks it.
    """
    _check_type(form, (QuadraticForm,), "form")
    _check_int(n, "n", 1, SYMMETRIC_QUBIT_LIMIT)  # the argument holds one Bloch vector per qubit
    return _ti_maximum(form, int(n))


@lru_cache(maxsize=256)
def _ti_maximum(form: QuadraticForm, n: int) -> OptimizationResult:
    """The maximum over |psi(s)>^(x N) for a checked n, kept per (form, N): a
    crit2 sweep or threshold bisection asks for the same bound at every point.
    Its argument is the one checked Bloch vector, broadcast read-only over N rows."""
    alpha = [n * (n - 1) * x for x in form.a]
    # a subnormal beta on a top axis would put the root below the normal range
    # (the Newton slope overflows); flushing it moves the value by < 1e-307
    beta = [n * x if abs(n * x) >= _TINY else 0.0 for x in form.b]
    # bounds every 2 (gap_l + mu) the solver forms and each term of ti_objective: sum(a) N
    # before its quarter, then at most max(alpha)/4 and |beta|/2 in modulus
    if not isfinite(max(2.0 * (max(alpha) + hypot(*beta)), sum(form.a) * n)):
        raise DomainError(f"{form} on {n} qubits leaves the float range of the tensor-power solver")
    gaps = [max(alpha) - x for x in alpha]  # lambda - alpha_l = gap_l + mu, mu = lambda - max(alpha)
    mu = _secular_root(gaps, beta)
    s = _secular_point(gaps, beta, mu)
    if mu == 0.0:  # hard case
        s[gaps.index(0.0)] = sqrt(max(0.0, _RADIUS ** 2 - hypot(*s) ** 2))
    s = np.array(s) * (_RADIUS / hypot(*s))
    argument = BlochProduct(s[None])
    object.__setattr__(argument, "vectors", np.broadcast_to(argument.vectors, (n, 3)))
    return OptimizationResult(ti_objective(form, n, s), argument)


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


# ---------------------------------------------------------------------------
# Theorem 1: the biseparable overlap bound and the Dicke fidelity
# ---------------------------------------------------------------------------

def dicke_fidelity_bound(n: int, m: int) -> float:
    """Maximal squared overlap of |m,N> with biseparable pure states: the
    largest closed-form squared Schmidt coefficient C(N1,k) C(N-N1,m-k) / C(N,m)
    (``_exact_bound``), for 2 <= N <= SYMMETRIC_QUBIT_LIMIT, the largest state.
    ``oracle.max_biseparable_overlap`` is the independent SVD route to the same
    number, which the test suite holds it to."""
    _check_int(n, "n", 2, SYMMETRIC_QUBIT_LIMIT)  # a bipartition needs two qubits
    _check_int(m, "excitation count m", 0, n)
    return _exact_bound(n, m)


@lru_cache(maxsize=256)
def _exact_bound(n: int, m: int) -> float:
    """The largest C(N1,k) C(N-N1,m-k) / C(N,m), kept per (N, m): a noise sweep
    asks for the same bound at every point.  Each row in k is hypergeometric,
    so only its mode k = floor((N1+1)(m+1)/(N+2)) is taken (a tie leaves k - 1
    with the same value).  The modes are ranked in log space by lgamma, and
    only those within 1e-9 relative of the top, 25 times the worst lgamma
    error of log g measured at the cap N = 10^4 (4.0e-11, growing with N), are
    compared in exact integers; the quotient of two ints is correctly rounded."""
    n1 = np.arange(1, n // 2 + 1)
    k = (n1 + 1) * (m + 1) // (n + 2)  # a mode of each row, always a valid k
    log_fact = np.array([lgamma(i + 1.0) for i in range(n + 1)])
    log_g = (log_fact[n1] - log_fact[k] - log_fact[n1 - k]
             + log_fact[n - n1] - log_fact[m - k] - log_fact[n - n1 - m + k])
    near = np.flatnonzero(log_g >= log_g.max() - 1e-9)
    best = max(comb(a, b) * comb(n - a, m - b) for a, b in zip(n1[near].tolist(), k[near].tolist()))
    return best / comb(n, m)


def _dicke_fidelity(state, m: int) -> float:
    """<m,N| rho |m,N>: |<m,N|psi>|^2 for a pure state; for a Mixture the
    weighted sum over its components plus the identity's share 2^-N."""
    if isinstance(state, Mixture):
        return state.average(lambda psi: _dicke_fidelity(psi, m), 2.0 ** -state.n_qubits)
    if isinstance(state, SymmetricState):
        return abs(state.sector_amplitudes[m]) ** 2
    target = _dicke_amplitudes(state.n_qubits, m)
    if isinstance(state, DensityMatrix):
        return float(np.vdot(target, state.matrix @ target).real)
    return abs(np.vdot(target, state.amplitudes)) ** 2


def criterion_verdict(
    state,
    kind: str,
    m: int | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> WitnessVerdict:
    """Evaluate one criterion on a pure, mixed, or symmetric state; ``m`` is
    the shift of 'crit2' and the excitation count of 'fidelity', and the
    other kinds, which do not read it, refuse one."""
    n = _check_type(state, _STATE_TYPES, "state").n_qubits
    _check_kind(kind, n)
    if m is not None and kind not in ("crit2", "fidelity"):
        raise DomainError(f"{kind} does not read m")
    _check_type(tol, (Tolerances,), "tol")
    if kind == "fidelity":  # an overlap, not a collective moment
        bound = dicke_fidelity_bound(n, m)
        return _verdict(kind, _dicke_fidelity(state, m), bound, DETECTED_GENUINE, tol)
    (jx, jy, _jz), (jx2, jy2, jz2) = moments(state)
    planar = jx2 + jy2
    if kind == "theorem2":
        return _verdict(kind, planar, theorem2_bound(n), DETECTED_ENTANGLED, tol)
    if kind == "variance":
        return _verdict(kind, planar - jx ** 2 - jy ** 2, theorem2_bound(n), DETECTED_ENTANGLED, tol)
    if kind == "symmetric_jz":
        total = planar + jz2
        maximal = (n / 2.0) * (n / 2.0 + 1.0)
        if abs(total - maximal) > SYMMETRY_ATOL * max(1.0, maximal):
            raise DomainError(
                f"symmetric_jz needs a maximal-spin state: <J^2> = {total:.12g}, expected {maximal:.12g}"
            )
        return _verdict(kind, n / 4.0 - jz2, 0.0, DETECTED_ENTANGLED, tol)
    if kind == "crit2":
        _check_int(m, "crit2 shift m")
        # the exact integer -2m, which QuadraticForm refuses beyond the float range
        form = QuadraticForm(a=(1.0, 1.0, 0.0), b=(0.0, 0.0, -2 * int(m)))
        value = expectation(state, form)
        return _verdict(f"crit2(m={int(m)})", value, lemma1_bound(form, n), DETECTED_ENTANGLED, tol)
    # genuine multipartite criteria
    bound = GENUINE3_BOUND if kind == "genuine3" else GENUINE4_BOUND
    return _verdict(kind, planar, bound, DETECTED_GENUINE, tol)


def fidelity_witness_verdict(state, n: int, m: int, tol: Tolerances = DEFAULT_TOLERANCES) -> WitnessVerdict:
    """The 'fidelity' verdict of ``criterion_verdict`` on a state of n qubits.
    Kept because the benchmark calls it, until ROADMAP item 1 moves those calls."""
    if _check_type(state, _STATE_TYPES, "state").n_qubits != n:
        raise DomainError(f"state has {state.n_qubits} qubits, expected {n}")
    return criterion_verdict(state, "fidelity", m, tol)


def _check_kind(kind: str, n: int, noise: str | None = None) -> None:
    """Refuse an unknown kind, a qubit count it does not apply to (the genuine
    kinds have one each) and, when given, a noise family it does not judge."""
    if kind not in CRITERION_KINDS:
        raise DomainError(f"criterion kind must be one of {CRITERION_KINDS}, got {kind!r}")
    allowed = _KIND_NOISES.get(kind, _NOISE_FAMILIES)
    if noise is not None and noise not in allowed:
        raise DomainError(f"{kind} takes {' or '.join(allowed)} noise only, got {noise!r}")
    required = {"genuine3": 3, "genuine4": 4}.get(kind, n)
    if n != required:
        raise DomainError(f"{kind} applies to exactly {required} qubits, got n = {n}")


# ---------------------------------------------------------------------------
# Lemma 2 and Theorem 3 operators (planar moments on two and three qubits)
# ---------------------------------------------------------------------------

def _planar_triple(n: int) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """2 Jx, 2 Jy and 2 (Jx^2 + Jy^2) - N on n qubits: the sums of sx and of sy
    over the qubits, and of sx sx + sy sy over the qubit pairs."""
    jx, jy, xy = (collective_operator(n, which).matrix for which in ("x", "y", QuadraticForm(a=(1, 1, 0))))
    return tuple(HermitianOperator(m) for m in (2 * jx, 2 * jy, 2 * xy - n * np.eye(2 ** n)))


@lru_cache(maxsize=1)
def lemma2_operators() -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """M1 = sx sx + sy sy = 2 (Jx^2 + Jy^2) - 2, M2 = 2 Jx and M3 = 2 Jy on two qubits."""
    m2, m3, m1 = _planar_triple(2)
    return m1, m2, m3


@lru_cache(maxsize=1)
def _lemma2_stack() -> np.ndarray:
    """M1, M2, M3 as one (3, 4, 4) array, read-only, since every caller shares it."""
    stack = np.stack([op.matrix for op in lemma2_operators()])
    stack.setflags(write=False)
    return stack


def lemma2_vector_norm(state) -> float:
    """<M1>^2 + <M2>^2 + <M3>^2 for a two-qubit state; at most 16/3."""
    if _check_type(state, (PureState, DensityMatrix), "state").n_qubits != 2:
        raise DomainError(f"lemma2_vector_norm needs a two-qubit state, got n = {state.n_qubits}")
    stack = _lemma2_stack()
    if isinstance(state, PureState):  # <psi|M_k|psi>
        psi = state.amplitudes
        values = (stack @ psi) @ psi.conj()
    else:  # Tr(rho M_k)
        values = np.einsum("ij,kji->k", state.matrix, stack)
    return float(values.real @ values.real)


@lru_cache(maxsize=1)
def theorem3_operators() -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """(Qx, Qy, R) on three qubits: Qa sums sigma_a over the qubits and R sums
    sx sx + sy sy over the three pairs; Theorem 3 reads x1 Qx + y1 Qy + R."""
    return _planar_triple(3)


# ---------------------------------------------------------------------------
# analytic eigenvalue families
# ---------------------------------------------------------------------------

def lemma2_eigenvalues(direction) -> np.ndarray:
    """The four eigenvalues of n1 M1 + n2 M2 + n3 M3 for a unit 3-vector n:
    {0, -2 n1, n1 +- sqrt(n1^2 + 4 n2^2 + 4 n3^2)} (Lemma 2)."""
    v = np.array([_check_real(x, "lemma2 direction n_l")
                  for x in _check_sequence(direction, "lemma2 direction")])
    if v.shape != (3,):
        raise DomainError(f"lemma2 direction needs a 3-vector, got shape {v.shape}")
    if not abs(hypot(*v) - 1.0) <= 1e-12:  # a Python float: no NumPy overflow warning
        raise DomainError(f"direction vector must be unit length, |n| = {hypot(*v):.12g}")
    n1, n2, n3 = v
    root = sqrt(n1 ** 2 + 4 * n2 ** 2 + 4 * n3 ** 2)
    return np.array([0.0, -2 * n1, n1 + root, n1 - root])


def theorem3_eigenvalues(x: float) -> np.ndarray:
    """The eight eigenvalues of x1 Qx + y1 Qy + R, with multiplicities, for
    X = sqrt(x1^2 + y1^2) in [0, 1] (Theorem 3)."""
    x = _check_real(x, "theorem3 X", 0, 1)
    rp = 2.0 * sqrt(1.0 + x + x * x)
    rm = 2.0 * sqrt(1.0 - x + x * x)
    return np.array(
        [-2 + x, -2 + x, -2 - x, -2 - x, 2 + x + rp, 2 + x - rp, 2 - x + rm, 2 - x - rm]
    )


@dataclass(frozen=True)
class PartitionBounds:
    """Per-partition biseparable bounds on <Jx^2> + <Jy^2> for four qubits."""

    split22_bound: float
    split13_bound: float
    overall: float


def theorem3_partition_bounds() -> PartitionBounds:
    """2|2 splits are capped at 31/6; 1|3 splits at 7/2 + sqrt(3), which is
    larger and therefore the biseparable bound."""
    split22 = 31.0 / 6.0
    split13 = GENUINE4_BOUND
    return PartitionBounds(split22, split13, max(split22, split13))


# ---------------------------------------------------------------------------
# superradiance
# ---------------------------------------------------------------------------

def superradiance_intensity(state, i0: float = 1.0) -> float:
    """Peak emission intensity I = I0 (<Jx^2> + <Jy^2> + <Jz>).

    Zero for the ground state, N I0 for the all-excited product state, and
    maximal, I0 (N/2)(N/2 + 1), at the half-excited Dicke state.
    """
    i0 = _check_real(i0, "i0", 0, strict=True)
    (_jx, _jy, jz), (jx2, jy2, _jz2) = moments(state)
    intensity = i0 * (jx2 + jy2 + jz)
    if not isfinite(intensity):
        raise DomainError(f"i0 = {i0!r} on {state.n_qubits} qubits leaves the float range of the intensity")
    return intensity


# ---------------------------------------------------------------------------
# noise thresholds
# ---------------------------------------------------------------------------

# Closed forms by (kind, noise): roots of the margin on the noisy |N/2,N> (README)
_CLOSED_THRESHOLDS = {
    ("theorem2", "white"): lambda n: 1.0 / n,
    ("theorem2", "psixy"): lambda n: 1.0,  # detection for every p < 1
    ("genuine4", "white"): lambda n: (2.5 - sqrt(3.0)) / 4.0,
    ("fidelity", "white"): lambda n: 0.5 * (n - 2) / ((n - 1) * (1.0 - 2.0 ** (-n))),
}


def _check_threshold_pair(n: int, kind: str, noise: str) -> None:
    """Thresholds are those of |N/2,N> at even N, from N = 4 for 'fidelity', whose
    overlap bound N/(2(N-1)) holds from there; 'genuine3', judged at N = 3 only, has none."""
    n = 3 if kind == "genuine3" else _check_int(n, "n", 4 if kind == "fidelity" else 2, even=True)
    _check_kind(kind, n, noise)  # refuses a noise family genuine3 does not judge in its own words
    if kind == "genuine3":
        raise DomainError("genuine3 judges N = 3 only, while thresholds are those of |N/2,N> at even N")


def collective_noise_threshold(n: int, kind: str, noise: str = "white") -> float:
    """Closed-form noise ratio at which a kind stops detecting the noisy
    half-excited Dicke state.

    white noise: 'theorem2' -> 1/N; 'genuine4' -> (5/2 - sqrt(3))/4 at N = 4;
    'fidelity' -> (1/2) (N-2) / ((N-1) (1 - 2^-N)).  psixy noise: 'theorem2'
    -> 1 (detection for every p < 1).  Other pairs have only the numeric route.
    """
    _check_threshold_pair(n, kind, noise)
    if (kind, noise) not in _CLOSED_THRESHOLDS:
        raise DomainError(f"no closed {noise}-noise threshold for kind {kind!r}")
    return _CLOSED_THRESHOLDS[kind, noise](n)


def collective_threshold_numeric(n: int, kind: str, noise: str = "white") -> float:
    """Noise threshold found by root-finding the verdict margin over p in [0,1].

    Thresholds are those of |N/2,N> at even N, so 'genuine3', which judges
    three qubits only, has none.  Every other kind works with each noise
    family it judges, independent of the closed formulas: it builds the noisy
    state and judges it at each probe.  'crit2' takes the shift 0 and
    'fidelity' the excitation count N/2, those of |N/2,N>.
    """
    _check_threshold_pair(n, kind, noise)
    target = dicke_state(n, n // 2)
    m = {"fidelity": n // 2, "crit2": 0}.get(kind)

    def margin(p: float) -> float:
        rho = white_noise_mix(target, p) if noise == "white" else psixy_noise_mix(n, p)
        return criterion_verdict(rho, kind, m).margin

    return _margin_crossing(margin)


def fidelity_threshold_numeric(n: int) -> float:
    """The white-noise threshold of the fidelity witness on |N/2,N>, by root-finding.
    Kept because the benchmark calls it, until ROADMAP item 1 moves those calls."""
    return collective_threshold_numeric(n, "fidelity")


def _margin_crossing(margin) -> float:
    """Root of a margin function on [0, 1] that is positive at p = 0."""
    lo, hi = margin(0.0), margin(1.0)
    if lo <= 0:
        raise DomainError("criterion does not detect the noiseless state; no threshold")
    if hi > SOUNDNESS_TOL:
        raise DomainError("margin stays positive on [0, 1]; no threshold to find")
    if hi >= 0:
        return 1.0  # crossing sits at the endpoint within roundoff
    # the first step, the secant through the endpoints, is exact for a margin affine in p
    return _safeguarded_root(lambda p: (-margin(p), None), 0.0, 1.0, lo / (lo - hi),
                             xtol=ROOT_XTOL, last=(0.0, -lo))


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
