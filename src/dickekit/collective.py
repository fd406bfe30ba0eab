"""Entanglement criteria built from collective spin measurements, the
fidelity witness beside them, and their noise thresholds.

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
``collective_threshold_numeric`` root-finds every pair a kind judges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .config import DEFAULT_TOLERANCES, ROOT_XTOL, SOUNDNESS_TOL, SYMMETRY_ATOL, Tolerances
from .errors import DomainError, _check_int, _check_real, _check_type
from .fidelity import _dicke_fidelity, dicke_fidelity_bound
from .operators import (
    HermitianOperator,
    QuadraticForm,
    expectation,
    single_site,
    PAULI,
)
from .oracle import _safeguarded_root, _ti_maximum
from .states import _STATE_TYPES, DensityMatrix, PureState, dicke_state, moments, psixy_noise_mix, white_noise_mix
from .verdicts import DETECTED_ENTANGLED, DETECTED_GENUINE, WitnessVerdict, make_verdict

CRITERION_KINDS = ("theorem2", "variance", "symmetric_jz", "crit2", "genuine3", "genuine4", "fidelity")
_NOISE_FAMILIES = ("white", "psixy")
# The noise families a kind judges, where not both: white noise leaves the maximal-spin
# sector symmetric_jz needs, and psixy noise needs an even N, which genuine3 never has.
_KIND_NOISES = {"symmetric_jz": ("psixy",), "genuine3": ("white",)}

GENUINE3_BOUND = 2.0 + sqrt(5.0) / 2.0
GENUINE4_BOUND = 3.5 + sqrt(3.0)


def theorem2_bound(n: int) -> float:
    """Separable bound on <Jx^2> + <Jy^2>: (N/2)(N/2 + 1/2)."""
    return (n / 2.0) * (n / 2.0 + 0.5)


def lemma1_bound(form: QuadraticForm, n: int) -> float:
    """Separable-state maximum of the quadratic collective form.

    With no linear part the closed form applies; otherwise the maximum over
    N-fold tensor powers (which equals the separable maximum) is solved exactly
    by the solver of ``maximize_over_ti_product``: the secular equation and
    its hard case.
    """
    _check_type(form, (QuadraticForm,), "form")
    _check_int(n, "n", 1)
    if form.is_linear_free:
        a = form.a
        return sum(a) * n / 4.0 + max(a) * (n / 2.0) * (n / 2.0 - 0.5)
    return _ti_maximum(form, n)[0]


def criterion_verdict(
    state,
    kind: str,
    m: int | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> WitnessVerdict:
    """Evaluate one criterion on a pure, mixed, or symmetric state; ``m`` is
    the shift of 'crit2' and the excitation count of 'fidelity'."""
    n = _check_type(state, _STATE_TYPES, "state").n_qubits
    _check_kind(kind, n)
    if kind == "fidelity":  # an overlap, not a collective moment
        bound = dicke_fidelity_bound(n, m)
        return make_verdict(kind, _dicke_fidelity(state, m), bound, DETECTED_GENUINE, tol)
    (jx, jy, _jz), (jx2, jy2, jz2) = moments(state)
    planar = jx2 + jy2
    if kind == "theorem2":
        return make_verdict(kind, planar, theorem2_bound(n), DETECTED_ENTANGLED, tol)
    if kind == "variance":
        return make_verdict(kind, planar - jx ** 2 - jy ** 2, theorem2_bound(n), DETECTED_ENTANGLED, tol)
    if kind == "symmetric_jz":
        total = planar + jz2
        maximal = (n / 2.0) * (n / 2.0 + 1.0)
        if abs(total - maximal) > SYMMETRY_ATOL * max(1.0, maximal):
            raise DomainError(
                f"symmetric_jz needs a maximal-spin state: <J^2> = {total:.12g}, expected {maximal:.12g}"
            )
        return make_verdict(kind, n / 4.0 - jz2, 0.0, DETECTED_ENTANGLED, tol)
    if kind == "crit2":
        _check_int(m, "crit2 shift m")
        # the exact integer -2m, which QuadraticForm refuses beyond the float range
        form = QuadraticForm(a=(1.0, 1.0, 0.0), b=(0.0, 0.0, -2 * int(m)))
        value = expectation(state, form)
        return make_verdict(f"crit2(m={int(m)})", value, lemma1_bound(form, n), DETECTED_ENTANGLED, tol)
    # genuine multipartite criteria
    bound = GENUINE3_BOUND if kind == "genuine3" else GENUINE4_BOUND
    return make_verdict(kind, planar, bound, DETECTED_GENUINE, tol)


def fidelity_witness_verdict(state, n: int, m: int, tol: Tolerances = DEFAULT_TOLERANCES) -> WitnessVerdict:
    """The 'fidelity' verdict of ``criterion_verdict`` on a state of n qubits."""
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
# Lemma 2 and its operators (two-qubit planar moments)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def lemma2_operators() -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """M1 = sx sx + sy sy; M2 = sx (x) 1 + 1 (x) sx; M3 likewise for y."""
    m1 = np.kron(PAULI["x"], PAULI["x"]) + np.kron(PAULI["y"], PAULI["y"])
    m2 = single_site(PAULI["x"], 1, 2) + single_site(PAULI["x"], 2, 2)
    m3 = single_site(PAULI["y"], 1, 2) + single_site(PAULI["y"], 2, 2)
    return tuple(HermitianOperator(4, m) for m in (m1, m2, m3))


@lru_cache(maxsize=1)
def _lemma2_stack() -> np.ndarray:
    """M1, M2, M3 as one (3, 4, 4) array, read-only, since every caller shares it."""
    stack = np.stack([op.matrix for op in lemma2_operators()])
    stack.setflags(write=False)
    return stack


def lemma2_vector_norm(state) -> float:
    """<M1>^2 + <M2>^2 + <M3>^2 for a two-qubit state; at most 16/3."""
    if not isinstance(state, (PureState, DensityMatrix)) or state.n_qubits != 2:
        raise DomainError("lemma2_vector_norm needs a two-qubit state")
    stack = _lemma2_stack()
    if isinstance(state, PureState):  # <psi|M_k|psi>
        psi = state.amplitudes
        values = (stack @ psi) @ psi.conj()
    else:  # Tr(rho M_k)
        values = np.einsum("ij,kji->k", state.matrix, stack)
    return float(values.real @ values.real)


def theorem3_operators(x1: float = 1.0, y1: float = 0.0) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator, HermitianOperator]:
    """(Qx, Qy, R, x1 Qx + y1 Qy + R) on three qubits.

    Qa sums sigma_a over the three qubits; R sums the planar pair correlators
    sx sx + sy sy over the three pairs.
    """
    x1, y1 = _check_real(x1, "x1"), _check_real(y1, "y1")
    qx = sum(single_site(PAULI["x"], q, 3) for q in (1, 2, 3))
    qy = sum(single_site(PAULI["y"], q, 3) for q in (1, 2, 3))
    r = np.zeros((8, 8), dtype=complex)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        r += single_site(PAULI["x"], i, 3) @ single_site(PAULI["x"], j, 3)
        r += single_site(PAULI["y"], i, 3) @ single_site(PAULI["y"], j, 3)
    combo = x1 * qx + y1 * qy + r
    return tuple(HermitianOperator(8, m) for m in (qx, qy, r, combo))


# ---------------------------------------------------------------------------
# analytic eigenvalue families
# ---------------------------------------------------------------------------

def analytic_eigenvalues(family: str, params) -> np.ndarray:
    """Closed-form spectra used in the genuine-multipartite bound proofs.

    'lemma2_eig' takes a unit 3-vector n and returns the four eigenvalues of
    n1 M1 + n2 M2 + n3 M3: {0, -2 n1, n1 +- sqrt(n1^2 + 4 n2^2 + 4 n3^2)}.

    'theorem3_eig' takes X in [0, 1] and returns the eight eigenvalues of
    x1 Qx + y1 Qy + R with X = sqrt(x1^2 + y1^2), with multiplicities.
    """
    if family == "lemma2_eig":
        v = np.asarray(params, dtype=float)
        if v.shape != (3,):
            raise DomainError(f"lemma2_eig needs a 3-vector, got shape {v.shape}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise DomainError(f"direction vector must be unit length, |n| = {np.linalg.norm(v):.12g}")
        n1, n2, n3 = v
        root = sqrt(n1 ** 2 + 4 * n2 ** 2 + 4 * n3 ** 2)
        return np.array([0.0, -2 * n1, n1 + root, n1 - root])
    if family == "theorem3_eig":
        x = _check_real(params, "theorem3_eig X", 0, 1)
        rp = 2.0 * sqrt(1.0 + x + x * x)
        rm = 2.0 * sqrt(1.0 - x + x * x)
        return np.array(
            [-2 + x, -2 + x, -2 - x, -2 - x, 2 + x + rp, 2 + x - rp, 2 - x + rm, 2 - x - rm]
        )
    raise DomainError(f"unknown eigenvalue family {family!r}")


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
    return i0 * (jx2 + jy2 + jz)


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


def collective_noise_threshold(n: int, kind: str, noise: str = "white") -> float:
    """Closed-form noise ratio at which a kind stops detecting the noisy
    half-excited Dicke state.

    white noise: 'theorem2' -> 1/N; 'genuine4' -> (5/2 - sqrt(3))/4 at N = 4;
    'fidelity' -> (1/2) (N-2) / ((N-1) (1 - 2^-N)).  psixy noise: 'theorem2'
    -> 1 (detection for every p < 1).  Other pairs have only the numeric route.
    """
    # thresholds are those of |N/2,N>, whose overlap bound N/(2(N-1)) holds from N = 4
    _check_kind(kind, _check_int(n, "n", 4 if kind == "fidelity" else 2, even=True), noise)
    if (kind, noise) not in _CLOSED_THRESHOLDS:
        raise DomainError(f"no closed {noise}-noise threshold for kind {kind!r}")
    return _CLOSED_THRESHOLDS[kind, noise](n)


def collective_threshold_numeric(n: int, kind: str, noise: str = "white") -> float:
    """Noise threshold found by root-finding the verdict margin over p in [0,1].

    Works for every pair a kind judges, independent of the closed formulas:
    it builds the noisy state and judges it at each probe.  'crit2' takes the
    shift 0 and 'fidelity' the excitation count N/2, those of |N/2,N>.
    """
    _check_kind(kind, _check_int(n, "n", 4 if kind == "fidelity" else 2, even=True), noise)
    target = dicke_state(n, n // 2)
    m = n // 2 if kind == "fidelity" else 0

    def margin(p: float) -> float:
        rho = white_noise_mix(target, p) if noise == "white" else psixy_noise_mix(n, p)
        return criterion_verdict(rho, kind, m).margin

    return _margin_crossing(margin)


def fidelity_threshold_numeric(n: int) -> float:
    """The white-noise threshold of the fidelity witness on |N/2,N>, by root-finding."""
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
