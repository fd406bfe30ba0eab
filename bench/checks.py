"""Expected values and output checks for the benchmark's jobs.

Nothing here imports dickekit. Every expected value is a closed form from the
paper, evaluated in plain floating point or exact integers, or a property the
method must have, so no check can pass because the program agrees with
itself. A failed check raises ``CheckError``; the job counts as failed and the
run as incorrect.
"""

from __future__ import annotations

import math

ENTANGLED = "entangled"
GENUINE = "genuine_multipartite"
NONE = "none"

GENUINE3_BOUND = 2.0 + math.sqrt(5.0) / 2.0   # biseparable max of Jx^2+Jy^2, n = 3
GENUINE4_BOUND = 3.5 + math.sqrt(3.0)         # biseparable max of Jx^2+Jy^2, n = 4
LEMMA2_BOUND = 16.0 / 3.0                     # <M1>^2 + <M2>^2 + <M3>^2 on two qubits

VALUE_RTOL = 1e-9       # closed-form values, relative to max(1, |expected|)
SOLVER_RTOL = 1e-8      # values found by the single-Bloch-vector solver
ORACLE_ATOL = 1e-6      # maxima found by alternating updates
SOUNDNESS_ATOL = 1e-9   # sampled states may exceed a bound by this much


class CheckError(Exception):
    """An output of the program differs from its independent expected value."""


def close(what: str, got, want: float, rtol: float = VALUE_RTOL, atol: float = 0.0) -> None:
    """Fail unless ``got`` is a finite number within tolerance of ``want``."""
    try:
        got = float(got)
    except (TypeError, ValueError):
        raise CheckError(f"{what}: {got!r} is not a number") from None
    if not math.isfinite(got) or abs(got - want) > atol + rtol * max(1.0, abs(want)):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def at_most(what: str, got: float, limit: float, atol: float) -> None:
    if not math.isfinite(got) or got > limit + atol:
        raise CheckError(f"{what}: {got!r} exceeds {limit!r}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def max_spin(n: int) -> float:
    """J(J+1) with J = N/2: the largest <J^2>, reached by every symmetric state."""
    return (n / 2.0) * (n / 2.0 + 1.0)


def theorem2_bound(n: int) -> float:
    """Separable bound on <Jx^2> + <Jy^2>: (N/2)(N/2 + 1/2)."""
    return (n / 2.0) * (n / 2.0 + 0.5)


def fidelity_bound_half(n: int) -> float:
    """Biseparable overlap bound of |N/2,N>: N / (2(N-1))."""
    return n / (2.0 * (n - 1))


def fidelity_threshold(n: int) -> float:
    """White-noise ratio where the fidelity witness stops detecting |N/2,N>."""
    return (n - 2) / (2.0 * (n - 1) * (1.0 - 2.0 ** (-n)))


def collective_threshold(n: int) -> float:
    """White-noise ratio where the theorem2 criterion stops detecting |N/2,N>."""
    return 1.0 / n


def noisy_moments(n: int, noise: str, p: float) -> tuple[float, float, float]:
    """(fidelity with |N/2,N>, <Jx^2+Jy^2>, Var(Jx)+Var(Jy)) of the noisy
    half-excited Dicke state.  The mixtures are affine in p, and the
    identity's moments are Tr(J_l^2)/2^N = N/4 and Tr(J_l)/2^N = 0."""
    pure = max_spin(n)
    if noise == "white":
        fidelity = (1.0 - p) + p * 2.0 ** (-n)
        xy = (1.0 - p) * pure + p * n / 2.0
        return fidelity, xy, xy
    # psixy: the equatorial product state has <Jx> = -N/2 at phi = 0
    fidelity = (1.0 - p) + p * math.comb(n, n // 2) / 2.0 ** n
    xy = (1.0 - p) * pure + p * theorem2_bound(n)
    return fidelity, xy, xy - (p * n / 2.0) ** 2


def product_max(a, n: int) -> float:
    """Lemma 1 for forms without linear terms: sum(a) N/4 + max(a) (N/2)(N/2 - 1/2)."""
    return sum(a) * n / 4.0 + max(a) * (n / 2.0) * (n / 2.0 - 0.5)


def xy_biseparable_max(n: int) -> float:
    return {3: GENUINE3_BOUND, 4: GENUINE4_BOUND}[n]


def xy_top_eigenvalue(n: int) -> float:
    """Largest eigenvalue of Jx^2 + Jy^2 = J^2 - Jz^2: J(J+1) less 1/4 for odd N."""
    return max_spin(n) - (0.25 if n % 2 else 0.0)


def crit2_bound(n: int, shift: int) -> float:
    """Separable maximum of <Jx^2 + Jy^2 - 2 m Jz> for |m| <= (N-1)/2."""
    return n / 2.0 + n * (n - 1) / 4.0 + n * shift * shift / (n - 1.0)


def appendix_max(n: int) -> int:
    """Largest C(N1,k) C(N-N1,N/2-k): 2 C(N-2, N/2-1), at (N1, k) = (2, 1)."""
    return 2 * math.comb(n - 2, n // 2 - 1)


# ---------------------------------------------------------------------------
# checks on program outputs
# ---------------------------------------------------------------------------

def verdict(what: str, v, value: float, bound: float, positive: str,
            rtol: float = VALUE_RTOL, atol: float = 0.0) -> None:
    """A verdict (anything with value/bound/margin/detected) against its
    expected value and bound.  The margin must be value - bound, and the
    positive class must be reported exactly when the margin is positive."""
    close(f"{what} value", v.value, value, rtol, atol)
    close(f"{what} bound", v.bound, bound, rtol, atol)
    close(f"{what} margin", v.margin, v.value - v.bound, 1e-12)
    expected = positive if v.margin > 0 else NONE
    if v.detected != expected:
        raise CheckError(f"{what}: detected {v.detected!r} with margin {v.margin!r}")


def noisy_mixture(n: int, noise: str, p: float, fidelity, theorem2, variance, jz: float) -> None:
    want_fid, want_xy, want_var = noisy_moments(n, noise, p)
    verdict("fidelity", fidelity, want_fid, fidelity_bound_half(n), GENUINE)
    verdict("theorem2", theorem2, want_xy, theorem2_bound(n), ENTANGLED)
    verdict("variance", variance, want_var, theorem2_bound(n), ENTANGLED)
    close("<Jz>", jz, 0.0, atol=VALUE_RTOL * max_spin(n))


def product_maximum(n: int, a, value: float) -> None:
    close(f"product max n={n} a={a}", value, product_max(a, n), 0.0, ORACLE_ATOL)


def ordering(n: int, product: float, biseparable: float, top: float) -> None:
    """Product <= biseparable <= top eigenvalue, each at its closed form."""
    product_maximum(n, (1.0, 1.0, 0.0), product)
    close(f"biseparable max n={n}", biseparable, xy_biseparable_max(n), 0.0, ORACLE_ATOL)
    top_eigenvalue(n, top)
    at_most(f"product max n={n}", product, biseparable, SOUNDNESS_ATOL)
    at_most(f"biseparable max n={n}", biseparable, top, SOUNDNESS_ATOL)


def top_eigenvalue(n: int, top: float) -> None:
    close(f"top eigenvalue n={n}", top, xy_top_eigenvalue(n))


def soundness(what: str, values, bound: float) -> None:
    if not values:
        raise CheckError(f"{what}: no samples")
    for i, x in enumerate(values):
        at_most(f"{what} sample {i}", x, bound, SOUNDNESS_ATOL)


def symmetric_state(n: int, m: int | None, intensity: float, theorem2, variance,
                    jz_verdict, jz: float) -> None:
    """Dicke |m,N> (m given) or psixy (m None, no symmetric_jz verdict) on
    the symmetric backend.

    Dicke, with z = m - N/2: I = J(J+1) - z^2 + z, <Jx^2+Jy^2> = J(J+1) - z^2,
    N/4 - <Jz^2> = N/4 - z^2.  psixy: <Jx^2+Jy^2> = (N/2)(N/2+1/2), the
    variance sum is N/4, and <Jz> = 0.
    """
    if m is None:
        z, xy, var = 0.0, theorem2_bound(n), n / 4.0
    else:
        z = m - n / 2.0
        xy = var = max_spin(n) - z * z
    atol = VALUE_RTOL * max_spin(n)  # the moments are differences of terms of size J(J+1)
    close("intensity", intensity, xy + z, 0.0, atol)
    verdict("theorem2", theorem2, xy, theorem2_bound(n), ENTANGLED, 0.0, atol)
    verdict("variance", variance, var, theorem2_bound(n), ENTANGLED, 0.0, atol)
    if m is not None:
        verdict("symmetric_jz", jz_verdict, n / 4.0 - z * z, 0.0, ENTANGLED, 0.0, atol)
    close("<Jz>", jz, z, 0.0, atol)


def crit2(n: int, m: int, shift: int, v) -> None:
    """crit2(shift) on the symmetric Dicke state |m,N>."""
    z = m - n / 2.0
    verdict(f"crit2(m={shift})", v, max_spin(n) - z * z - 2.0 * shift * z, crit2_bound(n, shift),
            ENTANGLED, SOLVER_RTOL)


def dicke_amplitudes(n: int, m: int, amplitudes) -> None:
    """Weight 1/sqrt(C(N,m)) on every label with m excited qubits, 0 elsewhere."""
    if len(amplitudes) != 2 ** n:
        raise CheckError(f"dicke: {len(amplitudes)} amplitudes, expected {2 ** n}")
    weight = 1.0 / math.sqrt(math.comb(n, m))
    for index, (re, im) in enumerate(amplitudes):
        want = weight if bin(index).count("1") == m else 0.0
        close(f"dicke amplitude {index}", re, want, 1e-15)
        close(f"dicke amplitude {index} (imag)", im, 0.0, 1e-15)


def appendix(n: int, doc: dict) -> None:
    if doc.get("n") != n or doc.get("argmax") != [2, 1] or doc.get("ok") is not True:
        raise CheckError(f"verify-appendix n={n}: unexpected document {doc}")
    if doc.get("max_value") != appendix_max(n):
        raise CheckError(f"verify-appendix n={n}: max_value {doc.get('max_value')}, "
                         f"expected {appendix_max(n)}")
