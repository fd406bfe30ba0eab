"""The overlap bound and the Dicke fidelity behind the fidelity witness.

The biseparable bound for the overlap with a target pure state is the largest
squared Schmidt coefficient of the target over all bipartitions.  For the
half-excited Dicke state |N/2,N> (even N >= 4) that maximum sits at the split
with two qubits on one side and equals N / (2(N-1)); for the one-excitation
state |1,N> it is (N-1)/N.  Any state whose Dicke fidelity exceeds the bound
is genuinely N-partite entangled: ``criterion_verdict`` kind 'fidelity'.
``verify_appendix_inequality`` checks the bound's combinatorics exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, lgamma

import numpy as np

from .errors import InvariantViolationError, _check_int
from .states import DensityMatrix, Mixture, PureState, SymmetricState, _dicke_amplitudes


def dicke_fidelity_bound(n: int, m: int) -> float:
    """Maximal squared overlap of |m,N> with biseparable pure states: the
    largest closed-form squared Schmidt coefficient C(N1,k) C(N-N1,m-k) / C(N,m)
    (``_exact_bound``).  ``oracle.max_biseparable_overlap`` is the independent
    SVD route to the same number, which the test suite holds it to."""
    _check_int(n, "n", 2)  # a bipartition needs two qubits
    _check_int(m, "excitation count m", 0, n)
    return _exact_bound(n, m)


@lru_cache(maxsize=256)
def _exact_bound(n: int, m: int) -> float:
    """The largest C(N1,k) C(N-N1,m-k) / C(N,m), kept per (N, m): a noise sweep
    asks for the same bound at every point.  Each row in k is hypergeometric,
    so only its mode k = floor((N1+1)(m+1)/(N+2)) is taken (a tie leaves k - 1
    with the same value).  The modes are ranked in log space by lgamma, and
    only those within 1e-9 relative of the top, far beyond lgamma's error, are
    compared in exact integers; the quotient of two ints is correctly rounded."""
    n1 = np.arange(1, n // 2 + 1)
    k = (n1 + 1) * (m + 1) // (n + 2)  # a mode of each row, always a valid k
    log_fact = np.array([lgamma(i + 1.0) for i in range(n + 1)])
    log_g = (log_fact[n1] - log_fact[k] - log_fact[n1 - k]
             + log_fact[n - n1] - log_fact[m - k] - log_fact[n - n1 - m + k])
    near = np.flatnonzero(log_g >= log_g.max() - 1e-9)
    best = max(comb(a, b) * comb(n - a, m - b) for a, b in zip(n1[near].tolist(), k[near].tolist()))
    return best / comb(n, m)


def _dicke_fidelity(state: "PureState | SymmetricState | Mixture | DensityMatrix", m: int) -> float:
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


# ---------------------------------------------------------------------------
# combinatorial verification of the overlap bound
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
