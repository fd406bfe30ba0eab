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
from fractions import Fraction
from math import comb

import numpy as np

from .errors import DomainError, InvariantViolationError, _check_int
from .states import (
    Bipartition,
    DensityMatrix,
    Mixture,
    PureState,
    SymmetricState,
    _dicke_amplitudes,
    dicke_state,
    schmidt_spectrum,
)


def dicke_fidelity_bound(n: int, m: int, method: str = "exact") -> float:
    """Maximal squared overlap of |m,N> with biseparable pure states.

    method='exact' takes the closed-form squared Schmidt coefficients
    C(N1,k) C(N-N1,m-k) / C(N,m) in exact integer arithmetic; each row in k is
    hypergeometric, so only its mode k = floor((N1+1)(m+1)/(N+2)) is taken (a
    tie leaves k - 1 with the same value).  method='svd' sweeps all split sizes
    with a dense singular value decomposition.  The two must agree to tight
    tolerance, which the test suite enforces.
    """
    _check_int(n, "n", 2)  # a bipartition needs two qubits
    _check_int(m, "excitation count m", 0, n)
    if method == "exact":
        best = 0
        for n1 in range(1, n // 2 + 1):
            k = (n1 + 1) * (m + 1) // (n + 2)  # a mode of the row, always a valid k
            best = max(best, comb(n1, k) * comb(n - n1, m - k))
        return float(Fraction(best, comb(n, m)))
    if method == "svd":
        state = dicke_state(n, m)
        best = 0.0
        # permutation invariance: only the split size matters
        for n1 in range(1, n // 2 + 1):
            split = Bipartition(n, tuple(range(1, n1 + 1)))
            best = max(best, float(schmidt_spectrum(state, split)[0]))
        return best
    raise DomainError(f"method must be 'exact' or 'svd', got {method!r}")


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
        ratio = Fraction(h_values[n1 - 1], h_values[n1 - 3])
        closed = Fraction((n1 - 1) * (n - n1 + 2), n1 * (n - n1 + 1))
        if ratio != closed:
            raise InvariantViolationError(
                f"even split-size ratio mismatch for n = {n}, N1 = {n1}: "
                f"h ratio {ratio} != {closed}"
            )
        if ratio > 1:
            raise InvariantViolationError(
                f"split-size maxima not decreasing for n = {n}, N1 = {n1}: ratio {ratio} > 1"
            )
    return AppendixReport(int(n), table, (2, 1), h_values)
