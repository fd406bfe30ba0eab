"""Full-scale acceptance checks: every documented bound verified end to end.

Each criterion function runs one battery (closed forms vs. independent numeric
routes, soundness sweeps over seeded random states, noise thresholds by
root-finding, backend equivalence) and writes one detail line per sub-check;
``_battery`` registers it once with its report name and budget.  ``run_all``
drives them; the CLI ``selftest`` subcommand and the acceptance test module
are thin wrappers around it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from math import comb, sqrt

import numpy as np

from .collective import (
    _CLOSED_THRESHOLDS,
    GENUINE3_BOUND,
    GENUINE4_BOUND,
    collective_noise_threshold,
    collective_threshold_numeric,
    criterion_verdict,
    dicke_fidelity_bound,
    lemma1_bound,
    lemma2_eigenvalues,
    lemma2_operators,
    lemma2_vector_norm,
    maximize_over_ti_product,
    superradiance_intensity,
    theorem2_bound,
    theorem3_eigenvalues,
    theorem3_operators,
    theorem3_partition_bounds,
    ti_objective,
)
from .errors import _check_int
from .oracle import (
    max_biseparable_overlap,
    max_eigenvalue,
    maximize_over_biseparable,
    maximize_over_product_states,
    sample_random_states,
    verify_appendix_inequality,
)
from .states import (HermitianOperator, PureState, QuadraticForm, collective_operator, dicke_state, dicke_symmetric,
                     expectation, psixy_noise_mix)

_XY = QuadraticForm(a=(1.0, 1.0, 0.0))


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    elapsed_s: float
    details: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        return [d for d in self.details if d.startswith("FAIL")]


class _Checks:
    def __init__(self):
        self.details: list[str] = []
        self.ok = True

    def check(self, label: str, passed: bool, detail: str = ""):
        tag = "ok  " if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        self.details.append(f"{tag} {label}{suffix}")
        self.ok = self.ok and passed

    def close(self, label: str, got: float, want: float, atol: float):
        self.check(
            f"{label} = {got:.12g} vs {want:.12g} (atol {atol:g})",
            abs(got - want) <= atol,
            f"diff {abs(got - want):.3g}",
        )


def _check_converged(checks: _Checks, label: str, results) -> None:
    """Every search's best restart stopped on CONVERGENCE_TOL, not on the sweep cap."""
    short = sum(not r.converged for r in results)
    most = max(max(r.sweeps) for r in results)
    checks.check(f"{label}: best restart converged in {len(results) - short}/{len(results)} "
                 f"searches (most sweeps by any restart {most})", short == 0)


ALL_CRITERIA: list = []  # the batteries in report order, each numbered by its place


def _battery(name: str, budget_s: float):
    """Register a battery ``fill(checks)`` as the next criterion: the registered
    callable runs it on a fresh ``_Checks``, times it, checks the runtime
    against ``budget_s`` last and returns the CheckResult."""
    def register(fill):
        number = len(ALL_CRITERIA) + 1

        @functools.wraps(fill)
        def criterion() -> CheckResult:
            checks = _Checks()
            t0 = time.perf_counter()
            fill(checks)
            elapsed = time.perf_counter() - t0
            checks.check(f"runtime {elapsed:.2f}s < {budget_s:g}s", elapsed < budget_s)
            return CheckResult(number, name, checks.ok, elapsed, checks.details)

        ALL_CRITERIA.append(criterion)
        return criterion
    return register


# ---------------------------------------------------------------------------

@_battery("fidelity bounds: closed form vs SVD sweep", budget_s=3.0)
def criterion_01_fidelity_bounds(c: _Checks) -> None:
    """Overlap bound N/(2(N-1)) by formula, exact enumeration, and SVD sweep."""
    for n in (4, 6, 8):
        t_n = time.perf_counter()
        formula = n / (2.0 * (n - 1))
        c.close(f"exact bound n={n}", dicke_fidelity_bound(n, n // 2), formula, 1e-10)
        c.close(f"svd bound n={n}", max_biseparable_overlap(dicke_state(n, n // 2)), formula, 1e-10)
        per_n = time.perf_counter() - t_n
        c.check(f"n={n} computed in {per_n:.3f}s < 1s", per_n < 1.0)


@_battery("biseparable overlap of the |2,4> projector", budget_s=10.0)
def criterion_02_biseparable_overlap(c: _Checks) -> None:
    """Biseparable optimizer on the half-excited Dicke projector hits 2/3."""
    target = dicke_state(4, 2).amplitudes
    projector = HermitianOperator(np.outer(target, target.conj()))
    search = maximize_over_biseparable(projector, restarts=64, seed=0)
    value = search.value
    c.check(
        f"optimizer overlap {value:.12g} within [2/3 - 1e-3, 2/3 + 1e-9]",
        2.0 / 3.0 - 1e-3 <= value <= 2.0 / 3.0 + 1e-9,
    )
    _check_converged(c, "biseparable overlap search", [search])


@_battery("separable bound sharpness and soundness", budget_s=60.0)
def criterion_03_separable_sharpness_soundness(c: _Checks) -> None:
    """Product optimizer attains the separable bound; no sample exceeds it."""
    op4 = collective_operator(4, _XY)
    attained = maximize_over_product_states(op4, restarts=64, seed=0)
    c.close("product max of <Jx^2 + Jy^2> at n=4", attained.value, 5.0, 1e-6)
    _check_converged(c, "product max at n=4", [attained])
    for n in range(2, 9):
        bound = theorem2_bound(n)
        op = collective_operator(n, _XY)
        worst = -np.inf
        for state in sample_random_states("product", n, 10_000, seed=300 + n):
            worst = max(worst, expectation(state, op))
        c.check(
            f"n={n}: worst of 10^4 product samples {worst:.12g} <= bound {bound:g} + 1e-9",
            worst <= bound + 1e-9,
        )


@_battery("genuine-multipartite bounds", budget_s=120.0)
def criterion_04_genuine_multipartite_bounds(c: _Checks) -> None:
    """Biseparable maxima at 3 and 4 qubits, Dicke attainment, sample soundness."""
    op3 = collective_operator(3, _XY)
    op4 = collective_operator(4, _XY)
    searches = [maximize_over_biseparable(op, restarts=64, seed=0) for op in (op3, op4)]
    c.close("biseparable max n=3", searches[0].value, GENUINE3_BOUND, 1e-6)
    c.close("biseparable max n=4", searches[1].value, GENUINE4_BOUND, 1e-6)
    # the splits run in size order, so the n=4 restarts past the first 64 are its 2|2 ones
    split22, cap = max(searches[1].values[64:]), theorem3_partition_bounds().split22_bound
    c.check(f"n=4: best 2|2 restart {split22:.12g} <= Theorem 3 2|2 cap {cap:.12g} + 1e-9", split22 <= cap + 1e-9)
    _check_converged(c, "biseparable maxima at n=3, 4", searches)
    # Attainment.  Jx^2 + Jy^2 = J^2 - Jz^2, and for odd N every state has
    # <Jz^2> >= 1/4, so the three-qubit spectrum tops out at
    # (3/2)(5/2) - 1/4 = 7/2, reached by |1,3> and |2,3>.  Dense
    # diagonalization is the independent route to that maximum.
    top_3q = max_eigenvalue(op3)
    for m in (1, 2):
        value = expectation(dicke_state(3, m), op3)
        c.close(f"<{m},3|Jx^2+Jy^2|{m},3>", value, 3.5, 1e-12)
        c.close(f"<{m},3|Jx^2+Jy^2|{m},3> vs spectrum maximum", value, top_3q, 1e-12)
    c.close("<2,4|Jx^2+Jy^2|2,4>", expectation(dicke_state(4, 2), op4), 6.0, 1e-12)
    for n, bound, op in ((3, GENUINE3_BOUND, op3), (4, GENUINE4_BOUND, op4)):
        worst = -np.inf
        for state in sample_random_states("biseparable", n, 10_000, seed=400 + n):
            worst = max(worst, expectation(state, op))
        c.check(
            f"n={n}: worst of 10^4 biseparable samples {worst:.12g} <= bound {bound:.12g} + 1e-9",
            worst <= bound + 1e-9,
        )


@_battery("analytic eigenvalue families", budget_s=5.0)
def criterion_05_eigenvalue_formulas(c: _Checks) -> None:
    """Analytic spectra match dense diagonalization; maxima confirmed."""
    rng = np.random.default_rng(500)
    m1, m2, m3 = (op.matrix for op in lemma2_operators())
    worst = 0.0
    for _ in range(100):
        nvec = rng.normal(size=3)
        nvec /= np.linalg.norm(nvec)
        dense = np.sort(np.linalg.eigvalsh(nvec[0] * m1 + nvec[1] * m2 + nvec[2] * m3))
        analytic = np.sort(lemma2_eigenvalues(nvec))
        worst = max(worst, np.abs(dense - analytic).max())
    c.check(f"pair family: 100 draws vs dense, worst diff {worst:.3g} <= 1e-10", worst <= 1e-10)
    qx, qy, r = (op.matrix for op in theorem3_operators())
    worst = 0.0
    for _ in range(100):
        radius = rng.uniform(0.0, 1.0)
        angle = rng.uniform(0.0, 2 * np.pi)
        x1, y1 = radius * np.cos(angle), radius * np.sin(angle)
        dense = np.sort(np.linalg.eigvalsh(x1 * qx + y1 * qy + r))
        analytic = np.sort(theorem3_eigenvalues(radius))
        worst = max(worst, np.abs(dense - analytic).max())
    c.check(f"triple family: 100 draws vs dense, worst diff {worst:.3g} <= 1e-10", worst <= 1e-10)

    # maxima: sup over unit directions is sqrt(16/3); at X = 1 it is 3 + 2 sqrt(3)
    n1_grid = np.linspace(-1.0, 1.0, 20001)
    tops = n1_grid + np.sqrt(n1_grid ** 2 + 4 * (1 - n1_grid ** 2))
    c.check(
        f"pair maximum sup {tops.max():.12g} <= sqrt(16/3) = {sqrt(16 / 3):.12g}",
        tops.max() <= sqrt(16.0 / 3.0) + 1e-12,
    )
    best_dir = np.array([1.0 / sqrt(3.0), sqrt(2.0 / 3.0), 0.0])
    c.close("pair maximum attained at n1 = 1/sqrt(3)",
            lemma2_eigenvalues(best_dir).max(), sqrt(16.0 / 3.0), 1e-12)
    c.close("triple maximum at X=1",
            theorem3_eigenvalues(1.0).max(), 3.0 + 2.0 * sqrt(3.0), 1e-12)


@_battery("noise thresholds by root-finding", budget_s=10.0)
def criterion_06_noise_thresholds(c: _Checks) -> None:
    """Root-finding on verdict margins reproduces every closed-form threshold."""
    c.close("fidelity threshold n=4 (closed)", collective_noise_threshold(4, "fidelity"), 16.0 / 45.0, 1e-12)
    for kind, noise in _CLOSED_THRESHOLDS:
        for n in (4,) if kind == "genuine4" else (4, 6, 8):
            c.close(f"{kind} threshold n={n}, {noise} noise (numeric vs closed)",
                    collective_threshold_numeric(n, kind, noise),
                    collective_noise_threshold(n, kind, noise), 1e-9)
    verdict = criterion_verdict(psixy_noise_mix(4, 0.999), "theorem2")
    c.check(
        f"psixy noise at p = 0.999 still detected (margin {verdict.margin:.3g})",
        verdict.detected == "entangled",
    )


@_battery("overlap-bound combinatorics, exact arithmetic", budget_s=1.0)
def criterion_07_appendix_combinatorics(c: _Checks) -> None:
    """Exhaustive integer verification of the overlap-bound inequality."""
    for n in range(4, 21, 2):
        report = verify_appendix_inequality(n)  # raises on any violation
        c.check(
            f"n={n}: argmax {report.argmax}, max {report.max_value} == 2 C({n - 2},{n // 2 - 1})",
            report.argmax == (2, 1) and report.max_value == 2 * comb(n - 2, n // 2 - 1),
        )


@_battery("two-qubit planar moment bound 16/3", budget_s=30.0)
def criterion_08_pair_moment_bound(c: _Checks) -> None:
    """10^5 random two-qubit states obey the 16/3 bound; it is attainable."""
    worst = -np.inf
    for rho in sample_random_states("density", 2, 100_000, seed=800):
        worst = max(worst, lemma2_vector_norm(rho))
    c.check(f"worst |v|^2 over 10^5 samples {worst:.12g} <= 16/3 + 1e-9",
            worst <= 16.0 / 3.0 + 1e-9)
    m1, m2, m3 = (op.matrix for op in lemma2_operators())
    direction = np.array([1.0 / sqrt(3.0), sqrt(2.0 / 3.0), 0.0])
    _vals, vecs = np.linalg.eigh(direction[0] * m1 + direction[1] * m2 + direction[2] * m3)
    attained = lemma2_vector_norm(PureState(2, vecs[:, -1]))
    c.check(f"optimal eigenstate attains {attained:.12g} >= 16/3 - 1e-6",
            attained >= 16.0 / 3.0 - 1e-6)


@_battery("separable maximization reduces to tensor powers", budget_s=120.0)
def criterion_09_separable_reduction(c: _Checks) -> None:
    """Full product search agrees with the single-Bloch-vector search; the
    J^2-minimization counterexample shows the reduction is max-only."""
    rng = np.random.default_rng(900)
    forms = []
    for i in range(20):
        a = tuple(rng.uniform(0.0, 2.0, size=3))
        b = (0.0, 0.0, 0.0) if i < 10 else tuple(rng.uniform(-2.0, 2.0, size=3))
        forms.append(QuadraticForm(a=a, b=b))
    worst_gap = 0.0
    worst_excess = -np.inf
    searches = []
    for n in range(2, 7):
        for form in forms:
            op = collective_operator(n, form)
            searches.append(maximize_over_product_states(op, restarts=64, seed=0))
            prod = searches[-1].value
            ti = maximize_over_ti_product(form, n).value
            worst_gap = max(worst_gap, abs(prod - ti))
            if form.is_linear_free:
                bound = lemma1_bound(form, n)
                worst_excess = max(worst_excess, prod - bound, ti - bound)
    c.check(f"product vs tensor-power maxima: worst gap {worst_gap:.3g} <= 1e-6",
            worst_gap <= 1e-6)
    c.check(f"no route exceeds the closed bound: worst excess {worst_excess:.3g} <= 1e-9",
            worst_excess <= 1e-9)

    # minimizing J^2 over two-qubit product states is NOT a tensor-power
    # problem: the optimum is an anti-aligned pair with <J^2> = 1, strictly
    # below the tensor-power value 2.
    total_spin = QuadraticForm(a=(1.0, 1.0, 1.0))
    j2 = collective_operator(2, total_spin)
    neg = HermitianOperator(-j2.matrix)
    res = maximize_over_product_states(neg, restarts=64, seed=0)
    min_product = -res.value
    _check_converged(c, "product maxima of the 100 forms and of -J^2", searches + [res])
    thetas, phis = np.meshgrid(np.linspace(0, np.pi, 181), np.linspace(0, 2 * np.pi, 181), indexing="ij")
    grid = 0.5 * np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis), np.cos(thetas)], -1)
    ti_min = float(ti_objective(total_spin, 2, grid).min())
    c.close("two-qubit product minimum of <J^2>", min_product, 1.0, 1e-6)
    c.check(f"tensor-power minimum {ti_min:.12g} strictly above product minimum",
            min_product < ti_min - 0.5)
    s1, s2 = res.argument.vectors
    c.check(f"optimal Bloch vectors anti-aligned (|s1 + s2| = {np.linalg.norm(s1 + s2):.3g})",
            np.linalg.norm(s1 + s2) <= 1e-4)


@_battery("backend equivalence and superradiant scaling", budget_s=5.0)
def criterion_10_backends_and_superradiance(c: _Checks) -> None:
    """Dense and symmetric-sector backends agree; intensity scales as N^2/4."""
    generic = QuadraticForm(a=(0.3, 1.1, 0.7), b=(0.2, -0.4, 0.9))
    probes = ["x", "y", "z", _XY, QuadraticForm(a=(1.0, 1.0, 1.0)), generic]
    worst = 0.0
    for n in range(1, 11):
        for m in range(n + 1):
            dense = dicke_state(n, m)
            sector = dicke_symmetric(n, m)
            for op in probes:
                worst = max(worst, abs(expectation(dense, op) - expectation(sector, op)))
    c.check(f"backend agreement on all Dicke states n <= 10: worst diff {worst:.3g} <= 1e-10",
            worst <= 1e-10)
    worst = 0.0
    for n in range(2, 101, 2):
        intensity = superradiance_intensity(dicke_symmetric(n, n // 2), i0=1.0)
        worst = max(worst, abs(intensity - (n / 2.0) * (n / 2.0 + 1.0)))
    c.check(f"superradiant scaling I/I0 = (N/2)(N/2+1) up to N=100: worst diff {worst:.3g}",
            worst <= 1e-10)


def run_all(only: int | None = None) -> list[CheckResult]:
    """Every battery in order, or battery ``only`` (1 to len(ALL_CRITERIA)) alone."""
    if only is None:
        return [fn() for fn in ALL_CRITERIA]
    return [ALL_CRITERIA[_check_int(only, "only", 1, len(ALL_CRITERIA)) - 1]()]


def format_report(results: list[CheckResult], verbose: bool = False) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"criterion {r.criterion:02d}  {status}  {r.elapsed_s:7.2f}s  {r.name}")
        shown = r.details if verbose else r.failures
        lines.extend(f"    {d}" for d in shown)
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
