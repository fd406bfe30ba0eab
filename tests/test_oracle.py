import ast
import dataclasses
import os
import re
import subprocess
import sys
from math import atan, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickekit as dk
from dickekit import collective, config, oracle
from dickekit.collective import ti_objective


def test_max_eigenvalue_examples():
    assert dk.max_eigenvalue(dk.collective_operator(5, "z")) == pytest.approx(2.5, abs=1e-12)
    op = dk.collective_operator(4, dk.QuadraticForm(a=(1, 1, 0)))
    assert dk.max_eigenvalue(op) == pytest.approx(6.0, abs=1e-10)
    qx, _qy, r = (op.matrix for op in dk.theorem3_operators())
    combo = dk.HermitianOperator(qx + r)  # x1 Qx + y1 Qy + R at (x1, y1) = (1, 0)
    assert dk.max_eigenvalue(combo) == pytest.approx(3 + 2 * sqrt(3), abs=1e-10)


@pytest.mark.parametrize("oracle_call", [dk.max_eigenvalue, dk.maximize_over_product_states,
                                         dk.maximize_over_biseparable])
def test_oracles_take_only_a_hermitian_operator_on_qubits(oracle_call):
    op = dk.collective_operator(2, dk.QuadraticForm(a=(1, 1, 0)))
    with pytest.raises(dk.DomainError, match="op must be a HermitianOperator, got ndarray"):
        oracle_call(np.array(op.matrix))  # the checks a raw array would skip live in HermitianOperator
    for dim in (0, 1, 3, 6):  # a 1 x 1 operator once crashed the product search
        with pytest.raises(dk.DomainError, match=re.escape(f"operator dimension {dim} is not 2^n")):
            oracle_call(dk.HermitianOperator(np.eye(dim)))


@pytest.mark.parametrize("search", [dk.maximize_over_product_states, dk.maximize_over_biseparable])
def test_searches_take_restarts_and_seed_by_keyword_only(search):
    # the qubit count comes from the operator, and a positional 3 is no silent restart count
    op = dk.collective_operator(2, dk.QuadraticForm(a=(1, 1, 0)))
    for call in (lambda: search(op, 3), lambda: search(op, 3, 0), lambda: search(op, n=2)):
        with pytest.raises(TypeError):
            call()


def test_product_max_attains_separable_bounds():
    op = dk.collective_operator(4, dk.QuadraticForm(a=(1, 1, 0)))
    assert dk.maximize_over_product_states(op, seed=0).value == pytest.approx(5.0, abs=1e-6)
    op = dk.collective_operator(3, dk.QuadraticForm(a=(0, 0, 1)))
    assert dk.maximize_over_product_states(op, seed=0).value == pytest.approx(2.25, abs=1e-9)
    op = dk.collective_operator(4, dk.QuadraticForm(a=(1, 1, 1)))
    assert dk.maximize_over_product_states(op, seed=0).value == pytest.approx(6.0, abs=1e-6)


def test_product_max_is_deterministic():
    op = dk.collective_operator(3, dk.QuadraticForm(a=(1, 1, 0)))
    first = dk.maximize_over_product_states(op, restarts=8, seed=11)
    second = dk.maximize_over_product_states(op, restarts=8, seed=11)
    assert first.value == second.value
    assert np.array_equal(first.argument.vectors, second.argument.vectors)


def test_product_max_value_matches_its_argument():
    op = dk.collective_operator(3, dk.QuadraticForm(a=(0.7, 1.3, 0.2), b=(0.1, 0, -0.4)))
    result = dk.maximize_over_product_states(op, restarts=16, seed=3)
    rebuilt = result.argument.to_state()
    assert dk.expectation(rebuilt, op) == pytest.approx(result.value, abs=1e-10)


def test_alternating_updates_are_monotone():
    op = dk.collective_operator(4, dk.QuadraticForm(a=(1, 1, 0)))
    result = dk.maximize_over_product_states(op, restarts=8, seed=5)
    history = result.history
    assert len(history) in result.sweeps and len(history) >= 2
    assert history[-1] == result.value
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))


def _serial_product_max(mat, n, seed, r):
    """One restart run alone: each qubit in turn set to the top eigenvector of
    its 2x2 effective operator, built from an explicit Kronecker basis."""
    rng = np.random.default_rng([seed, r])
    qubits = []
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        qubits.append(v / np.linalg.norm(v))
    value = -np.inf
    for _sweep in range(2000):
        for k in range(n):
            left = np.array([1.0 + 0j])
            for q in qubits[:k]:
                left = np.kron(left, q)
            right = np.array([1.0 + 0j])
            for q in qubits[k + 1:]:
                right = np.kron(right, q)
            basis = np.kron(np.kron(left[:, None], np.eye(2)), right[:, None])
            vals, vecs = np.linalg.eigh(basis.conj().T @ mat @ basis)
            qubits[k] = vecs[:, -1]
        gain, value = vals[-1] - value, vals[-1]
        if gain <= config.CONVERGENCE_TOL * max(np.abs(mat).max(), abs(value)):
            return value, _sweep + 1
    return value, None


def _serial_bisep_max(w, seed, r):
    """One restart on one split run alone: alternate exact updates of the two sides."""
    d_a, d_b = w.shape[:2]
    rng = np.random.default_rng([seed, r])
    a = rng.normal(size=d_a) + 1j * rng.normal(size=d_a)
    b = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    value = -np.inf
    for sweep in range(2000):
        a = np.linalg.eigh(np.einsum("ijkl,j,l->ik", w, b.conj(), b))[1][:, -1]
        vals, vecs = np.linalg.eigh(np.einsum("ijkl,i,k->jl", w, a.conj(), a))
        b = vecs[:, -1]
        gain, value = vals[-1] - value, vals[-1]
        if gain <= config.CONVERGENCE_TOL * max(np.abs(w).max(), abs(value)):
            return value, sweep + 1
    return value, None


_FORMS = [dk.QuadraticForm(a=(1, 1, 0)), dk.QuadraticForm(a=(0.7, 1.3, 0.2), b=(0.1, 0, -0.4))]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("form", _FORMS)
def test_lockstep_product_restarts_match_serial_runs(n, form):
    op = dk.collective_operator(n, form)
    result = dk.maximize_over_product_states(op, restarts=6, seed=13)
    assert len(result.values) == len(result.sweeps) == 6
    for r in range(6):
        value, sweeps = _serial_product_max(op.matrix, n, 13, r)
        assert abs(result.values[r] - value) <= config.CONVERGENCE_TOL * max(1.0, abs(value))
        assert result.sweeps[r] == sweeps
    assert result.value == max(result.values)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("form", _FORMS)
def test_lockstep_biseparable_restarts_match_serial_runs(n, form):
    op = dk.collective_operator(n, form)
    result = dk.maximize_over_biseparable(op, restarts=4, seed=8)
    # both forms commute with qubit swaps, so the splits are 1|n-1, 2|n-2, ...
    tensor = op.matrix.reshape([2] * (2 * n))
    expected = []
    for size in range(1, n // 2 + 1):
        d_a, d_b = 2 ** size, 2 ** (n - size)
        w = tensor.reshape(d_a, d_b, d_a, d_b)
        expected += [_serial_bisep_max(w, 8, r) for r in range(4)]
    assert len(result.values) == len(expected)
    for got, sweeps, (value, serial_sweeps) in zip(result.values, result.sweeps, expected):
        assert abs(got - value) <= config.CONVERGENCE_TOL * max(1.0, abs(value))
        assert sweeps == serial_sweeps
    assert result.converged


def test_restarts_run_in_bounded_chunks(monkeypatch):
    # stacking fewer restarts at once changes nothing beyond BLAS roundoff
    op = dk.collective_operator(3, dk.QuadraticForm(a=(0.7, 1.3, 0.2), b=(0.1, 0, -0.4)))
    atol = config.CONVERGENCE_TOL * 10
    for search in (dk.maximize_over_product_states, dk.maximize_over_biseparable):
        monkeypatch.setattr(oracle, "_RESTART_CHUNK", 64)
        whole = search(op, restarts=7, seed=2)
        monkeypatch.setattr(oracle, "_RESTART_CHUNK", 3)
        chunked = search(op, restarts=7, seed=2)
        assert len(chunked.values) == len(whole.values)
        assert np.allclose(chunked.values, whole.values, rtol=0, atol=atol)
        assert chunked.value == pytest.approx(whole.value, abs=atol)


def test_near_tied_form_reaches_the_lemma1_value():
    # the two largest coefficients differ by 0.003, so the alternating updates
    # converge slowly: the restarts need about 1 000 to 1 400 sweeps
    form = dk.QuadraticForm(a=(0.708, 0.277, 0.705))
    result = dk.maximize_over_product_states(dk.collective_operator(6, form), restarts=4, seed=21)
    bound = dk.lemma1_bound(form, 6)
    assert result.converged
    assert abs(result.value - bound) <= 1e-6
    assert result.value <= bound + config.SOUNDNESS_TOL


@pytest.mark.parametrize("search", [dk.maximize_over_product_states, dk.maximize_over_biseparable])
def test_sweep_cap_is_reported_as_not_converged(search, monkeypatch):
    # the first sweep gains an infinite amount over its -inf start, so it
    # never stops a restart: a cap of one sweep leaves every restart at the cap
    monkeypatch.setattr(oracle, "_SWEEP_CAP", 1)
    result = search(dk.collective_operator(2, dk.QuadraticForm(a=(1, 1, 0))), restarts=2)
    assert not result.converged
    assert result.sweeps == (oracle._SWEEP_CAP,) * 2
    assert len(result.history) == oracle._SWEEP_CAP


def test_product_max_validations():
    op = dk.collective_operator(2, "z")
    for restarts in (0, True, 2.0):
        with pytest.raises(dk.DomainError):
            dk.maximize_over_product_states(op, restarts=restarts)
        with pytest.raises(dk.DomainError):
            dk.maximize_over_biseparable(op, restarts=restarts)


def test_ti_product_examples():
    result = dk.maximize_over_ti_product(dk.QuadraticForm(a=(1, 1, 0)), 4)
    assert result.value == pytest.approx(5.0, abs=1e-8)
    assert abs(result.argument.vectors[0][2]) < 1e-6  # equatorial optimum
    result = dk.maximize_over_ti_product(dk.QuadraticForm(a=(0, 0, 1), b=(0, 0, 1)), 2)
    assert result.value == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(result.argument.vectors[0], [0, 0, 0.5], atol=1e-6)
    result = dk.maximize_over_ti_product(dk.QuadraticForm(a=(1, 0, 0), b=(1, 0, 0)), 2)
    assert result.value == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(result.argument.vectors[0], [0.5, 0, 0], atol=1e-6)


_THETA, _PHI = np.meshgrid(np.linspace(0, np.pi, 241), np.linspace(0, 2 * np.pi, 481), indexing="ij")
_GRID = 0.5 * np.stack([np.sin(_THETA) * np.cos(_PHI), np.sin(_THETA) * np.sin(_PHI), np.cos(_THETA)],
                       -1).reshape(-1, 3)  # dense angular grid on the pure-state sphere


def _grid_max(form, n):
    a, b = np.asarray(form.a), np.asarray(form.b)
    return float(np.max(a.sum() * n / 4 + n * (n - 1) * (_GRID ** 2) @ a + n * _GRID @ b))


def _crit2_form(m):
    return dk.QuadraticForm(a=(1, 1, 0), b=(0, 0, -2.0 * m))


@settings(deadline=None, max_examples=80)
@given(
    a=st.tuples(*[st.floats(0, 3) | st.just(0.0) for _ in range(3)]),
    b=st.tuples(*[st.floats(-3, 3) | st.just(0.0) for _ in range(3)]),
    n=st.integers(1, 8),
)
def test_ti_product_is_the_sphere_maximum(a, b, n):
    form = dk.QuadraticForm(a=a, b=b)
    result = dk.maximize_over_ti_product(form, n)
    s = result.argument.vectors[0]
    assert abs(np.linalg.norm(s) - 0.5) <= 1e-12
    assert np.array_equal(result.argument.vectors, np.tile(s, (n, 1)))
    assert result.value == ti_objective(form, n, s)
    assert _grid_max(form, n) <= result.value + 1e-9 * max(1.0, abs(result.value))


def test_ti_objective_takes_a_stack_of_bloch_vectors():
    form = dk.QuadraticForm(a=(0.3, 1.1, 0.7), b=(0.2, -0.4, 0.9))
    stack = _GRID[:600].reshape(20, 30, 3)
    values = ti_objective(form, 7, stack)
    assert values.shape == (20, 30)
    singles = [ti_objective(form, 7, s) for s in stack.reshape(-1, 3)]
    assert np.allclose(values.ravel(), singles, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n,m", [(4, 1), (4, -1), (5, 2), (9, -4), (10, 0), (100, 7)])
def test_ti_product_hard_case(n, m):
    # beta vanishes on both top axes x, y and |s_z| = |m|/(N-1) <= 1/2: the
    # multiplier sits at max(alpha) and the rest of the length goes along x
    result = dk.maximize_over_ti_product(_crit2_form(m), n)
    s = result.argument.vectors[0]
    assert s[2] == pytest.approx(-m / (n - 1), rel=1e-15, abs=1e-15)
    assert np.linalg.norm(s) == pytest.approx(0.5, abs=1e-15)
    expected = n / 2 + n * (n - 1) / 4 + n * m ** 2 / (n - 1)
    assert result.value == pytest.approx(expected, rel=1e-14)
    assert result.sweeps == () and result.converged  # one exact solve, no search


@pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (4, -3), (9, 5), (10, 7)])
def test_ti_product_beyond_the_hard_case_sits_at_a_pole(n, m):
    # |m| > (N-1)/2: the secular root puts the optimum at s = -sign(m) z / 2
    result = dk.maximize_over_ti_product(_crit2_form(m), n)
    assert np.allclose(result.argument.vectors[0], [0, 0, -0.5 * np.sign(m)], atol=1e-15)
    assert result.value == pytest.approx(n / 2 + n * abs(m), rel=1e-15)


def test_ti_product_without_linear_part_and_on_one_qubit():
    # beta = 0: the length goes along an axis of largest a
    result = dk.maximize_over_ti_product(dk.QuadraticForm(a=(0.2, 0.9, 0.4)), 5)
    assert np.allclose(result.argument.vectors[0], [0, 0.5, 0], atol=1e-15)
    assert result.value == pytest.approx(1.5 * 5 / 4 + 0.9 * 2.5 * 2.0, rel=1e-15)
    # N = 1 has no quadratic part: s = beta / (2 |beta|)
    form = dk.QuadraticForm(a=(2, 1, 0), b=(0.3, -0.4, 1.2))
    result = dk.maximize_over_ti_product(form, 1)
    assert np.allclose(result.argument.vectors[0], np.array([0.3, -0.4, 1.2]) / 2.6, atol=1e-15)
    assert result.value == pytest.approx(3 / 4 + 0.65, rel=1e-15)
    # with nothing to maximize, any pure Bloch vector is optimal
    result = dk.maximize_over_ti_product(dk.QuadraticForm(), 1)
    assert np.linalg.norm(result.argument.vectors[0]) == pytest.approx(0.5, abs=1e-15)
    assert result.value == 0.0


@pytest.mark.parametrize("tiny", [2.225073858507e-311, -5e-324, 1e-200, 2e-308])
def test_ti_product_with_a_vanishing_top_linear_term(tiny):
    # beta on the top axis z is tiny but not 0, so the secular root sits near
    # |tiny|; below the normal range it is treated as the hard case
    form = dk.QuadraticForm(a=(0.0, 0.0, 2.0), b=(0.0, 1.0, tiny))
    result = dk.maximize_over_ti_product(form, 2)
    assert result.value == pytest.approx(2.25, rel=1e-15)
    assert np.allclose(result.argument.vectors[0], [0, 0.25, sqrt(3) / 4], atol=1e-15)


@pytest.mark.parametrize("n", [4, 1000, 10_000])
def test_ti_product_matches_the_crit2_closed_form(n):
    for m in range(-((n - 1) // 2), (n - 1) // 2 + 1, max(1, n // 40)):
        expected = n / 2 + n * (n - 1) / 4 + n * m ** 2 / (n - 1)
        assert dk.maximize_over_ti_product(_crit2_form(m), n).value == pytest.approx(expected, rel=1e-12)
        assert dk.lemma1_bound(_crit2_form(m), n) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [0, -2, 2.0, True, np.bool_(True)])
def test_ti_product_rejects_non_integer_sizes(n):
    with pytest.raises(dk.DomainError):
        dk.maximize_over_ti_product(_crit2_form(1), n)


_NO_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"importing {name} is refused")


sys.meta_path.insert(0, RefuseScipy())
import dickekit as dk
from dickekit import cli

assert abs(dk.fidelity_threshold_numeric(6) - dk.collective_noise_threshold(6, "fidelity")) <= 1e-12
assert abs(dk.collective_threshold_numeric(4, "genuine4") - (2.5 - 3 ** 0.5) / 4) <= 1e-12
assert abs(dk.collective_threshold_numeric(6, "theorem2", "psixy") - 1.0) <= 1e-12
assert dk.lemma1_bound(dk.QuadraticForm(a=(1.0, 1.0, 0.0), b=(0.0, 0.0, -4.0)), 10) > 0
assert cli.main(["selftest", "--only", "6"]) == 0
"""


def test_library_runs_without_scipy():
    # every scipy import raises, so any use of scipy on these paths fails the run;
    # the child imports the dickekit this process imported, installed or not
    path = [str(Path(dk.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr


def _imports(module) -> list[tuple[str, set[str]]]:
    """Each import statement of a module, in any import form: the dotted
    module it names and the names it binds."""
    found = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            found.append((node.module or "", {alias.name for alias in node.names}))
        elif isinstance(node, ast.Import):
            found.extend((alias.name, set()) for alias in node.names)
    return found


def test_oracles_import_no_closed_form_module():
    # the oracles are the independent routes to the closed bounds in collective,
    # so they may not import it, in any import form
    imported = set()
    for module, names in _imports(oracle):
        imported.update(module.split("."), names)
    assert {"config", "errors", "states"} <= imported
    assert "collective" not in imported


def test_bounds_read_only_the_oracle_records():
    # collective holds the closed forms and the exact Lemma 1 solve; of the
    # oracles it may read the result records, never a search or a helper
    from_oracle = set()
    for module, names in _imports(collective):
        if module.split(".")[-1] == "oracle":
            from_oracle |= names or {module}  # a bare import binds the whole module
        elif "oracle" in names:  # from . import oracle
            from_oracle.add("oracle")
    assert from_oracle == {"OptimizationResult", "BlochProduct"}
    # the Lemma 1 solve and its root-finder live on the bound side only, with no re-export
    solve = {"ti_objective", "maximize_over_ti_product", "_ti_maximum", "_secular_point", "_secular_root",
             "_safeguarded_root"}
    assert solve <= set(vars(collective)) and not solve & set(vars(oracle))


def test_root_finder_raises_at_its_step_cap():
    def slow(x):  # each Newton step only shrinks the distance to the root 0.5 by 0.1 %
        return x - 0.5, 1.0 / 1.999

    with pytest.raises(dk.InvariantViolationError, match="did not converge"):
        collective._safeguarded_root(slow, 0.0, 1.0, 0.9)


def test_root_finder_bisects_a_newton_step_that_leaves_the_bracket():
    points = []

    def steep(x):  # from 0.9 Newton steps to -1.354, so the bracket's midpoint 0.45 is taken
        points.append(x)
        return atan(10.0 * (x - 0.5)), 10.0 / (1.0 + (10.0 * (x - 0.5)) ** 2)

    assert collective._safeguarded_root(steep, 0.0, 1.0, 0.9) == pytest.approx(0.5, abs=1e-12)
    assert points[:2] == [0.9, 0.45]


def test_ti_and_product_routes_agree():
    rng = np.random.default_rng(2)
    for _ in range(3):
        form = dk.QuadraticForm(a=tuple(rng.uniform(0, 2, 3)), b=tuple(rng.uniform(-1, 1, 3)))
        for n in (2, 4):
            op = dk.collective_operator(n, form)
            prod = dk.maximize_over_product_states(op, restarts=32, seed=0).value
            ti = dk.maximize_over_ti_product(form, n).value
            assert prod == pytest.approx(ti, abs=1e-6), (form, n)


def test_bisep_max_three_qubits():
    op = dk.collective_operator(3, dk.QuadraticForm(a=(1, 1, 0)))
    result = dk.maximize_over_biseparable(op, seed=0)
    assert result.value == pytest.approx(2 + sqrt(5) / 2, abs=1e-6)


def test_bisep_max_four_qubits_prefers_one_three_split():
    op = dk.collective_operator(4, dk.QuadraticForm(a=(1, 1, 0)))
    result = dk.maximize_over_biseparable(op, seed=0)
    assert result.value == pytest.approx(3.5 + sqrt(3), abs=1e-6)
    assert len(result.argument.split.side_a) in (1, 3)


def test_bisep_max_on_projector():
    target = dk.dicke_state(4, 2).amplitudes
    projector = dk.HermitianOperator(np.outer(target, target.conj()))
    result = dk.maximize_over_biseparable(projector, seed=0)
    assert result.value == pytest.approx(2 / 3, abs=1e-9)
    rebuilt = result.argument.to_state()
    assert dk.expectation(rebuilt, projector) == pytest.approx(result.value, abs=1e-10)


def test_bisep_max_validations():
    with pytest.raises(dk.DomainError):
        dk.maximize_over_biseparable(dk.HermitianOperator(np.eye(2)))  # single qubit has no split
    with pytest.raises(dk.DomainError):
        dk.maximize_over_biseparable(dk.HermitianOperator(np.eye(2 ** 9)))


def test_bisep_max_is_deterministic():
    op = dk.collective_operator(3, dk.QuadraticForm(a=(1, 1, 0)))
    first = dk.maximize_over_biseparable(op, restarts=6, seed=4)
    second = dk.maximize_over_biseparable(op, restarts=6, seed=4)
    assert first.value == second.value


_SCALES = [2.0 ** -43, 1.0, 2.0 ** 30]  # about 1.1e-13 to 1.1e9; powers of two scale every step exactly


@pytest.mark.parametrize("c", _SCALES)
def test_bisep_max_scales_with_the_operator(c):
    # (|000> + |101>)/sqrt(2) is a product across {1, 3} | {2}, a split no size-only
    # enumeration visits: the operator is not symmetric, however small
    v = np.zeros(8)
    v[0b000] = v[0b101] = sqrt(0.5)
    result = dk.maximize_over_biseparable(dk.HermitianOperator(c * np.outer(v, v)))
    assert result.value / c == pytest.approx(1.0, abs=1e-9)
    assert result.argument.split.side_a == (1, 3)


def test_product_max_scales_with_the_operator():
    # the stopping rule and the decrease guard scale with the operator's entries
    xy = dk.collective_operator(4, dk.QuadraticForm(a=(1, 1, 0))).matrix
    results = [dk.maximize_over_product_states(dk.HermitianOperator(c * xy), restarts=8, seed=0) for c in _SCALES]
    for c, result in zip(_SCALES, results):
        assert result.value == pytest.approx(5.0 * c, rel=1e-12)
        assert result.converged
        assert result.sweeps == results[1].sweeps


def test_a_search_result_holds_no_echo_of_its_arguments():
    names = {f.name for f in dataclasses.fields(dk.OptimizationResult)}
    assert names == {"value", "argument", "sweeps", "converged", "history", "values"}


@pytest.mark.parametrize("n", range(2, 9))
def test_collective_forms_are_exactly_permutation_invariant(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        form = dk.QuadraticForm(a=tuple(rng.uniform(0, 3, 3)), b=tuple(rng.normal(size=3)))
        assert oracle._is_permutation_invariant(dk.collective_operator(n, form).matrix, n)


def test_only_an_exactly_symmetric_operator_is_permutation_invariant():
    xy = dk.collective_operator(4, dk.QuadraticForm(a=(1, 1, 0))).matrix
    z1 = np.kron(np.diag([1.0, -1.0]), np.eye(8))  # sigma_z on qubit 1
    assert not oracle._is_permutation_invariant(xy + 1e-6 * z1, 4)
    target = dk.dicke_state(4, 2).amplitudes
    assert oracle._is_permutation_invariant(np.outer(target, target.conj()), 4)
    for op in dk.theorem3_operators():
        assert oracle._is_permutation_invariant(op.matrix, 3)


def test_biseparable_overlap_matches_the_closed_dicke_bound():
    for n in range(2, 9):
        for m in range(n + 1):
            overlap = dk.max_biseparable_overlap(dk.dicke_state(n, m))
            assert overlap == pytest.approx(dk.dicke_fidelity_bound(n, m), abs=1e-10), (n, m)


def test_biseparable_overlap_of_a_product_state_is_one():
    state = dk.product_state([[1, 0], [1, 1j], [0.6, 0.8], [1, -1]])
    assert dk.max_biseparable_overlap(state) == pytest.approx(1.0, abs=1e-12)


def test_biseparable_overlap_agrees_with_the_biseparable_search():
    # two independent oracles of one quantity on a target with no symmetry
    target = next(dk.sample_random_states("pure", 4, 1, seed=0))
    overlap = dk.max_biseparable_overlap(target)
    projector = dk.HermitianOperator(np.outer(target.amplitudes, target.amplitudes.conj()))
    value = dk.maximize_over_biseparable(projector, restarts=64, seed=0).value
    assert overlap - 1e-6 <= value <= overlap + 1e-9


@pytest.mark.parametrize("state", [
    dk.dicke_symmetric(4, 2), dk.white_noise_mix(dk.dicke_state(2, 1), 0.5).to_density(), dk.dicke_state(1, 1),
], ids=["symmetric", "density", "one-qubit"])
def test_biseparable_overlap_needs_a_dense_pure_state_of_two_qubits(state):
    with pytest.raises(dk.DomainError):
        dk.max_biseparable_overlap(state)


def test_sampling_is_deterministic_and_typed():
    a = [s.amplitudes for s in dk.sample_random_states("pure", 3, 4, seed=9)]
    b = [s.amplitudes for s in dk.sample_random_states("pure", 3, 4, seed=9)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    kinds = {
        "pure": dk.PureState,
        "product": dk.PureState,
        "biseparable": dk.PureState,
        "density": dk.DensityMatrix,
    }
    for kind, cls in kinds.items():
        sample = next(dk.sample_random_states(kind, 3, 1, seed=1))
        assert isinstance(sample, cls)


def test_sampling_validations():
    with pytest.raises(dk.DomainError):
        next(dk.sample_random_states("thermal", 3, 1, seed=0))
    with pytest.raises(dk.DomainError):
        next(dk.sample_random_states("pure", 3, 0, seed=0))
    with pytest.raises(dk.DomainError):
        next(dk.sample_random_states("biseparable", 1, 1, seed=0))


@pytest.mark.parametrize("bad", [-1, True, 1.0, None])
def test_seeds_and_counts_are_nonnegative_integers(bad):
    op = dk.collective_operator(2, "z")
    for search in (dk.maximize_over_product_states, dk.maximize_over_biseparable):
        with pytest.raises(dk.DomainError, match="seed"):
            search(op, restarts=1, seed=bad)
    with pytest.raises(dk.DomainError, match="seed"):
        next(dk.sample_random_states("pure", 2, 1, seed=bad))
    with pytest.raises(dk.DomainError, match="count"):
        next(dk.sample_random_states("pure", 2, bad, seed=0))


def test_numpy_integer_seeds_and_counts_are_accepted():
    op = dk.collective_operator(2, "z")
    for search in (dk.maximize_over_product_states, dk.maximize_over_biseparable):
        numpy_ints = search(op, restarts=np.int64(2), seed=np.int64(3))
        python_ints = search(op, restarts=2, seed=3)
        assert numpy_ints.values == python_ints.values and numpy_ints.sweeps == python_ints.sweeps
    assert len(list(dk.sample_random_states("pure", 2, np.int64(2), seed=np.int64(0)))) == 2


def test_biseparable_samples_respect_bound():
    op = dk.collective_operator(4, dk.QuadraticForm(a=(1, 1, 0)))
    worst = max(
        dk.expectation(s, op) for s in dk.sample_random_states("biseparable", 4, 500, seed=21)
    )
    assert worst <= 3.5 + sqrt(3) + 1e-9


def test_bloch_product_validation():
    with pytest.raises(dk.DomainError):
        dk.BlochProduct(np.array([[0.6, 0.0, 0.0]]))
    mixed = dk.BlochProduct(np.array([[0.2, 0.0, 0.0]]))
    with pytest.raises(dk.DomainError):
        mixed.to_state()


def test_total_spin_minimization_is_not_a_tensor_power_problem():
    # the product-state minimum of <J^2> for two qubits is the anti-aligned
    # pair at value 1; every tensor-power state sits at 2
    j2 = dk.collective_operator(2, dk.QuadraticForm(a=(1, 1, 1)))
    negated = dk.HermitianOperator(-j2.matrix)
    result = dk.maximize_over_product_states(negated, restarts=32, seed=0)
    minimum = -result.value
    assert minimum == pytest.approx(1.0, abs=1e-6)
    s1, s2 = result.argument.vectors
    assert np.linalg.norm(s1 + s2) < 1e-4


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _reference_samples(kind, n, count, seed):
    """The samplers' streams drawn one sample (one factor, one qubit) at a time."""
    rng = np.random.default_rng([seed])
    dim = 2 ** n
    for _ in range(count):
        if kind == "pure":
            yield _unit(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        elif kind == "product":
            amps = np.array([1.0 + 0j])
            for _q in range(n):
                qubit = _unit(rng.normal(size=2) + 1j * rng.normal(size=2))
                amps = (amps[:, None] * qubit[None, :]).ravel()  # np.kron(amps, qubit)
            yield _unit(amps)
        elif kind == "biseparable":
            mask = int(rng.integers(1, dim - 1))
            split = dk.Bipartition(n, tuple(q for q in range(1, n + 1) if mask & (1 << (q - 1))))
            a, b = (rng.normal(size=2 ** len(side)) + 1j * rng.normal(size=2 ** len(side))
                    for side in (split.side_a, split.side_b))
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            order = list(split.side_a) + list(split.side_b)
            tensor = np.outer(a, b).reshape([2] * n)  # axes in the order of `order`
            yield _unit(tensor.transpose([order.index(q) for q in range(1, n + 1)]).reshape(-1))
        else:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = g @ g.conj().T
            yield rho / np.trace(rho).real


@pytest.mark.parametrize("kind,n,block", [
    ("pure", 3, 64), ("product", 2, 64), ("product", 6, 64), ("density", 1, 64),
    ("density", 2, 64), ("biseparable", 2, 64), ("biseparable", 4, 256),
    ("pure", 5, None), ("product", 8, None), ("biseparable", 5, None), ("density", 2, None),
    ("biseparable", 3, None), ("biseparable", 6, None), ("product", 6, None), ("density", 3, None),
])
def test_batched_samples_replay_the_per_sample_stream(kind, n, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", block)
    per_sample = {"pure": 2 ** (n + 1), "product": 4 * n, "biseparable": 2 ** (n + 1),
                  "density": 2 * 4 ** n}[kind]
    # just past a block boundary at the default size; two full blocks and a
    # partial one at the small size
    if block is None:
        count = oracle._SAMPLE_BLOCK // per_sample + 2
    else:
        count = 2 * max(1, block // per_sample) + 1
    batched = dk.sample_random_states(kind, n, count, seed=17)
    reference = _reference_samples(kind, n, count, seed=17)
    seen = 0
    for state, want in zip(batched, reference):
        got = state.matrix if kind == "density" else state.amplitudes
        assert np.array_equal(got, want), seen
        seen += 1
    assert seen == count


def _negative_eigenvalue(rho):
    """rho with weight 1/2 moved from its smallest eigenvector to its largest:
    still Hermitian and of unit trace, but no longer positive semidefinite."""
    _vals, vecs = np.linalg.eigh(rho)
    low, high = vecs[:, 0], vecs[:, -1]
    return rho + 0.5 * (np.outer(high, high.conj()) - np.outer(low, low.conj()))


_BAD_ROWS = {  # kind sampled: (fault taking a valid sample to an invalid one, what it breaks)
    "pure": [(lambda v: 2.0 * v, "is not normalized"),
             (lambda v: np.where(np.arange(v.size) == 1, np.nan, v), "non-finite")],
    "product": [(lambda v: 2.0 * v, "is not normalized")],
    "biseparable": [(lambda v: np.where(np.arange(v.size) == 0, np.nan, v), "non-finite")],
    "density": [(lambda rho: rho + np.triu(np.full_like(rho, 1e-3), 1), "is not Hermitian"),
                (lambda rho: 1.5 * rho, "trace is 1.5"),
                (_negative_eigenvalue, "negative eigenvalue")],
}


@pytest.mark.parametrize("kind,fault", [(k, i) for k, faults in _BAD_ROWS.items() for i in range(len(faults))])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_bad_row_fails_its_block_with_the_constructor_message(kind, fault, where, monkeypatch):
    build, floats, state_type = oracle._SAMPLERS[kind]
    damage, message = _BAD_ROWS[kind][fault]
    size, n = 7, 2
    row = {"first": 0, "middle": size // 2, "last": size - 1}[where]
    bad = {}

    def broken(rng, n, count):
        block = build(rng, n, count)
        block[row] = bad["data"] = damage(block[row])
        return block

    monkeypatch.setitem(oracle._SAMPLERS, kind, (broken, floats, state_type))
    samples = dk.sample_random_states(kind, n, size, seed=5)
    with pytest.raises(dk.DomainError, match=message) as from_block:
        next(samples)  # nothing of the block is yielded, whichever row is bad
    with pytest.raises(dk.DomainError) as alone:
        state_type(n, bad["data"])
    assert str(from_block.value) == str(alone.value)


def test_density_samples_are_validated_once_per_block(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    count = 1000
    _build, floats, _type = oracle._SAMPLERS["density"]
    block = max(1, oracle._SAMPLE_BLOCK // floats(2))
    assert len(list(dk.sample_random_states("density", 2, count, seed=3))) == count
    assert len(calls) == -(-count // block) < count
    assert sum(calls) == count
