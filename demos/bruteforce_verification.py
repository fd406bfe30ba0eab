#!/usr/bin/env python3
"""Every closed-form bound, re-derived numerically by brute force.

Three independent routes are compared throughout the library: closed formulas,
dense eigensolving, and alternating-update maximization over product or
biseparable states.  This script shows them agreeing (and the one case where
a naive reduction would fail).
"""

import numpy as np

import dickekit as dk

XY = dk.QuadraticForm(a=(1, 1, 0))

print("=" * 72)
print("Separable bound on <Jx^2> + <Jy^2>: closed form vs product search")
print("=" * 72)
for n in (2, 3, 4, 6):
    closed = dk.lemma1_bound(XY, n)
    op = dk.collective_operator(n, XY)
    product = dk.maximize_over_product_states(op, restarts=32, seed=0).value
    tensor_power = dk.maximize_over_ti_product(XY, n).value
    print(f"  N = {n}: closed = {closed:.6f}  product search = {product:.6f}"
          f"  tensor-power search = {tensor_power:.6f}")

print()
print("A random quadratic form with linear terms (no closed form):")
rng = np.random.default_rng(7)
form = dk.QuadraticForm(a=tuple(rng.uniform(0, 2, 3)), b=tuple(rng.uniform(-1, 1, 3)))
print(f"  a = {np.round(form.a, 3)}, b = {np.round(form.b, 3)}")
for n in (2, 4):
    op = dk.collective_operator(n, form)
    product = dk.maximize_over_product_states(op, restarts=32, seed=0).value
    tensor_power = dk.maximize_over_ti_product(form, n).value
    print(f"  N = {n}: product search = {product:.8f}  tensor-power search = {tensor_power:.8f}")

print()
print("=" * 72)
print("The reduction to tensor powers holds for maxima only")
print("=" * 72)
j2 = dk.collective_operator(2, dk.QuadraticForm(a=(1, 1, 1)))
negated = dk.HermitianOperator(-j2.matrix)
result = dk.maximize_over_product_states(negated, restarts=32, seed=0)
print(f"  min of <J^2> over two-qubit product states = {-result.value:.6f}")
print(f"  min over tensor powers = 2.0 (any Bloch direction)")
print(f"  optimal Bloch vectors (anti-aligned): {np.round(result.argument.vectors, 4).tolist()}")

print()
print("=" * 72)
print("Biseparable maxima and the genuine-multipartite bounds")
print("=" * 72)
for n, bound in ((3, dk.GENUINE3_BOUND), (4, dk.GENUINE4_BOUND)):
    op = dk.collective_operator(n, XY)
    result = dk.maximize_over_biseparable(op, restarts=64, seed=0)
    print(f"  N = {n}: biseparable max = {result.value:.9f}  closed bound = {bound:.9f}"
          f"  best split side = {result.argument.split.side_a}")
print(f"  4-qubit per-partition caps: {dk.theorem3_partition_bounds()}")

print()
print("Maximal biseparable overlap with |2,4> (the fidelity-witness bound):")
target = dk.dicke_state(4, 2).amplitudes
projector = dk.HermitianOperator(np.outer(target, target.conj()))
result = dk.maximize_over_biseparable(projector, restarts=64, seed=0)
print(f"  optimizer = {result.value:.9f}   closed bound = {dk.dicke_fidelity_bound(4, 2):.9f}")

print()
print("=" * 72)
print("Analytic spectra vs dense diagonalization")
print("=" * 72)
direction = np.array([1 / np.sqrt(3), np.sqrt(2 / 3), 0.0])
m1, m2, m3 = (op.matrix for op in dk.lemma2_operators())
dense = np.sort(np.linalg.eigvalsh(direction[0] * m1 + direction[1] * m2 + direction[2] * m3))
analytic = np.sort(dk.lemma2_eigenvalues(direction))
print(f"  pair family at the optimal direction:  dense {np.round(dense, 9).tolist()}")
print(f"                                      analytic {np.round(analytic, 9).tolist()}")
print(f"  sqrt(16/3) = {np.sqrt(16 / 3):.9f}")
qx, qy, r = (op.matrix for op in dk.theorem3_operators())
x1, y1 = 1.0, 0.0
combo = dk.HermitianOperator(x1 * qx + y1 * qy + r)
print(f"  triple family at X = 1: max dense = {dk.max_eigenvalue(combo):.9f}"
      f"  vs 3 + 2 sqrt(3) = {3 + 2 * np.sqrt(3):.9f}")

print()
print("Soundness sweep: 2000 random biseparable 4-qubit states vs the bound")
op4 = dk.collective_operator(4, XY)
worst = max(dk.expectation(s, op4) for s in dk.sample_random_states("biseparable", 4, 2000, seed=1))
print(f"  worst sampled value = {worst:.6f}  <= {dk.GENUINE4_BOUND:.6f}")
