#!/usr/bin/env python3
"""Tour of the collective-measurement entanglement criteria.

Each criterion compares moments of the collective spin operators against a
bound proven for separable (or biseparable) states.  Curiously, states are
detected when the planar moments <Jx^2> + <Jy^2> are *larger* than the bound:
entanglement shows up as excess collective fluctuation.
"""

import dickekit as dk

half = dk.dicke_state(4, 2)
equatorial = dk.psixy_state(4, 0.0)
STRICT = dk.Tolerances(detection_tolerance=1e-12)  # roundoff above a bound is no detection

print("=" * 72)
print("Separable-bound criteria on reference 4-qubit states")
print("=" * 72)
for label, state in (("|2,4> (half-excited Dicke)", half),
                     ("equatorial product state", equatorial),
                     ("maximally mixed", dk.white_noise_mix(half, 1.0))):
    for kind in ("theorem2", "variance"):
        v = dk.criterion_verdict(state, kind, tol=STRICT)
        print(f"  {label:<28} {kind:<10} value = {v.value:8.4f}  bound = {v.bound:6.3f}"
              f"  -> {v.detected}")

print()
print("Symmetric-sector form of the criterion (N/4 <= <Jz^2> for separable):")
for label, state in (("|2,4>", half), ("|0,4>", dk.dicke_state(4, 0))):
    v = dk.criterion_verdict(state, "symmetric_jz")
    print(f"  {label:<8} N/4 - <Jz^2> = {v.margin:+.4f}  -> {v.detected}")

print()
print("Shifted criterion crit2(m): <Jx^2> + <Jy^2> - 2m <Jz>, maximized by the")
print("Dicke state with <Jz> = -m; the separable bound comes from the")
print("tensor-power maximization:")
for m in (-1, 0, 1, 2):
    state = dk.dicke_state(4, 2 - m)
    v = dk.criterion_verdict(state, "crit2", m=m)
    print(f"  m = {m:+d}: value = {v.value:7.4f}  separable bound = {v.bound:7.4f}"
          f"  -> {v.detected}")

print()
print("=" * 72)
print("Genuine-multipartite criteria (3 and 4 qubits)")
print("=" * 72)
for label, state, kind in (("|1,3>", dk.dicke_state(3, 1), "genuine3"),
                           ("|2,3>", dk.dicke_state(3, 2), "genuine3"),
                           ("|2,4>", dk.dicke_state(4, 2), "genuine4"),
                           ("equatorial product", equatorial, "genuine4")):
    v = dk.criterion_verdict(state, kind, tol=STRICT)
    print(f"  {label:<20} {kind}: value = {v.value:7.4f} vs bound {v.bound:7.4f}"
          f"  -> {v.detected}")

print()
print("=" * 72)
print("Noise robustness: white noise vs coherent equatorial noise")
print("=" * 72)
print("white noise threshold for theorem2 is 1/N:")
for n in (4, 6, 8):
    closed = dk.collective_noise_threshold(n, "theorem2")
    numeric = dk.collective_threshold_numeric(n, "theorem2")
    print(f"  N = {n}: closed = {closed:.9f}   numeric = {numeric:.9f}")
print("thresholds of |2,4> by root-finding, for each kind and the noise it takes")
print("(crit2 at shift 0, fidelity at m = 2; genuine3 applies to N = 3 only):")
for kind in ("theorem2", "variance", "crit2", "genuine4", "fidelity"):
    white, psixy = (dk.collective_threshold_numeric(4, kind, noise) for noise in ("white", "psixy"))
    print(f"  {kind:<12} white = {white:.9f}   psixy = {psixy:.9f}")
print(f"  {'symmetric_jz':<12} white: refused   psixy = "
      f"{dk.collective_threshold_numeric(4, 'symmetric_jz', 'psixy'):.9f}")
print("coherent equatorial noise keeps theorem2 detection for every p < 1:")
for p in (0.5, 0.9, 0.999):
    v = dk.criterion_verdict(dk.psixy_noise_mix(4, p), "theorem2")
    print(f"  p = {p}: value = {v.value:.6f}  -> {v.detected}")
