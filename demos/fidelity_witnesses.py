#!/usr/bin/env python3
"""Tour of the fidelity-based genuine-multipartite witnesses.

The biseparable overlap bound for the half-excited Dicke state approaches 1/2
as N grows, so a measured Dicke fidelity above the bound certifies genuine
multipartite entanglement even with substantial white noise.  Compare the
one-excitation (W-type) bound, which approaches 1 and becomes useless.
"""

import dickekit as dk

print("=" * 72)
print("Overlap bounds: half-excited Dicke states vs one-excitation states")
print("=" * 72)
print(f"{'N':>4} {'bound |N/2,N>':>16} {'N/(2(N-1))':>12} {'bound |1,N>':>12}")
for n in (4, 6, 8, 10):
    half = dk.dicke_fidelity_bound(n, n // 2)
    single = dk.dicke_fidelity_bound(n, 1)
    print(f"{n:>4} {half:>16.6f} {n / (2 * (n - 1)):>12.6f} {single:>12.6f}")

print()
print("The same bound from a dense SVD sweep over all split sizes:")
for n in (4, 6, 8):
    svd = dk.dicke_fidelity_bound(n, n // 2, method="svd")
    print(f"  N = {n}: svd sweep = {svd:.12f}")

print()
print("=" * 72)
print("Witness verdicts under white noise  rho(p) = p I/2^N + (1-p) |2,4><2,4|")
print("=" * 72)
target = dk.dicke_state(4, 2)
for p in (0.0, 0.2, 16 / 45, 0.5):
    verdict = dk.criterion_verdict(dk.white_noise_mix(target, p), "fidelity", m=2)
    print(f"  p = {p:<10.6f} fidelity = {verdict.value:.6f}  margin = {verdict.margin:+.6f}"
          f"  -> {verdict.detected}")

print()
print("White-noise thresholds (closed form vs root-finding on the margin),")
print("and the psixy-noise threshold, which has only the numeric route:")
for n in (4, 6, 8):
    closed = dk.collective_noise_threshold(n, "fidelity")
    numeric = dk.collective_threshold_numeric(n, "fidelity")
    psixy = dk.collective_threshold_numeric(n, "fidelity", "psixy")
    print(f"  N = {n}: closed = {closed:.9f}   numeric = {numeric:.9f}   psixy = {psixy:.9f}")

print()
print("=" * 72)
print("Combinatorial verification of the overlap bound (exact integers)")
print("=" * 72)
for n in (4, 8, 12, 20):
    report = dk.verify_appendix_inequality(n)
    print(f"  N = {n:>2}: max g = {report.max_value} at (N1, k) = {report.argmax};"
          f" per-size maxima h = {report.h_values}")
