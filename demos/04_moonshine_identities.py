#!/usr/bin/env python3
"""The mirror-modular identities, verified coefficient by coefficient.

For each family: shift the I-series to linear coefficient s, plug in the
inverse Hauptmodul 1/H with constant term c, and compare against the
eta-product times H^{sigma1/24}.  The q^1 coefficients already force
s = E_1 + (sigma1/24)·c, so perturbing either constant breaks the identity
at order 1 -- mutation reports show exactly where and by how much.
"""

from gfano import (
    hauptmodul,
    inverse_hauptmodul,
    mirror_map,
    sweep_free_shift,
    verify_all,
    verify_identity,
)

print("== Hauptmoduln ==")
for label in ("6A", "10A", "12A", "14A", "15A"):
    h = hauptmodul(label, order=6)
    print(f"  H_{label:3s} = 1/q + {int(h.body.coeffs[1])} "
          f"+ {[int(c) for c in h.body.coeffs[2:6]]}...")
print("  (each is a closed eta-quotient; for 6A the tail 79, 352, 1431, ...")
print("   is the McKay-Thompson expansion, reproduced not assumed)")

print()
print("== mirror maps are integral ==")
q_of_t = mirror_map(hauptmodul("12A", order=13), 12)
print("  q(t) for 12A:", [int(c) for c in q_of_t.coeffs])

print()
print("== the identity battery at order 40 ==")
for report in verify_all(40):
    print(f"  {report.status}  {report.name}")

print()
print("== free shifts: any s with c = s+1 works for the degree-28 family ==")
for report in sweep_free_shift("Y28", range(0, 4), 30):
    print(f"  s={report.s} c={report.c}: {report.status}")

print()
print("== mutations break at order 1 ==")
for s, c in ((5, 6), (4, 7)):
    report = verify_identity("Y24", s, c, 20)
    n, lhs, rhs = report.first_mismatch
    print(f"  (s={s}, c={c}): {report.status} at q^{n}: {lhs} != {rhs}")
