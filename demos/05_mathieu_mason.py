#!/usr/bin/env python3
"""Frame shapes of M23/M24, Mason's eta-products, and the correspondence.

The same eta-products showing up on the modular side of the period
identities are indexed by conjugacy classes of the Mathieu group: the
fixed-point count of an order-N element is epsilon(N) = 24/psi(N), and
its cycle count is iota(N), the number of orbits of the element on the
24 points.
"""

from gfano import (
    M23_SHAPES,
    M24_EXTRA_SHAPES,
    correspondence_report,
    epsilon,
    frobenius_mukai_check,
    hecke_eigenform_check,
    iota,
    mason_eta,
)

print("== M23 frame shapes ==")
print(f"{'shape':24s}{'order':>6s}{'a1':>4s}{'eps':>5s}{'cycles':>8s}{'iota':>6s}")
for g in M23_SHAPES:
    n = g.order
    print(f"{str(g):24s}{n:6d}{g.fixed_points:4d}{str(epsilon(n)):>5s}"
          f"{g.cycles:8d}{str(iota(n)):>6s}")
print("fixed points = epsilon(order), cycles = iota(order):",
      "PASS" if frobenius_mukai_check()["ok"] else "FAIL")

print()
print("== the fixed-point-free M24 shapes are eigenforms too ==")
for g in M24_EXTRA_SHAPES:
    rep = hecke_eigenform_check(g, bound=120)
    note = rep.character_note or "recursion checked"
    print(f"  {str(g):20s} weight {rep.weight} level {rep.level:3d} "
          f"{'PASS' if rep.ok else 'FAIL'} ({note})")

print()
print("== eta-product of 1^24 is the discriminant ==")
delta = mason_eta(M23_SHAPES[0], 8)
print("  ", [int(c) for c in delta.body.coeffs])

print()
print("== the 16-row correspondence ==")
for row in correspondence_report():
    star = "*" if row["iota_starred"] else " "
    fam = row["family"] or "-"
    kind = "rational" if row["rational_type"] else "irrational"
    print(f"  N={row['N']:2d} {row['class']:3s} s={row['s']!s:>4} c={row['c']:>4} "
          f"rho={row['rho']}  eps={row['epsilon']:>4} iota={row['iota']:>4}{star} "
          f"{fam:6s} {kind}")
