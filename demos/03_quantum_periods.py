#!/usr/bin/env python3
"""Quantum periods of the eight G-Fano families and their D3 operators.

Each family has a closed hypergeometric I-series; normalizing it (regular
shift killing the linear term) gives the unique analytic solution of a
five-parameter D3 operator.  Givental's constant -- the expected number
of anticanonical conics through a point -- is the t^2 coefficient of the
G-series.
"""

from gfano import (
    FAMILIES,
    OPERATORS,
    apply_operator,
    check_exp_relation,
    givental_constant,
    gseries,
    holomorphic_solution,
    iseries,
    normalize,
)

print("family  I-series (first coefficients)")
for key in ("X6", "Y12_2", "Y12_3", "Y20", "Y24", "Y28", "Y30", "Y48_2", "Y48_3"):
    print(f"  {key:6s}", [int(c) for c in iseries(key, 5).coeffs])

print()
print("normalized periods solve the catalog D3 operators:")
for key, fam in FAMILIES.items():
    if fam.d3_operator is None:
        continue
    op = OPERATORS[fam.d3_operator]
    f = normalize(iseries(key, 40))
    residual = apply_operator(op, f)
    print(f"  {key:6s} {fam.d3_operator:5s} F = {[int(c) for c in f.coeffs[:5]]}"
          f"  L(F) == 0: {all(c == 0 for c in residual.coeffs)}")

print()
print("Givental constants (anticanonical conics through a point):")
for key in ("Y12_2", "Y12_3", "Y20", "Y24", "Y30"):
    print(f"  G({key}) = {givental_constant(key)}")
print("  (Y28 exposes no pinned shift; its I-series is the L14 solution)")

print()
print("inter-family relations:")
r = check_exp_relation(30)
print(f"  {r.name}: {r.status}")
print("  G-series of the two degree-48 families:",
      [str(c) for c in gseries('Y48_2', 6).coeffs],
      [str(c) for c in gseries('Y48_3', 6).coeffs])
