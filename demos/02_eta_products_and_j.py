#!/usr/bin/env python3
"""Dedekind eta, the five level eta-products, E4, Delta and Klein's j.

Eta is generated by the pentagonal-number theorem; a q-expansion carries
its fractional leading exponent (a multiple of 1/24) separately from the
integer-indexed body, so eta-quotients and fractional powers stay exact.
"""

from gfano import (
    ETA_PRODUCTS,
    discriminant,
    eisenstein_e4,
    eta,
    eta_product,
    klein_j,
)

e = eta(12)
print("eta  = q^(1/24) * body")
print("body :", [int(c) for c in e.body.coeffs], " <- +-1 at pentagonal numbers")

print()
d = discriminant(8)
print("Delta = eta^24, offset", d.offset)
print("body :", [int(c) for c in d.body.coeffs])

print()
e4 = eisenstein_e4(6)
print("E4   :", [int(c) for c in e4.body.coeffs])
j = klein_j(5)
print("j    = E4^3/Delta, offset", j.offset)
print("body :", [int(c) for c in j.body.coeffs], " <- 1/q + 744 + 196884q + ...")

print()
print("the five level eta-products and their valuations sigma1/24:")
for key in ("6+", "10+", "12+", "14+", "15+"):
    ep = eta_product(ETA_PRODUCTS[key], 10)
    print(f"  eta_{key:3s} offset {str(ep.offset):4s} sigma1 {ETA_PRODUCTS[key].sigma1:2d}"
          f"  body {[int(c) for c in ep.body.coeffs[:7]]}")
print("(these valuations are exactly the H-exponents in the identities)")
