"""Moonshine Hauptmoduln H = 1/q + c + O(q) and mirror maps.

Every label has a closed expression (Conway & Norton, "Monstrous
Moonshine", 1979) and one route: 1A is Klein's j, any other label a row
(f, const, scale) of one table, H = f + const + scale/f (H = f at scale 0):

    H_6A  = 16 + f + 64/f,  f = η(q)⁶η(q³)⁶ / (η(q²)⁶η(q⁶)⁶)
    H_10A = 8 + f + 16/f,   f = η(q)⁴η(q⁵)⁴ / (η(q²)⁴η(q¹⁰)⁴)
    H_12A = (η(q²)²η(q⁶)² / (η(q)η(q³)η(q⁴)η(q¹²)))⁶
    H_14A = 4 + g + 8/g,    g = η(q)³η(q⁷)³ / (η(q²)³η(q¹⁴)³)
    H_15A = 3 + h + 9/h,    h = η(q)²η(q⁵)² / (η(q³)²η(q¹⁵)²)

Every quotient f of the table has σ₁ = −24, so f = q⁻¹·F with F its
eta-product body, and the sum is taken on bodies in that one frame:
H = q⁻¹·(F + const·q + scale·q²·F⁻¹).  A row whose quotient has another
offset raises WrongOffset.

An independent cross-check solves the defining functional equation

    I(1/H) = η(q) · H^e        (η = q^e·E the eta-product, e = σ₁/24)

where I is the regular shift of the normalized period F by s.  Claim 3
of the paper, w·I(w)^(1/e) = q·E(q)^(1/e) for w = 1/H, read backwards
gives w as the compositional inverse of t·I(t)^(1/e) applied to
q·E(q)^(1/e): one reversion and one composition.  Matching the q¹
coefficients forces s = E₁ + e·c first, so a wrong (s, c) pair is
rejected at order 1.  Run from each family's D3 operator at its default
(s, c), the solver reproduces the closed form: Klein's j from X6's L1,
the eta-quotient for the others (asserted in the test-suite).

The constant term c is a free normalization: renormalizing changes
exactly one coefficient.  Mirror maps are compositional inverses of
inverse Hauptmoduln, q(t) = reverse(1/H).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import d3, periods
from .qexp import ETA_PRODUCTS, EtaQuotient, QExpansion, eta_product, klein_j
from .series import (
    Rational,
    SeriesError,
    TruncatedSeries,
    _frac,
    regular_shift,
)


class UnknownLabel(KeyError):
    """Hauptmodul label outside `LABELS`."""


class NoD3Operator(ValueError):
    """Family without a D3 operator, so the identity solver has no period."""


class WrongOffset(SeriesError):
    """Operation expecting a 1/q + c + O(q) expansion (offset -1)."""


class InconsistentIdentity(SeriesError):
    """The functional equation admits no solution at some q-order."""

    def __init__(self, order: int, lhs: Fraction, rhs: Fraction):
        super().__init__(
            f"functional equation inconsistent at q-order {order}: {lhs} != {rhs}"
        )
        self.order = order
        self.lhs = lhs
        self.rhs = rhs


def renormalize_constant(h: QExpansion, c: Rational) -> QExpansion:
    """Replace the q⁰ coefficient by c, leaving every other one untouched."""
    if h.offset != -1:
        raise WrongOffset(f"expected offset -1, got {h.offset}")
    if h.order < 1:
        raise SeriesError("H must be known through q^0; it is known only through q^-1")
    cs = list(h.body.coeffs)
    cs[1] = _frac(c)
    return QExpansion(-1, TruncatedSeries(cs, h.order))


def inverse_hauptmodul(h: QExpansion) -> TruncatedSeries:
    """1/H as a valuation-1 power series in q, ready to be composed into."""
    if h.offset != -1:
        raise WrongOffset(f"expected offset -1, got {h.offset}")
    w = h.body.reciprocal()
    return TruncatedSeries([Fraction(0), *w.coeffs], h.order + 1)


def mirror_map(h: QExpansion, order: Optional[int] = None) -> TruncatedSeries:
    """q(t) = compositional inverse of t = 1/H(q), through t^order; H
    through q^K gives q(t) through t^(K+1), the default and the limit."""
    q_of_t = inverse_hauptmodul(h).reverse()
    if order is not None and order > q_of_t.order:
        raise SeriesError(f"mirror map to order {order} needs H through q^{order - 1}, "
                          f"got q^{h.order}")
    return q_of_t if order is None else q_of_t.truncate(order)


def solve_hauptmodul_from_identity(
    f_normalized: TruncatedSeries, s: Rational, c: Rational, eta: QExpansion
) -> QExpansion:
    """Solve I(1/H) = eta · H^e for H = 1/q + c + O(q), with e = σ₁/24 the
    valuation of eta, to the order both inputs reach.

    I is the regular shift of f_normalized by s, and eta = q^e·E.  With
    w = 1/H the equation is w^e·I(w) = eta; its 1/e-th power
    Ψ(w) = Φ(q), with Ψ(t) = t·I(t)^(1/e) and Φ(q) = q·E(q)^(1/e), is
    claim 3 read backwards.  So w = Ψ⁻¹∘Φ and H = q⁻¹·(w/q)⁻¹.  The q¹
    coefficients must balance first, I₁ = E₁ + e·c; they fix the q⁰
    coefficient of H.

    Ψ and Φ are taken at q ↦ λq, λ = u² for e = u/m, and coefficient n of
    w is divided back by λ^(n-1).  Any λ gives the same H; this one keeps
    every rescaled series integral for the table's exponents, and with it
    the kernel's common denominators small.
    """
    e = eta.offset
    order = min(f_normalized.order, eta.order)
    if e == 0:
        raise InconsistentIdentity(1, Fraction(0), Fraction(0))
    if f_normalized.coeffs[1]:
        raise SeriesError("expected a normalized series with zero linear term")

    i_series = regular_shift(f_normalized.truncate(order), s)
    E = eta.body.truncate(order)
    lhs1 = i_series.coeffs[1]
    rhs1 = E.coeffs[1] + e * _frac(c)
    if lhs1 != rhs1:
        raise InconsistentIdentity(1, lhs1, rhs1)

    lam = e.numerator ** 2

    def t_times_root(a: TruncatedSeries) -> TruncatedSeries:
        """t·a(λt)^(1/e), through t^(order+1)."""
        scaled = TruncatedSeries([x * lam**n for n, x in enumerate(a.coeffs)], order)
        return TruncatedSeries([0, *scaled.pow_rational(1 / e).coeffs], order + 1)

    w = t_times_root(i_series).reverse().compose(t_times_root(E))
    w_over_q = TruncatedSeries([x / lam**n for n, x in enumerate(w.coeffs[1:])], order)
    return QExpansion(-1, w_over_q.reciprocal())


# -- construction routes -------------------------------------------------------


#: label -> (eta-quotient f, const, scale): H = f + const + scale/f, or f at scale 0.
_QUOTIENTS = {
    label: (EtaQuotient.parse(f), const, scale) for label, f, const, scale in [
        ("6A", "1^6 3^6 2^-6 6^-6", 16, 64),
        ("10A", "1^4 5^4 2^-4 10^-4", 8, 16),
        ("12A", "2^12 6^12 1^-6 3^-6 4^-6 12^-6", 0, 0),
        ("14A", "1^3 7^3 2^-3 14^-3", 4, 8),
        ("15A", "1^2 5^2 3^-2 15^-2", 3, 9),
    ]
}

LABELS = ("1A", *_QUOTIENTS)


#: Entries kept by each route cache: one battery pass fills 6 (label, order)
#: keys, (1A, 40) among them, and one modular pass 6, with room to spare.
ROUTE_CACHE_SIZE = 16


@lru_cache(maxsize=ROUTE_CACHE_SIZE)
def _eta_route(label: str, order: int) -> QExpansion:
    if label == "1A":
        return klein_j(order)
    if label not in _QUOTIENTS:
        raise UnknownLabel(label)
    quotient, const, scale = _QUOTIENTS[label]
    f = eta_product(quotient, order)
    if f.offset != -1:
        raise WrongOffset(f"{label} quotient {quotient} has offset {f.offset}, expected -1")
    if not scale:
        return f
    tail = TruncatedSeries([0, const, *(f.body.reciprocal() * scale).coeffs], order)
    return QExpansion(-1, f.body + tail)


@lru_cache(maxsize=ROUTE_CACHE_SIZE)
def _identity_route(key: str, order: int) -> QExpansion:
    """Cross-check: family key's Hauptmodul solved from its D3 operator at
    the family's default (s, c)."""
    fam = periods.family(key)
    if fam.d3_operator is None:
        raise NoD3Operator(f"family {key} has no D3 operator to solve from")
    s = fam.default_shift(periods.iseries(key, order))
    f = d3.holomorphic_solution(d3.OPERATORS[fam.d3_operator], order)
    eta = eta_product(ETA_PRODUCTS[fam.eta], order)
    return solve_hauptmodul_from_identity(f, s, s + fam.c_minus_s, eta)


def hauptmodul(label: str, c: Optional[Rational] = None, order: int = 60) -> QExpansion:
    """The Hauptmodul for the label from its closed form, the one production
    route (verify's j too), with the printed constant term; a given c
    replaces it.

    For 6A the tail 79, 352, 1431, 4160, 13015, 31968 is the printed
    McKay-Thompson expansion (asserted in the test-suite).
    """
    h = _eta_route(label, order)
    return h if c is None else renormalize_constant(h, c)

