"""q-expansions with fractional leading exponents: eta-products and friends.

A QExpansion is q^offset · body(q) where the offset is a rational with
denominator dividing 24 and the body is a TruncatedSeries with nonzero
constant term.  This is exactly what is needed for

    eta(q)   = q^{1/24} Π_{n≥1} (1 - q^n)
    Delta(q) = eta(q)^24
    E4(q)    = 1 + 240 Σ σ₃(n) q^n
    j(q)     = E4^3 / Delta = 1/q + 744 + 196884 q + ...

and for the eta-products/quotients attached to levels 1, 6, 10, 12, 14, 15:

    eta_1p  = η(q)⁴
    eta_6p  = η(q) η(q²) η(q³) η(q⁶)
    eta_10p = η(q) η(q²) η(q⁵) η(q¹⁰)
    eta_12p = η(q²)⁴ η(q⁶)⁴ / (η(q) η(q³) η(q⁴) η(q¹²))
    eta_14p = η(q) η(q²) η(q⁷) η(q¹⁴)
    eta_15p = η(q) η(q³) η(q⁵) η(q¹⁵)

The eta body E is generated by the pentagonal-number theorem.  Any other
eta-product or eta-quotient body is a product of dilated powers E(q^c)^a,
each from Miller's integer recurrence over the sparse pentagonal terms of
E (see `eta_product`); nothing is inverted on the way.  The naive
truncated product is kept in the test-suite as an independent oracle for
both.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Mapping

from .series import (
    Rational,
    SeriesError,
    TruncatedSeries,
    _convolve,
    _frac,
    _terms,
)


class OffsetError(SeriesError):
    """Offsets that cannot be reconciled or leave (1/24)·Z."""


def _check_offset(off: Fraction) -> Fraction:
    if 24 % off.denominator:
        raise OffsetError(f"offset {off} is not in (1/24)·Z")
    return off


class QExpansion:
    """q^offset times a unit power series in q, all arithmetic exact."""

    __slots__ = ("offset", "body")

    def __init__(self, offset: Rational, body: TruncatedSeries):
        self.offset = _check_offset(_frac(offset))
        self.body = body

    @classmethod
    def constant(cls, value: Rational, order: int) -> "QExpansion":
        return cls(0, TruncatedSeries([value], order))

    @property
    def order(self) -> int:
        return self.body.order

    def coefficient(self, exponent: Rational) -> Fraction:
        """Coefficient of q^exponent (zero off the support lattice)."""
        idx = _frac(exponent) - self.offset
        if idx.denominator != 1 or idx < 0:
            return Fraction(0)
        if idx > self.order:
            raise IndexError(f"q^{exponent} beyond truncation")
        return self.body.coeffs[int(idx)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self.offset == other.offset and self.body == other.body

    def __hash__(self):
        return hash((self.offset, self.body))

    def __repr__(self) -> str:
        return f"QExpansion(offset={self.offset}, body={self.body!r})"

    def __mul__(self, other) -> "QExpansion":
        if isinstance(other, (int, Fraction)):
            return QExpansion(self.offset, self.body * other)
        return QExpansion(self.offset + other.offset, self.body * other.body)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QExpansion":
        if isinstance(other, (int, Fraction)):
            return QExpansion(self.offset, self.body / other)
        return QExpansion(self.offset - other.offset, self.body / other.body)

    def reciprocal(self) -> "QExpansion":
        return QExpansion(-self.offset, self.body.reciprocal())

    def __add__(self, other) -> "QExpansion":
        """Sum; offsets must differ by an integer.

        The body with the larger offset is shifted by d zeros into the
        frame of the smaller offset, and the two bodies add as series.  If
        leading terms cancel the offset is advanced past them.
        """
        if isinstance(other, (int, Fraction)):
            other = QExpansion.constant(other, self.order)
        lo, hi = (self, other) if self.offset <= other.offset else (other, self)
        d = hi.offset - lo.offset
        if d.denominator != 1:
            raise OffsetError(f"offsets {lo.offset} and {hi.offset} differ by {d}")
        d = int(d)
        body = lo.body + TruncatedSeries((0,) * d + hi.body.coeffs, hi.order + d)
        v = body.valuation()
        if 0 < v <= body.order:
            body = TruncatedSeries(body.coeffs[v:], body.order - v)
            return QExpansion(lo.offset + v, body)
        return QExpansion(lo.offset, body)

    __radd__ = __add__

    def __neg__(self) -> "QExpansion":
        return QExpansion(self.offset, -self.body)

    def __sub__(self, other) -> "QExpansion":
        return self + (-other)

    def __pow__(self, n: int) -> "QExpansion":
        return QExpansion(self.offset * n, self.body ** n)

    def pow_rational(self, e: Rational) -> "QExpansion":
        """Power with rational exponent; the body must be a unit with constant 1."""
        return QExpansion(self.offset * e, self.body.pow_rational(e))

    def truncate(self, order: int) -> "QExpansion":
        return QExpansion(self.offset, self.body.truncate(order))

    def to_json(self) -> dict:
        off24 = self.offset * 24
        return {
            "offset": f"{off24.numerator}/24",
            "order": self.order,
            "coeffs": [str(c) for c in self.body.coeffs],
        }


# -- Dedekind eta ------------------------------------------------------------


def _eta_body_coeffs(order: int) -> tuple:
    """Coefficients of Π (1 - q^n) by the pentagonal-number theorem.

    The exponents k(3k∓1)/2 are the generalized pentagonal numbers and the
    sign is (-1)^k, so the body is 1 - q - q² + q⁵ + q⁷ - q¹² - ...
    """
    cs = [0] * (order + 1)
    cs[0] = 1
    k = 1
    while True:
        p1 = k * (3 * k - 1) // 2
        p2 = k * (3 * k + 1) // 2
        if p1 > order:
            break
        sign = -1 if k % 2 else 1
        cs[p1] = sign
        if p2 <= order:
            cs[p2] = sign
        k += 1
    return tuple(cs)


def eta(order: int) -> QExpansion:
    """Dedekind eta: offset 1/24, pentagonal-number body."""
    if order < 1:
        raise SeriesError("eta needs order >= 1")
    return QExpansion(Fraction(1, 24), TruncatedSeries(_eta_body_coeffs(order), order))


def _sigma_table(order: int, power: int) -> list:
    """σ_power(n) = Σ_{d|n} d^power for n = 0..order by a divisor sieve."""
    s = [0] * (order + 1)
    for d in range(1, order + 1):
        dp = d ** power
        for n in range(d, order + 1, d):
            s[n] += dp
    return s


# An eta exponent map sends a cycle length i to the exponent of η(q^i);
# negative exponents give eta-quotients.
EtaExponentMap = Mapping[int, int]


def _eta_power(a: int, order: int) -> list:
    """Π (1 - q^n)^a through q^order by J.C.P. Miller's recurrence on the
    pentagonal body E: f_0 = 1 and n·f_n = Σ_k ((a+1)k − n)·E_k·f_(n−k).

    This is q·f'/f = a·q·E'/E with E cleared, so the sum runs over the
    ~2√(2n/3) nonzero E_k only.  The f_n are integers (E_0 = 1), so every
    division by n is exact.
    """
    nz_e = _terms(_eta_body_coeffs(order), order)[1:]
    f = [1]
    for n in range(1, order + 1):
        acc = 0
        for k, ek in nz_e:
            if k > n:
                break
            acc += ((a + 1) * k - n) * ek * f[n - k]
        fn, rem = divmod(acc, n)
        if rem:
            raise SeriesError(f"eta power coefficient q^{n} is not an integer")
        f.append(fn)
    return f


def eta_product(exponents: EtaExponentMap, order: int) -> QExpansion:
    """Π_i η(q^i)^{a_i} as a QExpansion with offset Σ i·a_i / 24.

    With g the gcd of the cycle lengths, the body is F(q^g) for
    F = Π_i E(q^(i/g))^{a_i} and E the pentagonal body, so F is built
    through q^(K//g) and spread.  Each factor E^{a_i} comes from Miller's
    recurrence on the sparse E (`_eta_power`) through q^(K//i) and is
    dilated by i/g; the factors are multiplied sparsest first, so the
    dilated ones meet each other before the dense ones.
    """
    if order < 1:
        raise SeriesError("eta_product needs order >= 1")
    for i, a in exponents.items():
        if not isinstance(a, int):
            raise TypeError(f"eta exponent {a!r} of cycle length {i} is not an int")
        if i < 1:
            raise SeriesError(f"cycle length {i} is not positive")
    cycles = [i for i, a in exponents.items() if a]
    g = gcd(*cycles) or 1
    top = order // g
    # E(q^(i/g))^a through q^top, as the nonzero terms of E^a through q^(K//i)
    factors = sorted(
        ([(i // g * n, x) for n, x in enumerate(_eta_power(exponents[i], order // i)) if x]
         for i in cycles),
        key=len,
    )
    nz_f = [(0, 1)]
    for nz in factors:
        nz_f = _terms(_convolve(nz_f, nz, top), top)
    body = [0] * (order + 1)
    for n, x in nz_f:
        body[g * n] = x
    return QExpansion(Fraction(sigma1(exponents), 24), TruncatedSeries(body, order))


def sigma1(exponents: EtaExponentMap) -> int:
    """24 times the valuation of the eta-product: Σ i·a_i.

    Taken with the positive sign, which is the one matching every exponent
    that actually multiplies a Hauptmodul in the identities (1/6, 1/2, 3/4,
    1/2, 1, 1 for levels 1, 6, 10, 12, 14, 15).
    """
    return sum(i * a for i, a in exponents.items())


ETA_PRODUCTS: Dict[str, Dict[int, int]] = {
    "1+": {1: 4},
    "6+": {1: 1, 2: 1, 3: 1, 6: 1},
    "10+": {1: 1, 2: 1, 5: 1, 10: 1},
    "12+": {2: 4, 6: 4, 1: -1, 3: -1, 4: -1, 12: -1},
    "14+": {1: 1, 2: 1, 7: 1, 14: 1},
    "15+": {1: 1, 3: 1, 5: 1, 15: 1},
}


# -- Eisenstein E4, discriminant, Klein j ------------------------------------


def eisenstein_e4(order: int) -> QExpansion:
    """E4 = 1 + 240 Σ_{n≥1} σ₃(n) q^n, offset 0."""
    if order < 1:
        raise SeriesError("eisenstein_e4 needs order >= 1")
    s3 = _sigma_table(order, 3)
    cs = [Fraction(1)] + [Fraction(240 * s3[n]) for n in range(1, order + 1)]
    return QExpansion(0, TruncatedSeries(cs, order))


def discriminant(order: int) -> QExpansion:
    """Delta = eta^24: offset 1, body Π (1-q^n)^24 = 1 - 24q + 252q² - ..."""
    return eta_product({1: 24}, order)


def klein_j(order: int) -> QExpansion:
    """j = E4³ / Delta: offset -1, body 1 + 744 q + 196884 q² + ..."""
    e4 = eisenstein_e4(order)
    return (e4 * e4 * e4) / discriminant(order)
