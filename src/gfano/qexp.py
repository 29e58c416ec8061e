"""q-expansions with fractional leading exponents: eta-products and friends.

A QExpansion is q^offset · body(q) where the offset is a rational with
denominator dividing 24 and the body is a TruncatedSeries with nonzero
constant term.  This is exactly what is needed for

    eta(q)   = q^{1/24} Π_{n≥1} (1 - q^n)
    Delta(q) = eta(q)^24
    E4(q)    = 1 + 240 Σ σ₃(n) q^n
    j(q)     = E4^3 / Delta = 1/q + 744 + 196884 q + ...

and for the eta-quotients Π_δ η(q^δ)^{r_δ}.  Each is an `EtaQuotient`,
the sorted (δ, r) pairs checked once by `EtaQuotient.from_counts`: the
identity products of levels 1, 6, 10, 12, 14, 15 in `ETA_PRODUCTS`,
Delta = 1^24, the Hauptmodul quotients of `hauptmodul` and, through the
`FrameShape` subclass, the M24/S24 frame shapes of `mathieu`.

The eta body E is generated by the pentagonal-number theorem.  Any other
eta-product or eta-quotient body is a product of dilated powers E(q^c)^a,
each from Miller's integer recurrence (`series._miller`, shared with
`pow_rational`) over the sparse pentagonal terms of E (see
`eta_product`); nothing is inverted on the way.  The naive
truncated product is kept in the test-suite as an independent oracle for
both.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Mapping, NamedTuple, Tuple

from .series import (
    Rational,
    SeriesError,
    TruncatedSeries,
    _convolve,
    _frac,
    _miller,
    _terms,
)


class OffsetError(SeriesError):
    """Offsets that cannot be reconciled or leave (1/24)·Z."""


class ParseError(ValueError):
    """Malformed eta-quotient or frame-shape text or counts."""


def _check_offset(off: Fraction) -> Fraction:
    if 24 % off.denominator:
        raise OffsetError(f"offset {off} is not in (1/24)·Z")
    return off


class QExpansion:
    """q^offset times a unit power series in q, all arithmetic exact.

    The body's constant term must be nonzero, so the offset is the
    q-valuation; a body with a zero constant term raises OffsetError.
    The type only multiplies: products, quotients, reciprocals and
    integer or rational powers of expansions.  A sum is taken on the
    bodies in one frame, as `hauptmodul` builds H = f + const + scale/f:
    f = q⁻¹·F when σ₁ = −24, so H = q⁻¹·(F + const·q + scale·q²·F⁻¹).
    """

    __slots__ = ("offset", "body")

    def __init__(self, offset: Rational, body: TruncatedSeries):
        self.offset = _check_offset(_frac(offset))
        if not body.coeffs[0]:
            raise OffsetError(f"body {body!r} has a zero constant term, so the "
                              f"offset {self.offset} is not the q-valuation")
        self.body = body

    @property
    def order(self) -> int:
        return self.body.order

    def __eq__(self, other) -> bool:
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self.offset == other.offset and self.body == other.body

    def __hash__(self):
        return hash((self.offset, self.body))

    def __repr__(self) -> str:
        return f"QExpansion(offset={self.offset}, body={self.body!r})"

    def __mul__(self, other) -> "QExpansion":
        if not isinstance(other, QExpansion):
            return NotImplemented
        return QExpansion(self.offset + other.offset, self.body * other.body)

    def __truediv__(self, other) -> "QExpansion":
        if not isinstance(other, QExpansion):
            return NotImplemented
        return QExpansion(self.offset - other.offset, self.body / other.body)

    def reciprocal(self) -> "QExpansion":
        return QExpansion(-self.offset, self.body.reciprocal())

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


def _sigma_table(order: int, power: int) -> list:
    """σ_power(n) = Σ_{d|n} d^power for n = 0..order by a divisor sieve."""
    s = [0] * (order + 1)
    for d in range(1, order + 1):
        dp = d ** power
        for n in range(d, order + 1, d):
            s[n] += dp
    return s


class EtaQuotient(NamedTuple):
    """Π_δ η(q^δ)^{r_δ} as sorted (δ, r) pairs, int δ ≥ 1 and int r ≠ 0.

    Build it with `from_counts` or `parse`, which check the pairs.
    """

    counts: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "EtaQuotient":
        for i, a in counts.items():
            if not (isinstance(i, int) and isinstance(a, int)):
                raise TypeError(f"cycle length {i!r} and exponent {a!r} must be ints")
        counts = {i: a for i, a in counts.items() if a}
        if any(i < 1 for i in counts):
            raise ParseError("cycle lengths must be positive")
        return cls(tuple(sorted(counts.items())))

    @classmethod
    def parse(cls, text: str) -> "EtaQuotient":
        """Parse "1^2 2^2 3^2 6^2" (bare "i" meaning i^1)."""
        counts: Dict[int, int] = {}
        for token in text.split():
            m = re.fullmatch(r"(\d+)(?:\^(-?\d+))?", token)
            if not m:
                raise ParseError(f"bad token {token!r}")
            i = int(m.group(1))
            a = int(m.group(2)) if m.group(2) else 1
            counts[i] = counts.get(i, 0) + a
        if not counts:
            raise ParseError("empty frame shape")
        return cls.from_counts(counts)

    @property
    def sigma1(self) -> int:
        """Σ δ·r_δ, 24 times the q-valuation of the eta-product."""
        return sum(i * a for i, a in self.counts)

    def __str__(self) -> str:
        return " ".join(f"{i}^{a}" for i, a in self.counts)


def eta_product(g: EtaQuotient, order: int) -> QExpansion:
    """Π_δ η(q^δ)^{r_δ} as a QExpansion with offset σ₁/24.

    The body is Π_δ E(q^δ)^{r_δ}, E the pentagonal body.  Each factor
    E^{r_δ} comes from Miller's recurrence (`series._miller`, with
    m = d = 1) on the sparse E through q^(K//δ), or is E itself for
    r_δ = 1; its nonzero terms, dilated by δ, are convolved into the body
    through q^K, starting from 1.
    """
    if order < 1:
        raise SeriesError("eta_product needs order >= 1")
    body = [1] + [0] * order
    for i, a in g.counts:
        e = _eta_body_coeffs(order // i)
        if a != 1:
            e = _miller(e, a, 1, order // i)
        body = _convolve(_terms(body, order), [(i * n, x) for n, x in enumerate(e) if x], order)
    return QExpansion(Fraction(g.sigma1, 24), TruncatedSeries(body, order))


#: The eta-product of each identity.  Its σ₁/24 (1/6, 1/2, 3/4, 1/2, 1, 1
#: for levels 1, 6, 10, 12, 14, 15) is the exponent of the Hauptmodul.
ETA_PRODUCTS: Dict[str, EtaQuotient] = {
    key: EtaQuotient.parse(text) for key, text in [
        ("1+", "1^4"),
        ("6+", "1 2 3 6"),
        ("10+", "1 2 5 10"),
        ("12+", "2^4 6^4 1^-1 3^-1 4^-1 12^-1"),
        ("14+", "1 2 7 14"),
        ("15+", "1 3 5 15"),
    ]
}

_DELTA = EtaQuotient.parse("1^24")


def eta(order: int) -> QExpansion:
    """Dedekind eta: offset 1/24, the pentagonal-number body itself."""
    return eta_product(EtaQuotient.parse("1"), order)


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
    return eta_product(_DELTA, order)


def klein_j(order: int) -> QExpansion:
    """j = E4³ / Delta: offset -1, body 1 + 744 q + 196884 q² + ..."""
    e4 = eisenstein_e4(order)
    return (e4 * e4 * e4) / discriminant(order)
