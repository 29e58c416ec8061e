"""Quantum periods of the eight G-Fano threefold families.

Every family carries a closed coefficient formula for its I-series (the
regularized, exponentially shifted G-series).  Four of them are a binomial
sum a_k, times C(2k,k) for Y12_2 and Y12_3:

    Y20    i_k = a_k = Σ_j C(k,j)^4
    Y24    i_k = a_k = Σ multinomial(k;a,b,c,d)^2 = Σ_j C(k,j)^2 C(2j,j) C(2k-2j,k-j)
    Y12_2  i_k = C(2k,k)·a_k,  a_k = Σ_j C(k,j)^3
    Y12_3  i_k = C(2k,k)·a_k,  a_k = Σ multinomial(k;a,b,c)^2 = Σ_j C(k,j)^2 C(2j,j)

(grouping the multinomial by the first j parts gives the Y24 and Y12_3
forms).  Each a_k runs from a_0 = 1 and a_1 by the two-term recurrence
that creative telescoping gives for its sum (Petkovšek, Wilf & Zeilberger,
*A = B*, 1996), one exact division per coefficient:

    Y20    (n+1)³·a_(n+1) = 2(2n+1)(3n²+3n+1)·a_n + 4n(4n−1)(4n+1)·a_(n−1),  a_1 = 2
    Y24    (n+1)³·a_(n+1) = 2(2n+1)(5n²+5n+2)·a_n − 64n³·a_(n−1),             a_1 = 4
    Y12_2  (n+1)²·a_(n+1) = (7n²+7n+2)·a_n + 8n²·a_(n−1),                  a_1 = 2
    Y12_3  (n+1)²·a_(n+1) = (10n²+10n+3)·a_n − 9n²·a_(n−1),                a_1 = 3

(Y12_2's a_k are the Franel numbers and Y24's the Domb numbers; C(2k,k)
comes from its own term ratio).  The other two:

    X6     i_k = (6k)! / ((3k)! k!^3)
    Y30    i_k = Σ_{a+b+c=k} (a+b)!(a+c)!(b+c)!k! / (a!b!c!)^3
               = Σ_a C(k,a) S(a,k-a),  S(a,m) = Σ_b C(m,b)^2 C(a+b,a) C(a+m-b,a)

In Y30's triple sum c = m − b for m = k − a, so both C(b+c,b) and
C(k−a,b) are C(m,b).  For each a, S runs along m by the
creative-telescoping recurrence of its binomial sum, from S(a,0) = 1 and
S(a,1) = 2(a+1), and Pascal's triangle grown to the order gives C(k,a):

    (m+2)³·S(a,m+2) = (7am² + 21am + 16a + 5m³ + 26m² + 45m + 26)·S(a,m+1)
                      + 2(m+1)(2a−2m−1)(2a+m+2)·S(a,m)

so the series costs O(K²) big-int steps, not the triple sum's O(K³).
Every recurrence comes from its sum, not from the family's D3 operator,
so the identity rows' check that normalize(I) solves the operator still
tests every coefficient.

The I-series is chosen by the kind of period, never by the key: an
index-2 family (Y48_2, Y48_3) is its partner Y12_2 or Y12_3 at t²; a
family in the table `_CLOSED_FORMS` has its closed form; any other (Y28,
with no closed hypergeometric form) is its operator's analytic solution
and has no G-series of its own (`FreeShift`).

The G-series is recovered by G = exp(-s t)·L⁻¹(I), computed as
L⁻¹(normalize(I)), where s is the linear coefficient of I, and Givental's
constant (the expected number of anticanonical conics through a point) is
its t² coefficient.

`FAMILIES` is the one source of the correspondence-table rows that have a
family; each stores c − s, the constant term of T = 1/H_{c−s}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import add, mul
from typing import Callable, Dict, NamedTuple, Optional, Union

from . import d3
from .qexp import ETA_PRODUCTS
from .series import (
    SeriesError,
    TruncatedSeries,
    inverse_laplace,
    normalize,
)


class UnknownFamily(KeyError):
    """Family key not in the registry."""


class FreeShift(ValueError):
    """G-series requested for a family whose I-series is its operator's
    solution itself (Y28 with L14), so it has no G-series of its own."""


class FamilyDescriptor(NamedTuple):
    """One deformation class and its row of modular bookkeeping.

    shift is the row's s, or None where every integer shift gives an
    identity; c_minus_s is c − s, so the row's c is s + c_minus_s whether
    s is pinned or free.  An index-2 row prints c relative to s: it is
    verified through its partner's row (`EVEN_REDUCTION`).
    """

    key: str
    N: int
    degree: int
    rho: int
    index: int
    shift: Optional[int]
    c_minus_s: int
    hauptmodul: str
    eta: str
    d3_operator: Optional[str]

    @property
    def exponent(self) -> Fraction:
        """σ₁/24 of the attached eta-product."""
        return Fraction(ETA_PRODUCTS[self.eta].sigma1, 24)

    def default_shift(self, i_series: TruncatedSeries) -> Fraction:
        """The row's s: the pinned shift, or for a free shift the linear
        coefficient of the family's I-series, `i_series`."""
        return Fraction(i_series.coeffs[1] if self.shift is None else self.shift)

    def to_json(self) -> dict:
        pinned = None if self.key in EVEN_REDUCTION else self.shift
        return {
            "key": self.key,
            "N": self.N,
            "degree": self.degree,
            "rho": self.rho,
            "index": self.index,
            "s": "free" if self.shift is None else self.shift,
            "c": printed_constant(pinned, self.c_minus_s),
            "g": self.hauptmodul,
            "eta": self.eta,
            "exponent": str(self.exponent),
            "d3": self.d3_operator,
        }


def printed_constant(s: Optional[int], c_minus_s: int) -> Union[int, str]:
    """A table's c: the number s + (c − s) for a pinned s, else "s+<c − s>"."""
    return f"s+{c_minus_s}" if s is None else s + c_minus_s


FAMILIES: Dict[str, FamilyDescriptor] = {
    f.key: f
    for f in [
        FamilyDescriptor("X6", 1, 2, 1, 1, 120, 624, "1A", "1+", "L1"),
        FamilyDescriptor("Y12_2", 6, 12, 2, 1, 4, 6, "6A", "6+", "L6,2"),
        FamilyDescriptor("Y12_3", 6, 12, 3, 1, 6, 8, "6A", "6+", "L6,3"),
        FamilyDescriptor("Y20", 10, 20, 2, 1, 2, 2, "10A", "10+", "L10"),
        FamilyDescriptor("Y24", 12, 24, 4, 1, 4, 2, "12A", "12+", "L12"),
        # No closed form: Y28's period tie compares L14's solution with itself.
        FamilyDescriptor("Y28", 14, 28, 2, 1, None, 1, "14A", "14+", "L14"),
        FamilyDescriptor("Y30", 15, 30, 3, 1, None, 1, "15A", "15+", "L15"),
        FamilyDescriptor("Y48_2", 6, 48, 2, 2, 0, 1, "6A", "6+", None),
        FamilyDescriptor("Y48_3", 6, 48, 3, 2, 0, 1, "6A", "6+", None),
    ]
}

#: Index-2 family -> the index-1 family with the same I-series in t².
EVEN_REDUCTION = {"Y48_2": "Y12_2", "Y48_3": "Y12_3"}


def family(key: str) -> FamilyDescriptor:
    try:
        return FAMILIES[key]
    except KeyError:
        raise UnknownFamily(key) from None


# -- I-series coefficient generators -----------------------------------------


def _pascal(n: int) -> list:
    """Rows 0..n of Pascal's triangle, row m holding C(m, 0..m)."""
    rows = [[1]]
    for _ in range(n):
        last = rows[-1]
        rows.append([1, *map(add, last, last[1:]), 1])
    return rows


def _central(n: int) -> list:
    """C(2k, k) for k = 0..n."""
    out = [1]
    for k in range(n):
        out.append(out[-1] * 2 * (2 * k + 1) // (k + 1))
    return out


def _recurrence(key: str, a1: int, step: Callable[[int], tuple[int, int, int]],
                order: int) -> list:
    """a_0..a_order of `key`'s binomial sum from a_0 = 1, a_1 and its
    recurrence l·a_(n+1) = p·a_n + r·a_(n−1), where step(n) = (l, p, r);
    a division that leaves a remainder raises SeriesError."""
    out = [1, a1][: order + 1]
    for n in range(1, order):
        lead, p, r = step(n)
        a, rem = divmod(p * out[n] + r * out[n - 1], lead)
        if rem:
            raise SeriesError(f"{key} sum a_{n + 1} is not an integer")
        out.append(a)
    return out


def _x6(order: int) -> list:
    return [factorial(6 * k) // (factorial(3 * k) * factorial(k) ** 3)
            for k in range(order + 1)]


def _y12_2(order: int) -> list:
    sums = _recurrence("Y12_2", 2, lambda n: (
        (n + 1) ** 2, 7 * n * n + 7 * n + 2, 8 * n * n), order)
    return list(map(mul, _central(order), sums))


def _y12_3(order: int) -> list:
    sums = _recurrence("Y12_3", 3, lambda n: (
        (n + 1) ** 2, 10 * n * n + 10 * n + 3, -9 * n * n), order)
    return list(map(mul, _central(order), sums))


def _y20(order: int) -> list:
    return _recurrence("Y20", 2, lambda n: (
        (n + 1) ** 3, 2 * (2 * n + 1) * (3 * n * n + 3 * n + 1),
        4 * n * (4 * n - 1) * (4 * n + 1)), order)


def _y24(order: int) -> list:
    return _recurrence("Y24", 4, lambda n: (
        (n + 1) ** 3, 2 * (2 * n + 1) * (5 * n * n + 5 * n + 2), -64 * n ** 3), order)


def _y30(order: int) -> list:
    """i_0..i_order of Y30 as Σ_a C(k,a)·S(a,k−a), each S(a, ·) from the
    module docstring's recurrence; a division that leaves a remainder
    raises SeriesError."""
    rows = _pascal(order)
    out = [0] * (order + 1)
    for a in range(order + 1):
        s0, s1 = 1, 2 * (a + 1)
        out[a] += s0
        if a < order:
            out[a + 1] += rows[a + 1][a] * s1
        for m in range(order - a - 1):
            acc = ((7 * a * m * m + 21 * a * m + 16 * a
                    + 5 * m ** 3 + 26 * m * m + 45 * m + 26) * s1
                   + 2 * (m + 1) * (2 * a - 2 * m - 1) * (2 * a + m + 2) * s0)
            s2, rem = divmod(acc, (m + 2) ** 3)
            if rem:
                raise SeriesError(f"Y30 sum S({a}, {m + 2}) is not an integer")
            out[a + m + 2] += rows[a + m + 2][a] * s2
            s0, s1 = s1, s2
    return out


#: Closed-form family -> generator of its integer coefficients i_0..i_order.
_CLOSED_FORMS = {
    "X6": _x6, "Y12_2": _y12_2, "Y12_3": _y12_3, "Y20": _y20, "Y24": _y24, "Y30": _y30,
}


#: Entries kept by the I-series cache, the bound of the Hauptmodul route
#: caches.  One periods pass (order 100) fills 11 (key, order) keys, and
#: one battery pass (order 60) fills 7.
ISERIES_CACHE_SIZE = 16


def iseries(key: str, order: int) -> TruncatedSeries:
    """The I-series of the family, exact to the requested order.

    Built once per (key, order) and shared: `gseries`, the index-2
    series and the identity rows all ask for the same series.  The
    cache sits on `_iseries`, so that this stays a plain function, which
    the span tracer in perfbench/spans.py rebinds.
    """
    return _iseries(key, order)


@lru_cache(maxsize=ISERIES_CACHE_SIZE)
def _iseries(key: str, order: int) -> TruncatedSeries:
    fam = family(key)  # raises UnknownFamily
    if key in EVEN_REDUCTION:
        inner = iseries(EVEN_REDUCTION[key], order // 2)
        cs = [Fraction(0)] * (order + 1)
        for n, c in enumerate(inner.coeffs):
            cs[2 * n] = c
        return TruncatedSeries(cs, order)
    if key in _CLOSED_FORMS:
        return TruncatedSeries(_CLOSED_FORMS[key](order), order)
    return d3.holomorphic_solution(d3.OPERATORS[fam.d3_operator], order)


def gseries(key: str, order: int) -> TruncatedSeries:
    """G = exp(-s t) · L⁻¹(I) = L⁻¹(normalize(I)), s the linear coefficient
    of I; constant term 1 and zero linear term."""
    fam = family(key)  # raises UnknownFamily
    if key not in EVEN_REDUCTION and key not in _CLOSED_FORMS:
        raise FreeShift(f"{key} has no independent G-series: its I-series is the "
                        f"solution of {fam.d3_operator}")
    return inverse_laplace(normalize(iseries(key, order)))


def givental_constant(key: str) -> Fraction:
    """The t² coefficient of the G-series."""
    return gseries(key, 2).coeffs[2]
