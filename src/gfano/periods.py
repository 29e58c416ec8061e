"""Quantum periods of the eight G-Fano threefold families.

Every family carries a closed coefficient formula for its I-series (the
regularized, exponentially shifted G-series).  The multi-index sums
reduce to single or double sums of binomials, so each generator adds and
multiplies small Python ints read from one Pascal triangle grown to the
order (C(2j,j) from its own recurrence):

    Y20    i_k = Σ_a C(k,a)^4
    Y24    i_k = Σ multinomial(k;a,b,c,d)^2 = Σ_j C(k,j)^2 C(2j,j) C(2k-2j,k-j)
    Y12_2  i_k = C(2k,k) Σ_a C(k,a)^3
    Y12_3  i_k = C(2k,k) Σ multinomial(k;a,b,c)^2 = C(2k,k) Σ_j C(k,j)^2 C(2j,j)
    Y30    i_k = Σ_{a+b+c=k} (a+b)!(a+c)!(b+c)!k! / (a!b!c!)^3
               = Σ_{a+b+c=k} C(a+b,a) C(a+c,a) C(b+c,b) C(k,a) C(k-a,b)
    X6     i_k = (6k)! / ((3k)! k!^3)

(Grouping the multinomial by the first j parts gives the Y24 and Y12_3
forms; Y30's sum is symmetric in a, b, c and runs over a <= b <= c.)

Y28 has no closed hypergeometric form; its I-series is defined as the
analytic solution of the operator L14 (it already has zero linear term).
The index-2 families Y48_2 and Y48_3 are the even-variable versions of
Y12_2 and Y12_3: I(t) of the index-1 family evaluated at t².

The G-series is recovered by G = exp(-s t)·L⁻¹(I), computed as
L⁻¹(regular_shift(I, -s)), where s is the linear coefficient of I, and
Givental's constant (the expected number of anticanonical conics through
a point) is its t² coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, NamedTuple, Optional

from . import d3
from .qexp import ETA_PRODUCTS, sigma1
from .series import (
    SeriesError,
    TruncatedSeries,
    inverse_laplace,
    laplace,
    regular_shift,
)

#: Shift marker for families where any integer shift produces an identity.
FREE = None


class UnknownFamily(KeyError):
    """Family key not in the registry."""


class FreeShift(ValueError):
    """G-series requested for a family without a pinned shift."""


class NonzeroLinearTerm(SeriesError):
    """A G-series whose linear term the shift should have cancelled."""


class FamilyDescriptor(NamedTuple):
    """One deformation class and its row of modular bookkeeping.

    shift is None for families where the shift is free (the constant then
    follows the rule c = s + 1); formula_shift is the linear coefficient
    of the I-series as generated, which is what gseries() undoes.
    """

    key: str
    N: int
    degree: int
    rho: int
    index: int
    shift: Optional[int]
    constant: Optional[int]
    formula_shift: int
    hauptmodul: str
    eta: str
    d3_operator: Optional[str]

    @property
    def exponent(self) -> Fraction:
        """σ₁/24 of the attached eta-product."""
        return Fraction(sigma1(ETA_PRODUCTS[self.eta]), 24)

    def default_shift(self) -> int:
        return self.shift if self.shift is not None else self.formula_shift

    def default_constant(self, s: Optional[int] = None) -> int:
        if self.constant is not None:
            return self.constant
        s = self.default_shift() if s is None else s
        return s + 1

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "N": self.N,
            "degree": self.degree,
            "rho": self.rho,
            "index": self.index,
            "s": "free" if self.shift is None else self.shift,
            "c": "s+1" if self.constant is None else self.constant,
            "g": self.hauptmodul,
            "eta": self.eta,
            "exponent": str(self.exponent),
            "d3": self.d3_operator,
        }


FAMILIES: Dict[str, FamilyDescriptor] = {
    f.key: f
    for f in [
        FamilyDescriptor("X6", 1, 2, 1, 1, 120, 744, 120, "1A", "1+", "L1"),
        FamilyDescriptor("Y12_2", 6, 12, 2, 1, 4, 10, 4, "6A", "6+", "L6,2"),
        FamilyDescriptor("Y12_3", 6, 12, 3, 1, 6, 14, 6, "6A", "6+", "L6,3"),
        FamilyDescriptor("Y20", 10, 20, 2, 1, 2, 4, 2, "10A", "10+", "L10"),
        FamilyDescriptor("Y24", 12, 24, 4, 1, 4, 6, 4, "12A", "12+", "L12"),
        FamilyDescriptor("Y28", 14, 28, 2, 1, FREE, None, 0, "14A", "14+", "L14"),
        FamilyDescriptor("Y30", 15, 30, 3, 1, FREE, None, 3, "15A", "15+", "L15"),
        FamilyDescriptor("Y48_2", 6, 48, 2, 2, 0, None, 0, "6A", "6+", None),
        FamilyDescriptor("Y48_3", 6, 48, 3, 2, 0, None, 0, "6A", "6+", None),
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
        rows.append([1] + [x + y for x, y in zip(last, last[1:])] + [1])
    return rows


def _central(n: int) -> list:
    """C(2k, k) for k = 0..n."""
    out = [1]
    for k in range(n):
        out.append(out[-1] * 2 * (2 * k + 1) // (k + 1))
    return out


def _y30_coeff(rows: list, k: int) -> int:
    """Σ_{a+b+c=k} C(a+b,a)·C(a+c,a)·C(b+c,b)·C(k,a)·C(k-a,b), summed over
    a <= b <= c and weighted by the number of distinct permutations."""
    total = 0
    for a in range(k // 3 + 1):
        for b in range(a, (k - a) // 2 + 1):
            c = k - a - b
            term = (rows[a + b][a] * rows[a + c][a] * rows[b + c][b]
                    * rows[k][a] * rows[k - a][b])
            if a == b == c:
                total += term
            elif a == b or b == c:
                total += 3 * term
            else:
                total += 6 * term
    return total


def _closed_form_coeffs(key: str, order: int) -> list:
    """The integer coefficients i_0..i_order of a closed-form family."""
    if key == "X6":
        return [factorial(6 * k) // (factorial(3 * k) * factorial(k) ** 3)
                for k in range(order + 1)]
    rows = _pascal(order)
    if key == "Y20":
        return [sum(x ** 4 for x in row) for row in rows]
    if key == "Y30":
        return [_y30_coeff(rows, k) for k in range(order + 1)]
    central = _central(order)
    if key == "Y24":
        return [sum(x * x * central[j] * central[k - j] for j, x in enumerate(row))
                for k, row in enumerate(rows)]
    if key == "Y12_2":
        return [central[k] * sum(x ** 3 for x in row) for k, row in enumerate(rows)]
    if key == "Y12_3":
        return [central[k] * sum(x * x * central[j] for j, x in enumerate(row))
                for k, row in enumerate(rows)]
    raise UnknownFamily(key)


#: Entries kept by the I-series cache, the bound of the Hauptmodul route
#: caches.  One periods pass (order 100) and one battery pass (order 60)
#: each fill 11 (key, order) keys.
ISERIES_CACHE_SIZE = 16


def iseries(key: str, order: int) -> TruncatedSeries:
    """The I-series of the family, exact to the requested order.

    Built once per (key, order) and shared: `gseries`, the even
    substitution and the identity rows all ask for the same series.  The
    cache sits on `_iseries`, so that this stays a plain function, which
    the span tracer in perfbench/spans.py rebinds.
    """
    return _iseries(key, order)


@lru_cache(maxsize=ISERIES_CACHE_SIZE)
def _iseries(key: str, order: int) -> TruncatedSeries:
    family(key)  # raises UnknownFamily
    if key in EVEN_REDUCTION:
        inner = iseries(EVEN_REDUCTION[key], order // 2)
        cs = [Fraction(0)] * (order + 1)
        for n, c in enumerate(inner.coeffs):
            cs[2 * n] = c
        return TruncatedSeries(cs, order)
    if key == "Y28":
        return d3.holomorphic_solution(d3.OPERATORS["L14"], order)
    return TruncatedSeries(_closed_form_coeffs(key, order), order)


def gseries(key: str, order: int) -> TruncatedSeries:
    """G = exp(-s t) · L⁻¹(I) = L⁻¹(regular_shift(I, -s)); constant term 1
    and zero linear term."""
    fam = family(key)
    if fam.key == "Y28":
        raise FreeShift("Y28 has no pinned shift; its I-series is defined directly")
    g = inverse_laplace(regular_shift(iseries(key, order), -fam.formula_shift))
    if g.order >= 1 and g.coeffs[1]:
        raise NonzeroLinearTerm(f"G-series of {key} has linear term {g.coeffs[1]}")
    return g


def givental_constant(key: str) -> Fraction:
    """The t² coefficient of the G-series."""
    return gseries(key, 2).coeffs[2]


# -- inter-family relations ---------------------------------------------------


class RelationReport(NamedTuple):
    name: str
    order: int
    ok: bool
    first_mismatch: Optional[int] = None
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None

    def to_json(self) -> dict:
        data = {
            "relation": self.name,
            "order": self.order,
            "status": "PASS" if self.ok else "FAIL",
            "first_mismatch": self.first_mismatch,
        }
        if self.first_mismatch is not None:
            data["lhs"] = str(self.lhs)
            data["rhs"] = str(self.rhs)
        return data


def _even_substitution(key2: str, order: int) -> RelationReport:
    """One index-2 I-series against its index-1 partner in t², by
    re-indexing: even coefficients equal the partner's, odd ones vanish."""
    key1 = EVEN_REDUCTION[key2]
    even = iseries(key2, order).coeffs
    base = iseries(key1, order // 2).coeffs
    expected = [Fraction(0)] * (order + 1)
    expected[::2] = base
    bad = next((n for n in range(order + 1) if even[n] != expected[n]), None)
    return RelationReport(
        f"{key2} = {key1}(t^2)", order, bad is None, bad,
        None if bad is None else even[bad],
        None if bad is None else expected[bad],
    )


def check_even_substitution(order: int) -> dict:
    """Index-2 I-series equal their index-1 partners in t², coefficientwise."""
    return {key2: _even_substitution(key2, order) for key2 in sorted(EVEN_REDUCTION)}


def check_exp_relation(order: int) -> RelationReport:
    """The e^x relation between the two index-2 families (common dP6 section).

    Both G-series are even in t.  In the halved variable x = t² their
    x-regularizations differ by the factor e^x:

        L[G(Y48_3)(√x)] = e^x · L[G(Y48_2)(√x)]

    coefficientwise k!·g3_{2k} = Σ_j j!·g2_{2j}/(k-j)!, which is the
    binomial transform between the two coefficient sequences.  It is
    checked as one product exp(x)·h2 = h3 with h_k = k!·g_{2k}.  (The bare,
    unregularized product form already fails at k = 2: 15/4 vs 5.)
    """
    half = order // 2
    h2 = laplace(TruncatedSeries(gseries("Y48_2", order).coeffs[::2], half))
    h3 = laplace(TruncatedSeries(gseries("Y48_3", order).coeffs[::2], half))
    rhs = TruncatedSeries.exponential(1, half) * h2
    bad = next((k for k in range(half + 1) if h3.coeffs[k] != rhs.coeffs[k]), None)
    return RelationReport(
        "L[G(Y48_3)(sqrt x)] = e^x * L[G(Y48_2)(sqrt x)]", order, bad is None, bad,
        None if bad is None else h3.coeffs[bad],
        None if bad is None else rhs.coeffs[bad],
    )
