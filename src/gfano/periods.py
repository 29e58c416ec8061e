"""Quantum periods of the eight G-Fano threefold families.

Every family carries a closed coefficient formula for its I-series (the
regularized, exponentially shifted G-series).  Writing binomial reductions
as convolutions of Σ t^a/a!^m keeps the generators quadratic in the order:

    Y20    i_k = Σ_a C(k,a)^4            = k!^4 [t^k] (Σ t^a/a!^4)^2
    Y24    i_k = Σ multinomial(k;a,b,c,d)^2 = k!^2 [t^k] (Σ t^a/a!^2)^4
    Y12_2  i_k = C(2k,k) Σ_a C(k,a)^3
    Y12_3  i_k = C(2k,k) Σ multinomial(k;a,b,c)^2
    Y30    i_k = Σ_{a+b+c=k} (a+b)!(a+c)!(b+c)!k! / (a!b!c!)^3
    X6     i_k = (6k)! / ((3k)! k!^3)

Y28 has no closed hypergeometric form; its I-series is defined as the
analytic solution of the operator L14 (it already has zero linear term).
The index-2 families Y48_2 and Y48_3 are the even-variable versions of
Y12_2 and Y12_3: I(t) of the index-1 family evaluated at t².

The G-series is recovered by G = exp(-s t)·L⁻¹(I) where s is the linear
coefficient of I, and Givental's constant (the expected number of
anticanonical conics through a point) is its t² coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Optional

from . import d3
from .qexp import ETA_PRODUCTS, sigma1
from .series import SeriesError, TruncatedSeries, inverse_laplace

#: Shift marker for families where any integer shift produces an identity.
FREE = None


class UnknownFamily(KeyError):
    """Family key not in the registry."""


class FreeShift(ValueError):
    """G-series requested for a family without a pinned shift."""


class NonzeroLinearTerm(SeriesError):
    """A G-series whose linear term the shift should have cancelled."""


@dataclass(frozen=True)
class FamilyDescriptor:
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
        FamilyDescriptor("X6", 1, 2, 1, 1, 120, 744, 120, "1A", "1+", None),
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


def _exp_power_coeffs(m: int, power: int, order: int) -> list:
    """[t^k] (Σ_a t^a / a!^m)^power for k = 0..order, exact rationals."""
    base = TruncatedSeries(
        [Fraction(1, factorial(a) ** m) for a in range(order + 1)], order
    )
    return list((base ** power).coeffs)


@lru_cache(maxsize=None)
def _iseries_coeff(key: str, k: int) -> Fraction:
    if key == "X6":
        return Fraction(factorial(6 * k), factorial(3 * k) * factorial(k) ** 3)
    if key == "Y12_2":
        franel = sum(comb(k, a) ** 3 for a in range(k + 1))
        return Fraction(comb(2 * k, k) * franel)
    if key == "Y30":
        fact = [factorial(i) for i in range(k + 1)]
        total = 0
        for a in range(k + 1):
            for b in range(a, k + 1):
                c = k - a - b
                if c < b:
                    break
                term = (
                    fact[a + b] * fact[a + c] * fact[b + c] * fact[k]
                    // (fact[a] * fact[b] * fact[c]) ** 3
                )
                if a == b == c:
                    mult = 1
                elif a == b or b == c:
                    mult = 3
                else:
                    mult = 6
                total += mult * term
        return Fraction(total)
    raise UnknownFamily(key)


def iseries(key: str, order: int) -> TruncatedSeries:
    """The I-series of the family, exact to the requested order."""
    fam = family(key)
    if key in EVEN_REDUCTION:
        inner = iseries(EVEN_REDUCTION[key], order // 2)
        cs = [Fraction(0)] * (order + 1)
        for n, c in enumerate(inner.coeffs):
            cs[2 * n] = c
        return TruncatedSeries(cs, order)
    if key == "Y28":
        return d3.holomorphic_solution(d3.OPERATORS["L14"], order)
    if key == "Y20":
        conv = _exp_power_coeffs(4, 2, order)
        return TruncatedSeries(
            [Fraction(factorial(k)) ** 4 * conv[k] for k in range(order + 1)], order
        )
    if key == "Y24":
        conv = _exp_power_coeffs(2, 4, order)
        return TruncatedSeries(
            [Fraction(factorial(k)) ** 2 * conv[k] for k in range(order + 1)], order
        )
    if key == "Y12_3":
        conv = _exp_power_coeffs(2, 3, order)
        return TruncatedSeries(
            [comb(2 * k, k) * Fraction(factorial(k)) ** 2 * conv[k]
             for k in range(order + 1)],
            order,
        )
    if key in ("X6", "Y12_2", "Y30"):
        return TruncatedSeries(
            [_iseries_coeff(key, k) for k in range(order + 1)], order
        )
    raise UnknownFamily(key)


def gseries(key: str, order: int) -> TruncatedSeries:
    """G = exp(-s t) · L⁻¹(I); constant term 1 and zero linear term."""
    fam = family(key)
    if fam.key == "Y28":
        raise FreeShift("Y28 has no pinned shift; its I-series is defined directly")
    s = fam.formula_shift
    g = TruncatedSeries.exponential(-s, order) * inverse_laplace(iseries(key, order))
    if g.order >= 1 and g.coeffs[1]:
        raise NonzeroLinearTerm(f"G-series of {key} has linear term {g.coeffs[1]}")
    return g


def givental_constant(key: str) -> Fraction:
    """The t² coefficient of the G-series."""
    return gseries(key, 2).coeffs[2]


# -- inter-family relations ---------------------------------------------------


@dataclass(frozen=True)
class RelationReport:
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


def check_even_substitution(order: int) -> dict:
    """Index-2 I-series equal their index-1 partners in t², coefficientwise."""
    reports = {}
    for key2, key1 in sorted(EVEN_REDUCTION.items()):
        even = iseries(key2, order)
        base = iseries(key1, order)
        substituted = base.compose(TruncatedSeries([0, 0, 1], order))
        bad = next(
            (n for n in range(order + 1)
             if even.coeffs[n] != substituted.coeffs[n]),
            None,
        )
        reports[key2] = RelationReport(
            f"{key2} = {key1}(t^2)", order, bad is None, bad,
            None if bad is None else even.coeffs[bad],
            None if bad is None else substituted.coeffs[bad],
        )
    return reports


def check_exp_relation(order: int) -> RelationReport:
    """The e^x relation between the two index-2 families (common dP6 section).

    Both G-series are even in t.  In the halved variable x = t² their
    x-regularizations differ by the factor e^x:

        L[G(Y48_3)(√x)] = e^x · L[G(Y48_2)(√x)]

    coefficientwise k!·g3_{2k} = Σ_j j!·g2_{2j}/(k-j)!, which is the
    binomial transform between the two coefficient sequences.  (The bare,
    unregularized product form already fails at k = 2: 15/4 vs 5.)
    """
    g2 = gseries("Y48_2", order)
    g3 = gseries("Y48_3", order)
    bad = None
    for k in range(order // 2 + 1):
        lhs = factorial(k) * g3.coeffs[2 * k]
        rhs = sum(
            factorial(j) * g2.coeffs[2 * j] / factorial(k - j) for j in range(k + 1)
        )
        if lhs != rhs:
            bad = k
            break
    return RelationReport(
        "L[G(Y48_3)(sqrt x)] = e^x * L[G(Y48_2)(sqrt x)]", order, bad is None, bad
    )
