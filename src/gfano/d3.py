"""The five-parameter family of D3 differential operators and their solutions.

With D = t·d/dt the normalized operator is

    L(b1..b5) = D³ - t·b1·D(D+1)(2D+1) - t²·(D+1)(b2·D(D+2) + 4·b3)
                   - t³·b4·(D+1)(D+2)(2D+3) - t⁴·b5·(D+1)(D+2)(D+3)

Each L has a one-dimensional space of analytic solutions normalized to
start at 1; the coefficients obey the four-term recursion (derived from
the operator by reading off the t^n coefficient of L f = 0)

    n³ c_n = b1·n(n-1)(2n-1)·c_{n-1} + (n-1)(b2·n(n-2) + 4 b3)·c_{n-2}
           + b4·(n-1)(n-2)(2n-3)·c_{n-3} + b5·(n-1)(n-2)(n-3)·c_{n-4}

which in particular forces c_1 = 0.  Both the recursion and the action
of L run on integers.  With the b's over their common denominator d,
B_i = d·b_i, and P_j(n)·B the integer factor d times the factor of c_{n-j}
above, the scaled coefficients C_n = n!³·d^n·c_n obey

    C_n = Σ_{j=1..4} P_j(n)·B·C_{n-j}·((n-1)!/(n-j)!)³·d^(j-1),   C_0 = 1,

so each step multiplies big ints by small ones, and c_n = C_n/(n!³·d^n)
is one reduced Fraction.  apply_operator sums the same integer factors
over the numerators of f and divides by d times their denominator.

The catalog below lists the six operators whose solutions are the
normalized quantum periods of the higher-rank G-Fano threefolds.

The parameters also come in an alternate a-basis related over Z by

    b1 = a11, b2 = a12 + 2 a01 - a11², b3 = a01,
    b4 = a02 - a01 a11, b5 = a03 - a01².
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .series import Rational, TruncatedSeries, _frac, _scaled


@dataclass(frozen=True)
class D3Operator:
    b1: Fraction
    b2: Fraction
    b3: Fraction
    b4: Fraction
    b5: Fraction

    def __init__(self, b1: Rational, b2: Rational, b3: Rational,
                 b4: Rational, b5: Rational):
        for name, value in zip(("b1", "b2", "b3", "b4", "b5"),
                               (b1, b2, b3, b4, b5)):
            object.__setattr__(self, name, _frac(value))

    def to_a_basis(self) -> tuple:
        """(a01, a02, a03, a11, a12) of the same operator."""
        a01 = self.b3
        a02 = self.b4 + self.b1 * self.b3
        a03 = self.b5 + self.b3 ** 2
        a11 = self.b1
        a12 = self.b2 - 2 * self.b3 + self.b1 ** 2
        return (a01, a02, a03, a11, a12)

    def to_json(self) -> dict:
        return {"b": [str(b) for b in (self.b1, self.b2, self.b3, self.b4, self.b5)]}

    @classmethod
    def from_json(cls, data: dict) -> "D3Operator":
        return cls(*[Fraction(b) for b in data["b"]])


def from_a_basis(a01: Rational, a02: Rational, a03: Rational,
                 a11: Rational, a12: Rational) -> D3Operator:
    a01, a02, a03, a11, a12 = map(_frac, (a01, a02, a03, a11, a12))
    return D3Operator(
        b1=a11,
        b2=a12 + 2 * a01 - a11 ** 2,
        b3=a01,
        b4=a02 - a01 * a11,
        b5=a03 - a01 ** 2,
    )


#: The six operators annihilating the normalized G-Fano quantum periods.
OPERATORS = {
    "L6,2": D3Operator(6, 368, 88, 1056, 3584),
    "L6,3": D3Operator(8, 360, 108, 864, 2160),
    "L10": D3Operator(2, 112, 28, 184, 336),
    "L12": D3Operator(2, 80, 24, 96, 0),
    "L14": D3Operator(1, 59, 16, 68, 80),
    "L15": D3Operator(1, 43, 12, 78, 216),
}


def _scaled_operator(op: D3Operator) -> tuple[tuple[int, ...], int]:
    """(B1..B5, d): the b's times their common denominator d, as ints."""
    bs = (op.b1, op.b2, op.b3, op.b4, op.b5)
    d = lcm(*(b.denominator for b in bs))
    return tuple(b.numerator * (d // b.denominator) for b in bs), d


def _weights(big_b: tuple[int, ...], n: int) -> tuple[int, int, int, int]:
    """d times the factors of c_(n-1) .. c_(n-4) in the t^n recursion."""
    b1, b2, b3, b4, b5 = big_b
    return (
        b1 * n * (n - 1) * (2 * n - 1),
        (n - 1) * (b2 * n * (n - 2) + 4 * b3),
        b4 * (n - 1) * (n - 2) * (2 * n - 3),
        b5 * (n - 1) * (n - 2) * (n - 3),
    )


def apply_operator(op: D3Operator, f: TruncatedSeries) -> TruncatedSeries:
    """Exact action of L on a truncated series, same truncation order.

    D multiplies the n-th coefficient by n; the t^j factors shift indices
    up by j, so the t^n output coefficient only needs f_{n-4} .. f_n.
    The sum runs on the integer numerators F of f = F/D and is divided by
    d·D once per coefficient.
    """
    big_b, d = _scaled_operator(op)
    k = f.order
    cs, big_d = _scaled(f.coeffs, k)
    out = []
    for n in range(k + 1):
        acc = d * n ** 3 * cs[n]
        for j, w in enumerate(_weights(big_b, n)[:n], 1):
            acc -= w * cs[n - j]
        out.append(Fraction(acc, d * big_d))
    return TruncatedSeries(out, k)


def holomorphic_solution(op: D3Operator, order: int) -> TruncatedSeries:
    """The analytic solution with constant term 1, by the coefficient recursion.

    The recursion runs on the integers C_n = n!³·d^n·c_n; see the module
    docstring.
    """
    big_b, d = _scaled_operator(op)
    big_c = [1]
    out = [Fraction(1)]
    scale = 1
    for n in range(1, order + 1):
        acc = 0
        falling = 1  # ((n-1)!/(n-j)!)³ · d^(j-1)
        for j, w in enumerate(_weights(big_b, n)[:n], 1):
            if w:
                acc += w * falling * big_c[n - j]
            falling *= (n - j) ** 3 * d
        big_c.append(acc)
        scale *= n ** 3 * d
        out.append(Fraction(acc, scale))
    return TruncatedSeries(out, order)
