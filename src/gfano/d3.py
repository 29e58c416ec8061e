"""The five-parameter family of D3 differential operators and their solutions.

With D = t·d/dt the normalized operator is

    L(b1..b5) = D³ - t·b1·D(D+1)(2D+1) - t²·(D+1)(b2·D(D+2) + 4·b3)
                   - t³·b4·(D+1)(D+2)(2D+3) - t⁴·b5·(D+1)(D+2)(D+3)

Write L = D³ − Σ_{j=1..4} t^j·Q_j(D), with Q_j the four cubics above.
Each L has a one-dimensional space of analytic solutions normalized to
start at 1; since t^j·Q_j(D) sends t^(n-j) to Q_j(n-j)·t^n, the
coefficients obey the four-term recursion

    n³ c_n = b1·n(n-1)(2n-1)·c_{n-1} + (n-1)(b2·n(n-2) + 4 b3)·c_{n-2}
           + b4·(n-1)(n-2)(2n-3)·c_{n-3} + b5·(n-1)(n-2)(n-3)·c_{n-4}

which in particular forces c_1 = 0.  Both the recursion and the action
of L run on integers.  With the b's over their common denominator d,
B_i = d·b_i, and d·Q_j(n-j) the integer factor of c_{n-j} above, the
scaled coefficients C_n = n!³·d^n·c_n obey

    C_n = Σ_{j=1..4} d·Q_j(n-j)·C_{n-j}·((n-1)!/(n-j)!)³·d^(j-1),   C_0 = 1,

so each step multiplies big ints by small ones, and c_n = C_n/(n!³·d^n)
is one reduced Fraction.  apply_operator sums the same integer factors
over the numerators of f and divides by d times their denominator.

apply_operator_in applies L in another variable t(q).  With
θ_t = (t/(q·dt/dq))·q d/dq it evaluates θ_t³ f − Σ_j t^j·Q_j(θ_t) f by
Horner in t.  The identity check uses it to test F(T) = R as "L, written
in T, kills R", with no composition.

The catalog below lists the seven operators whose solutions are the
normalized quantum periods of the G-Fano threefolds.  L1 belongs to the
sextic double solid X6: it is θ³ − 8t(6θ+1)(6θ+3)(6θ+5), the operator
of Σ (6n)!/((3n)! n!³) t^n, moved by the regular shift −120.

The parameters also come in an alternate a-basis related over Z by

    b1 = a11, b2 = a12 + 2 a01 - a11², b3 = a01,
    b4 = a02 - a01 a11, b5 = a03 - a01².
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .series import (
    Rational,
    SeriesError,
    TruncatedSeries,
    _convolve,
    _frac,
    _scaled,
    _terms,
)


class _Parameters(NamedTuple):
    b1: Fraction
    b2: Fraction
    b3: Fraction
    b4: Fraction
    b5: Fraction


class D3Operator(_Parameters):
    """The operator L(b1..b5): an immutable record of five Fractions.

    Ints and Fractions are accepted and stored as Fractions.
    """

    __slots__ = ()

    def __new__(cls, b1: Rational, b2: Rational, b3: Rational,
                b4: Rational, b5: Rational):
        return super().__new__(cls, _frac(b1), _frac(b2), _frac(b3),
                               _frac(b4), _frac(b5))

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


#: The seven operators annihilating the normalized G-Fano quantum periods.
OPERATORS = {
    "L1": D3Operator(624, 535680, 137520, 33868800, 2778624000),
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


def _theta_polynomials(big_b: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """d·Q_1 .. d·Q_4 for L = θ³ − Σ_j t^j·Q_j(θ), as coefficients of θ^0..θ^3.

    Q_1 = b1·θ(θ+1)(2θ+1), Q_2 = (θ+1)(b2·θ(θ+2) + 4 b3),
    Q_3 = b4·(θ+1)(θ+2)(2θ+3), Q_4 = b5·(θ+1)(θ+2)(θ+3).
    """
    b1, b2, b3, b4, b5 = big_b
    return (
        (0, b1, 3 * b1, 2 * b1),
        (4 * b3, 2 * b2 + 4 * b3, 3 * b2, b2),
        (6 * b4, 13 * b4, 9 * b4, 2 * b4),
        (6 * b5, 11 * b5, 6 * b5, b5),
    )


def _weights(polys: tuple, n: int) -> tuple[int, ...]:
    """d times the factors of c_(n-1) .. c_(n-4) in the t^n recursion:
    t^j·Q_j(θ) sends t^(n-j) to Q_j(n-j)·t^n."""
    out = []
    for j, (c0, c1, c2, c3) in enumerate(polys, 1):
        x = n - j
        out.append(c0 + x * (c1 + x * (c2 + x * c3)))
    return tuple(out)


def apply_operator(op: D3Operator, f: TruncatedSeries) -> TruncatedSeries:
    """Exact action of L on a truncated series, same truncation order.

    D multiplies the n-th coefficient by n; the t^j factors shift indices
    up by j, so the t^n output coefficient only needs f_{n-4} .. f_n.
    The sum runs on the integer numerators F of f = F/D and is divided by
    d·D once per coefficient.
    """
    big_b, d = _scaled_operator(op)
    polys = _theta_polynomials(big_b)
    k = f.order
    cs, big_d = _scaled(f.coeffs, k)
    out = []
    for n in range(k + 1):
        acc = d * n ** 3 * cs[n]
        for j, w in enumerate(_weights(polys, n)[:n], 1):
            acc -= w * cs[n - j]
        out.append(Fraction(acc, d * big_d))
    return TruncatedSeries(out, k)


def apply_operator_in(op: D3Operator, f: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """L applied to f read as a function of t, where f and t are series in q.

    t must have valuation 1.  In the variable t the operator's θ = t·d/dt
    is θ_t = u·q·d/dq with u = t/(q·dt/dq), and

        L_t f = Σ_{j=0..4} t^j·P_j(θ_t) f,   P_0 = θ³, P_j = −Q_j (j ≥ 1),

    which is evaluated by Horner in t.  Both t/q and dt/dq lose one order,
    so t must be known through q^(K+1) for u, and the result, through q^K
    (K = f.order).  The four θ_t-derivatives of f are scaled to one
    denominator, and the P_j and the Horner loop run on integer numerators,
    as `TruncatedSeries.compose` does.
    """
    k = f.order
    if t.order < k + 1 or t.coeffs[0] or not t.coeffs[1]:
        raise SeriesError(
            f"t must have valuation 1 and order >= {k + 1}, got order {t.order}"
        )
    dt = TruncatedSeries([n * t.coeffs[n] for n in range(1, k + 2)], k)
    u = TruncatedSeries(t.coeffs[1 : k + 2], k) / dt
    derivs = [f]
    for _ in range(3):
        g = derivs[-1]
        derivs.append(u * TruncatedSeries([n * c for n, c in enumerate(g.coeffs)], k))
    scaled = [_scaled(g.coeffs, k) for g in derivs]
    den = lcm(*(dd for _, dd in scaled))
    xs = [[x * (den // dd) for x in xs] for xs, dd in scaled]

    big_b, d = _scaled_operator(op)
    polys = [(0, 0, 0, d)] + [tuple(-c for c in p) for p in _theta_polynomials(big_b)]
    p_f = [[sum(c * x[n] for c, x in zip(p, xs)) for n in range(k + 1)] for p in polys]

    v, e = _scaled(t.coeffs, k)
    nz_v = _terms(v, k)
    acc = p_f[4]
    e_power = 1
    for j in range(3, -1, -1):
        e_power *= e
        acc = _convolve(_terms(acc, k), nz_v, k)
        for n in range(k + 1):
            acc[n] += p_f[j][n] * e_power
    big_d = d * den * e_power
    return TruncatedSeries([Fraction(x, big_d) for x in acc], k)


def holomorphic_solution(op: D3Operator, order: int) -> TruncatedSeries:
    """The analytic solution with constant term 1, by the coefficient recursion.

    The recursion runs on the integers C_n = n!³·d^n·c_n; see the module
    docstring.
    """
    big_b, d = _scaled_operator(op)
    polys = _theta_polynomials(big_b)
    big_c = [1]
    out = [Fraction(1)]
    scale = 1
    for n in range(1, order + 1):
        acc = 0
        falling = 1  # ((n-1)!/(n-j)!)³ · d^(j-1)
        for j, w in enumerate(_weights(polys, n)[:n], 1):
            if w:
                acc += w * falling * big_c[n - j]
            falling *= (n - j) ** 3 * d
        big_c.append(acc)
        scale *= n ** 3 * d
        out.append(Fraction(acc, scale))
    return TruncatedSeries(out, order)
