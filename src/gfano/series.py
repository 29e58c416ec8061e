"""Truncated power series over exact rationals.

A TruncatedSeries holds coefficients c_0 .. c_K of a formal series
Σ c_n t^n together with its truncation order K (the last index that is
trusted).  All arithmetic is exact: coefficients are `fractions.Fraction`,
never floats.  `+` and `*` take a series or an int/Fraction, `/` only a
series; there is no `-`, no scalar division and no indexing (read
`.coeffs`).  Binary operations truncate to the minimum order of their
operands.  A composite outer∘inner is known through
t^min(K_in, (K_out+1)·v − 1), v the inner valuation: its first unknown
outer term starts at t^((K_out+1)·v).
Equality is strict: two series are equal when they have the same order
and the same coefficients.  To compare through t^k, check that both orders
reach k, then compare `a.coeffs[:k + 1] == b.coeffs[:k + 1]`.

Products, reciprocals, integer and rational powers, compositions and
reversion run on one integer core.  A coefficient slice is scaled by the
lcm of its denominators into a list of integer numerators over one
common denominator (`_scaled`); the loops then multiply and add Python
ints only, and each output coefficient is built as one reduced Fraction
at the end:

    A·B       numerators convolved over the sparser operand's nonzero terms,
              divided by da·db
    1/A       _miller at exponent −1 on a/a_0: B_0 = 1,
              B_n = −Σ_i a_i·a_0^(i−1)·B_(n−i), and (1/A)_n = d·B_n / a_0^(n+1)
    A^n       A = t^v·(a_0/d)·(a/a_0), so A^n = t^(vn)·(a_0/d)^n·(a/a_0)^n,
              the last factor _miller's P_j/a_0^j; no repeated products
    ΣP_j·v^j  Horner on int lists (_horner): R_m = P_m, R_j = R_(j+1)·v +
              P_j·E^(m-j), over E^m (inner v = v/E); d3.apply_operator_in
              takes P_j(θ_t) f
    A∘v       rectangular splitting (Paterson-Stockmeyer): baby powers v^0 ..
              v^b, b = isqrt(len A), blocks P_j = Σ_i A_(jb+i)·v^i as scalar
              combinations of them, and _horner over v^b; about 2√K products
    A^(u/m)   Miller's recurrence on P_n = (m²D)^n·p_n over the nonzero A_j
              (_miller), divided by (m²D)^n; eta_product runs it on integers
    rev A     Lagrange inversion, [t^(n-1)] W^n of t/A = W/d from baby steps
              W^i and giant steps W^(jm) (see reverse), divided by n·d^n
    shift     the binomial transform below, over A = A/D and s = p/q:
              p^(K−n)·q^n on A_n once, add-only Pascal passes x_i <- x_i +
              x_(i+1), and the n-th head divided by p^(K−n)·D·q^n

This takes the per-term gcd of Fraction arithmetic off the hot loops.

On top of ring arithmetic the module provides the shift/regularization
operators used throughout:

    laplace(A)            = Σ n! a_n t^n
    inverse_laplace(A)    = Σ a_n / n! t^n
    regular_shift(A, s)   = laplace(exp(s t) · inverse_laplace(A))
                          = Σ_n (Σ_k C(n,k) s^(n-k) a_k) t^n
    normalize(A)          = regular_shift(A, -a_1)   (kills the linear term)

regular_shift is computed as that binomial transform on the numerators,
never as a product with exp(s t), whose 1/n! would scale them by K!.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, isqrt, lcm
from operator import add, mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class ZeroConstantTerm(SeriesError):
    """Division by a series with zero constant term."""


class NonzeroInnerConstant(SeriesError):
    """Composition with an inner series of nonzero constant term."""


class NotInvertible(SeriesError):
    """Compositional inversion of a series whose valuation is not 1."""


class NonUnitConstant(SeriesError):
    """A series whose constant term must be exactly 1 is not a unit series."""


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not exact; pass an int or a Fraction")
    return Fraction(x)


def _scaled(coeffs: Sequence[Fraction], upto: int) -> tuple[list[int], int]:
    """Integer numerators of coeffs[0..upto] over their lcm denominator."""
    cs = coeffs[: upto + 1]
    den = lcm(*{c.denominator for c in cs})
    return [c.numerator * (den // c.denominator) for c in cs], den


def _terms(xs: Sequence[int], upto: int) -> list[tuple[int, int]]:
    """(index, value) of the nonzero entries of xs[0..upto]."""
    return [(i, x) for i, x in enumerate(xs[: upto + 1]) if x]


def _convolve(nz_a: list[tuple[int, int]], nz_b: list[tuple[int, int]], k: int) -> list[int]:
    """Σ a_i b_j t^(i+j) through t^k from the nonzero terms of a and b,
    looping over the sparser operand: eta-type series are mostly zeros."""
    if len(nz_b) < len(nz_a):
        nz_a, nz_b = nz_b, nz_a
    out = [0] * (k + 1)
    for i, x in nz_a:
        room = k - i
        for j, y in nz_b:
            if j > room:
                break
            out[i + j] += x * y
    return out


def _powers(v: Sequence[int], count: int, k: int) -> list[list[int]]:
    """v^0 .. v^count through t^k as int lists of length k + 1."""
    nz_v = _terms(v, k)
    out = [[1] + [0] * k]
    for _ in range(count):
        out.append(_convolve(_terms(out[-1], k), nz_v, k))
    return out


def _horner(polys: Sequence[list[int]], v: Sequence[int], e: int,
            k: int) -> tuple[list[int], int]:
    """Σ_j P_j·(v/e)^j through t^k for int lists P_0 .. P_m of length k + 1
    and an inner series with numerators v over e: the numerators R_0 and
    e^m, by R_m = P_m, R_j = R_(j+1)·v + P_j·e^(m-j)."""
    nz_v = _terms(v, k)
    acc = polys[-1]
    e_power = 1
    for p in reversed(polys[:-1]):
        e_power *= e
        acc = _convolve(_terms(acc, k), nz_v, k)
        for n, x in enumerate(p):
            acc[n] += x * e_power
    return acc, e_power


def _miller(a: Sequence[int], u: int, m: int, k: int) -> list[int]:
    """(a/d)^(u/m) through t^k for integers a, d = a[0] ≠ 0: the integers
    P_n = (m²d)^n·p_n, by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2,
    §4.7) over the nonzero a_j only,

        m·n·P_n = Σ_j ((u+m)j − mn)·a_j·m^(2j)·d^(j−1)·P_(n−j).

    m^(2n)·C(u/m, n) is an integer and p_n lies in d^(−n)·Z[1/m], so each
    division by m·n is exact; a remainder raises SeriesError.  At u = −m
    every weight is −mn, so the step is P_n = −Σ_j a_j·m^(2j)·d^(j−1)·P_(n−j)
    with no weight product and no division.
    """
    s, d = m * m, a[0]
    w = [(j, x * s ** j * d ** (j - 1)) for j, x in _terms(a, k)[1:]]
    p = [1]
    if u == -m:
        for n in range(1, k + 1):
            acc = 0
            for j, x in w:
                if j > n:
                    break
                acc += x * p[n - j]
            p.append(-acc)
        return p
    w = [(j, (u + m) * j, x) for j, x in w]
    for n in range(1, k + 1):
        mn = m * n
        acc = 0
        for j, uj, x in w:
            if j > n:
                break
            acc += (uj - mn) * x * p[n - j]
        pn, rem = divmod(acc, mn)
        if rem:
            raise SeriesError(f"Miller power coefficient t^{n} is not an integer")
        p.append(pn)
    return p


class TruncatedSeries:
    """Dense truncated power series Σ_{n=0}^{K} c_n t^n with exact coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[Rational], order: int | None = None):
        cs = [_frac(c) for c in coeffs]
        if order is None:
            if not cs:
                raise SeriesError("empty coefficient list needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise SeriesError("truncation order must be non-negative")
        if len(cs) < order + 1:
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        elif len(cs) > order + 1:
            cs = cs[: order + 1]
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self.order: int = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series t itself."""
        return cls([0, 1], order)

    @classmethod
    def exponential(cls, s: Rational, order: int) -> "TruncatedSeries":
        """exp(s t) = Σ s^n / n! t^n to the requested order."""
        s = _frac(s)
        cs = [Fraction(1)]
        for n in range(1, order + 1):
            cs.append(cs[-1] * s / n)
        return cls(cs, order)

    # -- basics ------------------------------------------------------------

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order+1 if identically zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.order + 1

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def __eq__(self, other) -> bool:
        """Same order and same coefficients (consistent with __hash__)."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"

    def to_json(self) -> dict:
        """JSON form {"order": K, "coeffs": ["p/q", ...]} with reduced fractions."""
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries([other], self.order)
        elif not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(list(map(add, self.coeffs, other.coeffs)),
                               min(self.order, other.order))

    __radd__ = __add__

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        k = min(self.order, other.order)
        a, da = _scaled(self.coeffs, k)
        b, db = _scaled(other.coeffs, k)
        d = da * db
        out = _convolve(_terms(a, k), _terms(b, k), k)
        return TruncatedSeries([Fraction(n, d) for n in out], k)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return other.reciprocal() * self

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires nonzero constant term."""
        return self._power(-1)

    def __pow__(self, n: int) -> "TruncatedSeries":
        if not isinstance(n, int):
            raise TypeError("use pow_rational for non-integer exponents")
        if not n:
            return TruncatedSeries.one(self.order)
        return self._power(n)

    def _power(self, u: int, m: int = 1) -> "TruncatedSeries":
        """A^(u/m) through t^K, where m = 1 or A has constant term 1.

        With A = t^v·(a_0/d)·(a/a_0) for numerators a over d, a_0 ≠ 0,
        A^(u/m) = t^(vu)·(a_0/d)^u·(a/a_0)^(u/m), and `_miller` gives the
        last factor through t^(K−vu) as P_j/(m²a_0)^j.  So each
        coefficient is one reduced Fraction of integers.
        """
        if u < 0 and not self.coeffs[0]:
            raise ZeroConstantTerm("cannot divide by a series with zero constant term")
        k = self.order
        v = self.valuation()
        shift = v * u
        if shift > k:
            return TruncatedSeries.zero(k)
        a, d = _scaled(self.coeffs[v:], k - shift)
        a0 = a[0]
        lead = Fraction(a0, d) ** u
        num, den = lead.numerator, lead.denominator
        step = m * m * a0
        out = [Fraction(0)] * shift
        for pn in _miller(a, u, m, k - shift):
            out.append(Fraction(num * pn, den))
            den *= step
        return TruncatedSeries(out, k)

    # -- composition and inversion ------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """outer ∘ inner, known through t^min(K_in, (K_out+1)·v − 1) where v
        is the inner valuation.

        The inner series must have zero constant term.  The outer series is
        treated as a polynomial in its known coefficients and summed by
        rectangular splitting (Paterson & Stockmeyer, 1973).  With A/D the
        outer numerators, v/e the inner ones and b = isqrt(len A), the baby
        powers v^0 .. v^b give each block Σ_{i<b} A_(jb+i)·v^i·e^(b-1-i)
        as a scalar combination over e^(b-1), and `_horner` sums the blocks
        in v^b over e^b.  That is b − 1 + ⌈len A / b⌉ − 1 products, not
        len A − 1.
        """
        if inner.coeffs[0]:
            raise NonzeroInnerConstant("inner series must have zero constant term")
        k = min(inner.order, (self.order + 1) * inner.valuation() - 1)
        # terms A_n v^n with n > k vanish through t^k
        m = min(self.order, k)
        a, big_d = _scaled(self.coeffs, m)
        v, e = _scaled(inner.coeffs, k)
        b = isqrt(m + 1)
        baby = _powers(v, b, k)
        lift = [e ** (b - 1 - i) for i in range(b)]
        scaled = [[(n, x * s) for n, x in _terms(p, k)] for p, s in zip(baby, lift)]
        blocks = []
        for j in range(0, m + 1, b):
            block = [0] * (k + 1)
            for c, terms in zip(a[j : j + b], scaled):
                if c:
                    for n, x in terms:
                        block[n] += c * x
            blocks.append(block)
        r, e_power = _horner(blocks, baby[b], e ** b, k)
        d = big_d * e ** (b - 1) * e_power
        return TruncatedSeries([Fraction(x, d) for x in r], k)

    def reverse(self) -> "TruncatedSeries":
        """Compositional inverse via Lagrange inversion.

        Requires valuation exactly 1.  With f = Σ_{n≥1} f_n t^n the inverse
        r satisfies f(r(t)) = t and its coefficients are
        r_n = [t^{n-1}] (t/f)^n / n.

        With t/f = W/d (integer numerators W) and m = isqrt(K), the baby
        steps W^0 .. W^m and the giant steps W^(jm) are kept as int lists
        (Johansson, "A fast algorithm for reversion of power series", 2015).
        For n = jm + i, (W^n)_(n-1) is one dot product of W^(jm) with W^i,
        so about 2√K products replace K, and r_n = (W^n)_(n-1) / (n·d^n)
        is the only Fraction built per coefficient.
        """
        if self.coeffs[0] or self.order < 1 or not self.coeffs[1]:
            raise NotInvertible("reversion needs valuation exactly 1")
        k = self.order
        # w = t/f as a unit series of order k-1
        w, d = _scaled(TruncatedSeries(self.coeffs[1:], k - 1).reciprocal().coeffs, k - 1)
        m = isqrt(k)
        baby = _powers(w, m, k - 1)
        giant = _powers(baby[m], k // m, k - 1)
        out = [Fraction(0)]
        scale = 1
        for n in range(1, k + 1):
            j, i = divmod(n, m)
            scale *= d
            top = sum(map(mul, giant[j][:n], baby[i][n - 1 :: -1]))
            out.append(Fraction(top, n * scale))
        return TruncatedSeries(out, k)

    def pow_rational(self, e: Rational) -> "TruncatedSeries":
        """Binomial series (1 + x)^e with x = self - 1; needs constant term 1.

        With e = u/m and self = A/D, `_miller` gives the integers
        P_n = (m²D)^n·p_n, and p_n = P_n/(m²D)^n is one reduced Fraction.
        """
        if self.coeffs[0] != 1:
            raise NonUnitConstant("rational powers need constant term exactly 1")
        e = _frac(e)
        return self._power(e.numerator, e.denominator)


# -- shifts and regularizations ---------------------------------------------


def laplace(a: TruncatedSeries) -> TruncatedSeries:
    """Σ a_n t^n  ->  Σ n! a_n t^n."""
    return TruncatedSeries(
        [c * factorial(n) for n, c in enumerate(a.coeffs)], a.order
    )


def inverse_laplace(a: TruncatedSeries) -> TruncatedSeries:
    """Σ a_n t^n  ->  Σ a_n / n! t^n."""
    return TruncatedSeries(
        [c / factorial(n) for n, c in enumerate(a.coeffs)], a.order
    )


def regular_shift(a: TruncatedSeries, s: Rational) -> TruncatedSeries:
    """laplace(exp(s t) · inverse_laplace(a)); shifts the linear coefficient
    by s.

    This is the binomial transform b_n = Σ_k C(n,k) s^(n-k) a_k.  With
    a = A/D, s = p/q and the list x_k = p^(K−k)·q^k·A_k, index 0 of the
    n-th pass of Pascal's rule x_i <- x_i + x_(i+1), which shortens the
    list by one, is Σ_k C(n,k)·p^(K−k)·q^k·A_k = p^(K−n)·b_n·D·q^n.  So
    the passes only add, and b_n·D·q^n is that head over p^(K−n), an
    exact division (a remainder raises SeriesError).  A zero shift
    returns a itself.
    """
    s = _frac(s)
    if not s:
        return a
    p, q = s.numerator, s.denominator
    k = a.order
    p_powers = list(accumulate(repeat(p, k), mul, initial=1))[::-1]
    q_powers = accumulate(repeat(q, k), mul, initial=1)
    row, d = _scaled(a.coeffs, k)
    row = [x * y * z for x, y, z in zip(row, p_powers, q_powers)]
    out = []
    for n, p_power in enumerate(p_powers):
        b, rem = divmod(row[0], p_power)
        if rem:
            raise SeriesError(f"shift head {n} is not a multiple of p^{k - n}")
        out.append(Fraction(b, d))
        d *= q
        row = list(map(add, row, row[1:]))
    return TruncatedSeries(out, k)


def normalize(a: TruncatedSeries) -> TruncatedSeries:
    """Regular shift by minus the linear coefficient.

    On unit series (constant term 1) this kills the linear term, which is
    the normalization every period series here goes through.
    """
    if a.order < 1:
        return a
    return regular_shift(a, -a.coeffs[1])
