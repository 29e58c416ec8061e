"""Truncated-series arithmetic against hand oracles and ring axioms."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfano.series import (
    NonUnitConstant,
    NonzeroInnerConstant,
    NotInvertible,
    SeriesError,
    TruncatedSeries,
    ZeroConstantTerm,
    inverse_laplace,
    laplace,
    normalize,
    regular_shift,
)

S = TruncatedSeries


def series(*coeffs, order=None):
    return S(coeffs, order)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def series_strategy(min_order=0, max_order=8):
    return st.integers(min_order, max_order).flatmap(
        lambda k: st.lists(rationals, min_size=k + 1, max_size=k + 1).map(
            lambda cs: S(cs, k)
        )
    )


def sparse_series_strategy(min_order=0, max_order=20):
    """Mostly-zero series, as eta-type bodies are: at most three terms."""
    return st.integers(min_order, max_order).flatmap(
        lambda k: st.dictionaries(st.integers(0, k), rationals, max_size=3).map(
            lambda terms: S([terms.get(n, 0) for n in range(k + 1)], k)
        )
    )


dense_or_sparse = st.one_of(series_strategy(0, 10), sparse_series_strategy(0, 30))


# Fraction oracles for the integer kernel: term by term, the way the
# arithmetic reads on paper, with no common denominators.


def schoolbook_product(a, b):
    k = min(a.order, b.order)
    out = [F(0)] * (k + 1)
    for i in range(k + 1):
        for j in range(k + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return S(out, k)


def composite_order(outer, inner):
    """outer∘inner is known through t^((M+1)·v − 1): x^(M+1), the first
    unknown outer term (M = outer.order), starts at t^((M+1)·v), v the
    inner valuation."""
    v = next((n for n, c in enumerate(inner.coeffs) if c), inner.order + 1)
    return min(inner.order, (outer.order + 1) * v - 1)


def horner_compose(outer, inner):
    inner = inner.truncate(composite_order(outer, inner))
    result = S([outer.coeffs[outer.order]], inner.order)
    for c in reversed(outer.coeffs[: outer.order]):
        result = schoolbook_product(result, inner) + c
    return result


def recurrence_reciprocal(a):
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for n in range(1, a.order + 1):
        out.append(-inv0 * sum((a.coeffs[i] * out[n - i] for i in range(1, n + 1)), F(0)))
    return S(out, a.order)


def product_power(a, n):
    """a^n as |n| schoolbook products of a, or of recurrence_reciprocal(a)
    when n < 0: an oracle for ** that shares no code with _miller."""
    base = recurrence_reciprocal(a) if n < 0 else a
    out = S.one(a.order)
    for _ in range(abs(n)):
        out = schoolbook_product(out, base)
    return out


def exp_product_shift(a, s):
    """regular_shift as it is defined: laplace(exp(s t) · inverse_laplace(a))."""
    return laplace(schoolbook_product(S.exponential(s, a.order), inverse_laplace(a)))


def miller_power(a, e):
    """(1 + x)^e by J.C.P. Miller's recurrence, one Fraction operation per
    term: n·p_n = Σ_{k=1..n} ((e+1)k − n)·a_k·p_(n−k)."""
    e = F(e)
    p = [F(1)]
    for n in range(1, a.order + 1):
        total = sum((((e + 1) * k - n) * a.coeffs[k] * p[n - k] for k in range(1, n + 1)), F(0))
        p.append(total / n)
    return S(p, a.order)


def all_fractions(a):
    return all(type(c) is F for c in a.coeffs)


def unit_series_strategy(max_order=12):
    """Constant term 1, mixed-denominator rational tail."""
    return series_strategy(0, max_order).map(lambda a: S([1, *a.coeffs[1:]], a.order))


#: e = u/m with negative and positive u and m up to 8.
exponents = st.builds(F, st.integers(-24, 24), st.integers(1, 8))


class TestEquality:
    # [1,2]@1 agrees with both order-2 series on its prefix, which differ
    PREFIX, LONG, OTHER = S([1, 2], 1), S([1, 2, 3], 2), S([1, 2, 4], 2)

    def test_order_is_part_of_equality(self):
        assert self.PREFIX != self.LONG
        assert self.PREFIX != self.OTHER
        assert self.PREFIX == S([1, 2], 1)

    def test_transitive(self):
        assert self.LONG != self.OTHER
        assert not (self.PREFIX == self.LONG and self.PREFIX == self.OTHER)

    def test_hash_contract(self):
        assert len({self.PREFIX, self.LONG, self.OTHER}) == 3
        assert len({self.PREFIX, S([1, 2], 1), S([F(2, 2), 2, 0], 1)}) == 1
        assert hash(self.PREFIX) == hash(S([1, 2], 1))

    def test_a_scalar_is_not_a_series(self):
        assert (S([1]) == 1) is False

    @settings(max_examples=40)
    @given(dense_or_sparse, dense_or_sparse)
    def test_equal_means_same_order_and_coefficients(self, a, b):
        assert (a == b) == (a.order == b.order and a.coeffs == b.coeffs)
        if a == b:
            assert hash(a) == hash(b)


class TestIntegerKernel:
    @settings(max_examples=60)
    @given(dense_or_sparse, dense_or_sparse)
    def test_mul_matches_schoolbook(self, a, b):
        got = a * b
        assert got == schoolbook_product(a, b)
        assert all_fractions(got)

    @settings(max_examples=40)
    @given(dense_or_sparse, st.integers(1, 6), dense_or_sparse)
    def test_mul_of_unequal_orders(self, a, extra, b):
        longer = S(b.coeffs, a.order + extra)
        got = a * longer
        assert got.order == a.order
        assert got == schoolbook_product(a, longer) == longer * a

    @settings(max_examples=40)
    @given(dense_or_sparse, series_strategy(1, 8))
    def test_compose_matches_fraction_horner(self, outer, tail):
        inner = S([0, *tail.coeffs[1:]], tail.order)
        # a non-integral inner series, so its common denominator is not 1
        assume(any(c.denominator != 1 for c in inner.coeffs))
        got = outer.compose(inner)
        assert got.order == composite_order(outer, inner)
        assert got == horner_compose(outer, inner)
        assert all_fractions(got)

    @settings(max_examples=30)
    @given(dense_or_sparse, sparse_series_strategy(1, 12))
    def test_compose_with_sparse_inner(self, outer, tail):
        inner = S([0, *tail.coeffs[1:]], tail.order)
        assert outer.compose(inner) == horner_compose(outer, inner)

    @settings(max_examples=60)
    @given(
        st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(
            lambda x: x.denominator != 1
        ),
        dense_or_sparse,
    )
    def test_reciprocal_matches_recurrence(self, a0, tail):
        # constant term neither 1 nor an integer
        a = S([a0, *tail.coeffs[1:]], tail.order)
        got = a.reciprocal()
        assert got == recurrence_reciprocal(a)
        assert all_fractions(got)
        assert a * got == S.one(a.order)


class TestBinomialShift:
    shifts = st.one_of(
        st.just(0),
        st.integers(-6, 6),
        st.fractions(min_value=-5, max_value=5, max_denominator=9),
    )

    @settings(max_examples=80)
    @given(series_strategy(0, 10), shifts)
    def test_regular_shift_matches_exp_product(self, a, s):
        got = regular_shift(a, s)
        assert got == exp_product_shift(a, s)
        assert all_fractions(got)

    @settings(max_examples=40)
    @given(
        series_strategy(1, 10).filter(
            lambda a: len({c.denominator for c in a.coeffs}) > 1
        ),
        st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(
            lambda x: x.denominator != 1
        ),
    )
    def test_mixed_denominators_and_non_integral_shift(self, a, s):
        got = regular_shift(a, s)
        assert got == exp_product_shift(a, s)
        assert all_fractions(got)

    @settings(max_examples=8, deadline=None)
    @given(st.lists(rationals, min_size=41, max_size=41), rationals)
    def test_regular_shift_is_a_mobius_substitution(self, cs, s):
        # regular_shift(a, s) = a(t/(1-st)) / (1-st), at order 40
        a = S(cs, 40)
        w = S([1, -s], 40)
        assert regular_shift(a, s) == a.compose(S.identity(40) / w) / w

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(60, 120).flatmap(
            lambda k: st.lists(st.integers(-(2 ** 1000), 2 ** 1000),
                               min_size=k + 1, max_size=k + 1)),
        st.one_of(
            st.sampled_from([-120, -3, -1, 1, 3]),
            st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(
                lambda x: x.denominator != 1),
        ),
    )
    def test_high_order_matches_exp_product(self, cs, s):
        # the shift-scaled Pascal passes at the orders the periods run at
        a = S(cs)
        got = regular_shift(a, s)
        assert got == exp_product_shift(a, s)
        assert all_fractions(got)

    @pytest.mark.parametrize("s", [0, 3, F(-7, 4)])
    def test_order_zero(self, s):
        got = regular_shift(S([F(5, 6)], 0), s)
        assert got == S([F(5, 6)], 0)
        assert all_fractions(got)

    @settings(max_examples=30)
    @given(series_strategy(0, 8), shifts)
    def test_shifted_laplace_matches_exp_product(self, a, s):
        # laplace(exp(s t) · a) is the regular shift of laplace(a)
        got = regular_shift(laplace(a), s)
        assert got == laplace(schoolbook_product(S.exponential(s, a.order), a))
        assert all_fractions(got)


class TestMultiply:
    def test_difference_of_squares(self):
        assert series(1, 1, 0) * series(1, -1, 0) == series(1, 0, -1)

    def test_geometric_times_one_minus_t(self):
        geo = S([1] * 9, 8)
        assert geo * series(1, -1, order=8) == S.one(8)

    def test_f12_self_convolution(self):
        # F12 = 1 + 12 t^2 + ..., so the square has 24 at t^2
        f12 = series(1, 0, 12, 48)
        assert (f12 * f12).coeffs[2] == 24

    def test_truncation_is_min_of_inputs(self):
        a = S([1] * 10, 9)
        b = S([1] * 5, 4)
        assert (a * b).order == 4


class TestDivide:
    def test_geometric(self):
        assert S.one(8) / series(1, -1, order=8) == S([1] * 9, 8)

    def test_self_division_is_one(self):
        a = series(3, 1, 4, 1, 5)
        assert a / a == S.one(4)

    def test_cancellation(self):
        assert series(1, 0, -1) / series(1, 1, 0) == series(1, -1, 0)

    def test_zero_constant_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            S.one(3) / series(0, 1, 0, 0)


class TestOperatorSurface:
    """The operators are + and * (series or scalar) and / by a series;
    nothing subtracts, negates, divides by a scalar or indexes."""

    A = B = S([1, 2, 3])

    @pytest.mark.parametrize("op", [
        pytest.param(lambda a, b: -a, id="neg"),
        pytest.param(lambda a, b: a - b, id="sub"),
        pytest.param(lambda a, b: 1 - a, id="rsub"),
        pytest.param(lambda a, b: a / 2, id="scalar-div"),
        pytest.param(lambda a, b: 2 / a, id="rtruediv"),
        pytest.param(lambda a, b: a[0], id="getitem"),
        pytest.param(lambda a, b: a + "x", id="add-str"),
        pytest.param(lambda a, b: a * "x", id="mul-str"),
    ])
    def test_removed_operations_raise_type_error(self, op):
        with pytest.raises(TypeError):
            op(self.A, self.B)

    @pytest.mark.parametrize("op, coeffs", [
        pytest.param(lambda a, b: a / b, [1, 0, 0], id="div"),
        pytest.param(lambda a, b: 1 + 2 * a, [3, 4, 6], id="radd-rmul"),
        pytest.param(lambda a, b: a * F(1, 2), [F(1, 2), 1, F(3, 2)], id="mul-fraction"),
    ])
    def test_kept_operations(self, op, coeffs):
        assert op(self.A, self.B) == S(coeffs, 2)


class TestCompose:
    def test_affine_outer(self):
        outer = series(1, 1, 0)
        inner = series(0, 1, -1)
        assert outer.compose(inner) == series(1, 1, -1)

    def test_identity_inner(self):
        geo = S([1] * 7, 6)
        assert geo.compose(S.identity(6)) == geo

    def test_geometric_of_q_plus_q2(self):
        # 1/(1-x) at x = q + q^2: the q^2 coefficient is 1 + 1 = 2
        geo = S([1] * 5, 4)
        got = geo.compose(series(0, 1, 1, 0, 0))
        assert got.coeffs[2] == 2

    def test_truncates_to_inner_order(self):
        geo = S([1] * 9, 8)
        assert geo.compose(S.identity(5)).order == 5

    def test_truncates_where_the_outer_order_runs_out(self):
        # 1 + x + x² is known through x², so at x = t through t² and at
        # x = t² through t⁵ (x³ = t⁶ is the first unknown term)
        outer = S([1, 1, 1], 2)
        assert outer.compose(S.identity(10)) == S([1, 1, 1], 2)
        assert outer.compose(series(0, 0, 1, order=10)) == S([1, 0, 1, 0, 1, 0], 5)

    def test_nonzero_inner_constant_rejected(self):
        with pytest.raises(NonzeroInnerConstant):
            S.one(3).compose(series(1, 1, 0, 0))


def block_outer(length):
    """A dense outer series with `length` known terms, mixed signs and
    denominators: A_n = (-1)^n (n + 2) / (n % 4 + 1)."""
    return S([F((-1) ** n * (n + 2), n % 4 + 1) for n in range(length)], length - 1)


def block_inner(valuation, order):
    """t^v times a non-integral unit: coefficient n ≥ v is
    (-1)^n (n % 5 + 1) / (n % 3 + 2)."""
    return S([0] * valuation + [F((-1) ** n * (n % 5 + 1), n % 3 + 2)
                                for n in range(valuation, order + 1)], order)


class TestComposeBlocks:
    """compose sums the outer series in blocks of b = isqrt(len A) terms;
    these lengths sit on, just below and just above the block boundaries
    (b = 1, 1, 1, 2, 2, 2, 3, 3, 5, 6, 6, 7), with the inner order long
    enough that every outer term enters the sum."""

    @pytest.mark.parametrize("valuation", [1, 2, 3])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8, 9, 10, 35, 36, 37, 50])
    def test_matches_fraction_horner(self, length, valuation):
        outer = block_outer(length)
        inner = block_inner(valuation, length + 1)
        got = outer.compose(inner)
        assert got.order == composite_order(outer, inner) >= outer.order
        assert got == horner_compose(outer, inner)
        assert all_fractions(got)


def reverse_by_substitution(f):
    """Independent oracle: solve f(r(t)) = t coefficient by coefficient."""
    k = f.order
    r = [F(0), 1 / f.coeffs[1]]
    for n in range(2, k + 1):
        candidate = S(r + [F(0)], n)
        residual = f.compose(candidate).coeffs[n]
        r.append(-residual / f.coeffs[1])
    return S(r, k)


def lagrange_reverse(f):
    """The Lagrange loop on Fractions: r_n = [t^{n-1}] w^n / n, w = t/f,
    with w and each power w^n built by schoolbook recursions."""
    k = f.order
    g = f.coeffs[1:]
    w = [1 / g[0]]
    for n in range(1, k):
        w.append(-sum(g[j] * w[n - j] for j in range(1, n + 1)) / g[0])
    out = [F(0), w[0]]
    power = list(w)
    for n in range(2, k + 1):
        power = [sum(power[j] * w[m - j] for j in range(m + 1)) for m in range(k)]
        out.append(power[n - 1] / n)
    return S(out, k)


class TestReverse:
    def test_identity(self):
        assert S.identity(5).reverse() == S.identity(5)

    def test_catalan(self):
        got = series(0, 1, -1, 0, 0).reverse()
        assert got == series(0, 1, 1, 2, 5)

    def test_two_sided_inverse(self):
        f = series(0, 1, 3, 7, 0, 0)
        r = f.reverse()
        assert f.compose(r) == S.identity(5)
        assert r.compose(f) == S.identity(5)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            series(0, 0, 1).reverse()
        with pytest.raises(NotInvertible):
            series(1, 1).reverse()

    @settings(max_examples=40)
    @given(series_strategy(2, 7), st.fractions(min_value=F(1, 3), max_value=4, max_denominator=6))
    def test_against_substitution_oracle(self, tail, lead):
        coeffs = [F(0), lead, *tail.coeffs[: tail.order - 1]]
        f = S(coeffs, tail.order)
        assert lead != 0
        assert f.reverse() == reverse_by_substitution(f)

    @settings(max_examples=40)
    @given(series_strategy(1, 9), st.fractions(min_value=F(1, 7), max_value=5, max_denominator=9))
    def test_against_fraction_lagrange_loop(self, tail, lead):
        f = S([F(0), lead, *tail.coeffs[: tail.order]], tail.order + 1)
        r = f.reverse()
        assert r == lagrange_reverse(f)
        assert f.compose(r) == S.identity(f.order)

    @pytest.mark.parametrize("f", [
        # integral, as a mirror map's 1/H is
        S([0, 1] + [(-1) ** n * (n % 7 + 1) for n in range(2, 41)], 40),
        # mixed denominators and a non-unit leading coefficient
        S([0, F(2, 3)] + [F((-1) ** n * (n % 5), n % 4 + 1) for n in range(2, 41)], 40),
    ], ids=["integral", "mixed"])
    def test_every_order_to_40(self, f):
        # r_n depends on f_1 .. f_n only, so each oracle, computed once at
        # order 40, holds at every lower order after truncation; the baby-
        # and giant-step split m = isqrt(K) changes with the order, the
        # oracles' loops do not
        lagrange = lagrange_reverse(f)
        substituted = reverse_by_substitution(f)
        for order in range(1, 41):
            got = f.truncate(order).reverse()
            assert got == lagrange.truncate(order) == substituted.truncate(order), order

    def test_mixed_denominators(self):
        f = series(0, F(2, 3), F(-5, 4), F(7, 6), 0, F(1, 9), F(-3, 10), 2)
        r = f.reverse()
        assert r == lagrange_reverse(f)
        assert r.coeffs[1] == F(3, 2) and r.coeffs[2] == F(135, 32)
        assert f.compose(r) == S.identity(7)
        assert r.compose(f) == S.identity(7)


class TestPowRational:
    def test_sqrt_of_one_plus_q(self):
        got = series(1, 1, 0, 0).pow_rational(F(1, 2))
        assert got == series(1, F(1, 2), F(-1, 8), F(1, 16))

    def test_zeroth_power(self):
        a = series(1, 5, -2, 7)
        assert a.pow_rational(0) == S.one(3)

    def test_sqrt_squares_back(self):
        a = series(1, 2, 3, 4, 5)
        assert a.pow_rational(F(1, 2)).pow_rational(2) == a

    def test_non_unit_constant_rejected(self):
        with pytest.raises(NonUnitConstant):
            series(2, 1).pow_rational(F(1, 2))

    @pytest.mark.parametrize("e", [F(1, 2), F(-3, 4), 0, 2, -1])
    def test_coefficients_are_fractions(self, e):
        got = series(1, 2, 0, F(1, 3), 5).pow_rational(e)
        assert all(type(c) is F for c in got.coeffs)

    @pytest.mark.parametrize("n", [-2, 0, 1, 3, -1])
    def test_integer_exponent_matches_repeated_product(self, n):
        a = series(1, 2, 0, F(1, 3), 5)
        got, want = a.pow_rational(n), a ** n
        assert got.order == want.order and got.coeffs == want.coeffs
        assert got == product_power(a, n)

    @settings(max_examples=40)
    @given(series_strategy(1, 6), rationals, rationals)
    def test_exponent_additivity(self, tail, e1, e2):
        a = S([F(1), *tail.coeffs[1:]], tail.order)
        lhs = a.pow_rational(e1 + e2)
        rhs = a.pow_rational(e1) * a.pow_rational(e2)
        assert lhs == rhs


class TestIntegerPower:
    """pow_rational runs Miller's recurrence on the integers (m²D)^n·p_n
    (series._miller, shared with eta_product); the oracle runs it on
    Fractions."""

    @settings(max_examples=60)
    @given(unit_series_strategy(), exponents)
    def test_matches_fraction_miller(self, a, e):
        got = a.pow_rational(e)
        assert got == miller_power(a, e)
        assert all_fractions(got)

    @pytest.mark.parametrize("e", [F(-7, 8), F(5, 6), F(-1, 3), F(3, 2), F(-24, 7),
                                   F(7, 9), F(-5, 12), F(11, 16), F(-13, 16)])
    def test_mixed_denominators(self, e):
        short = series(1, F(1, 3), F(-5, 7), F(2, 9), 4, F(-11, 12), 0, F(3, 8))
        # order 36, denominators up to 16, three zero terms
        long = S([1] + [F(7 * n % 11 - 5, n % 16 + 1) for n in range(1, 37)])
        for a in (short, long):
            assert a.pow_rational(e) == miller_power(a, e)

    @settings(max_examples=20)
    @given(unit_series_strategy())
    def test_zero_exponent_is_one(self, a):
        got = a.pow_rational(0)
        assert got == S.one(a.order) and all_fractions(got)

    @settings(max_examples=30)
    @given(unit_series_strategy(), st.integers(-3, 4))
    def test_integer_exponent_matches_pow(self, a, n):
        assert a.pow_rational(n) == a ** n == product_power(a, n)

    def test_order_zero(self):
        assert series(1).pow_rational(F(-3, 8)) == series(1)


class TestPow:
    """** writes A = t^v·(a_0/d)·(a/a_0) and runs Miller's recurrence on
    the unit factor (series._miller); the oracle multiplies term by term."""

    EXPONENTS = [*range(-6, 13), 35]
    #: constant terms that are not 1, negative or with a denominator, and
    #: runs of zero terms
    SERIES = [
        series(F(-3, 4), F(1, 6), 0, 0, F(5, 9), 0, 2, 0, F(-7, 10), order=12),
        series(6, 0, 0, F(1, 15), F(-2, 21), order=9),
        S([F(5, 7)] + [F(7 * n % 11 - 5, n % 16 + 1) for n in range(1, 21)]),
        series(-1, 1, order=10),
    ]

    @pytest.mark.parametrize("n", EXPONENTS)
    def test_matches_repeated_product(self, n):
        for a in self.SERIES:
            got = a ** n
            assert got == product_power(a, n)
            assert all_fractions(got)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 12, 13, 35])
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_positive_valuation(self, v, n):
        # order 40: t^(vn) lands inside, at and beyond the truncation
        a = S([0] * v + [F(-2, 3), 1, 0, F(3, 5), 0, 0, -4], 40)
        got = a ** n
        assert got == product_power(a, n)
        assert all_fractions(got)

    @settings(max_examples=40)
    @given(dense_or_sparse.filter(lambda a: a.coeffs[0]), st.integers(-6, 12))
    def test_random_units(self, a, n):
        assert a ** n == product_power(a, n)

    @settings(max_examples=30)
    @given(series_strategy(0, 10), st.integers(1, 3), st.integers(0, 12))
    def test_random_valuations(self, tail, v, n):
        a = S([0] * v + list(tail.coeffs), tail.order + v)
        assert a ** n == product_power(a, n)

    def test_zero_series(self):
        assert S.zero(5) ** 3 == S.zero(5)
        assert S.zero(5) ** 0 == S.one(5)

    @pytest.mark.parametrize("n", [-1, -4])
    def test_negative_power_of_zero_constant_rejected(self, n):
        with pytest.raises(ZeroConstantTerm):
            series(0, 2, 1, order=6) ** n

    @pytest.mark.parametrize("n", [F(1, 2), F(2), 2.0, "2"])
    def test_non_int_exponent_rejected(self, n):
        with pytest.raises(TypeError, match="pow_rational"):
            series(1, 1, order=4) ** n


class TestConstruction:
    def test_empty_list_needs_an_order(self):
        with pytest.raises(SeriesError):
            S([])

    def test_negative_order_rejected(self):
        with pytest.raises(SeriesError):
            S([1], -1)


class TestExactness:
    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            series(1, 0.1)

    def test_float_exponent_rejected(self):
        with pytest.raises(TypeError):
            series(1, 1).pow_rational(0.5)


class TestLaplace:
    def test_exponential_to_geometric(self):
        exp = S.exponential(1, 7)
        assert laplace(exp) == S([1] * 8, 7)

    def test_roundtrip(self):
        a = series(1, 3, F(15, 2), F(35, 2))
        assert inverse_laplace(laplace(a)) == a
        assert laplace(inverse_laplace(a)) == a

    def test_small_quantum_period(self):
        g = series(1, 3, F(15, 2))
        assert laplace(g) == series(1, 3, 15)


class TestShiftedLaplace:
    """laplace(exp(s t) · a), taken as regular_shift(laplace(a), s)."""

    def test_of_one(self):
        got = regular_shift(laplace(S.one(5)), 3)
        assert got == S([3 ** n for n in range(6)], 5)

    def test_zero_shift_is_laplace(self):
        a = series(1, 2, 3, 4)
        assert regular_shift(laplace(a), 0) == laplace(a)

    def test_recovers_shifted_period(self):
        # the degree-30 family: shifting its G-series by 3 regularizes to
        # 1 + 3t + 15t^2 + 105t^3 + ...
        i15 = series(1, 3, 15, 105, 855)
        g = S.exponential(-3, 4) * inverse_laplace(i15)
        assert regular_shift(laplace(g), 3) == i15


class TestRegularShiftAndNormalize:
    def test_zero_shift_identity(self):
        a = series(2, 3, 5, 7)
        assert regular_shift(a, 0) == a

    @pytest.mark.parametrize("s", [0, F(0)])
    def test_zero_shift_returns_its_argument(self, s):
        # the series is immutable, so a zero shift runs no Pascal pass
        a = series(2, F(3, 7), 5, F(-1, 4))
        assert regular_shift(a, s) is a

    def test_normalize_at_order_zero_returns_its_argument(self):
        # no linear coefficient to kill
        a = series(F(5, 3))
        assert normalize(a) is a

    def test_shift_inverts(self):
        a = series(1, 4, 28, 256, 2716)
        assert regular_shift(regular_shift(a, 5), -5) == a

    def test_normalize_kills_linear_term(self):
        a = series(1, 3, 15, 105, 855)
        assert normalize(a).coeffs[1] == 0

    def test_normalize_degree30(self):
        i15 = series(1, 3, 15, 105, 855)
        assert normalize(i15) == series(1, 0, 6, 24, 162)

    def test_normalize_degree24(self):
        i12 = series(1, 4, 28, 256, 2716)
        assert normalize(i12) == series(1, 0, 12, 48, 540)

    def test_normalize_idempotent(self):
        a = series(1, 7, 5, 3, 2)
        assert normalize(normalize(a)) == normalize(a)

    @settings(max_examples=30)
    @given(series_strategy(1, 6), st.integers(-4, 4))
    def test_normalize_absorbs_any_shift(self, tail, s):
        # the normalization operator shifts by minus the linear coefficient,
        # which absorbs regular shifts exactly on unit series (a_0 = 1) --
        # the only kind it is ever applied to
        a = S([1, *tail.coeffs[1:]], tail.order)
        assert normalize(regular_shift(a, s)) == normalize(a)

    @settings(max_examples=30)
    @given(series_strategy(0, 6), st.integers(-5, 5))
    def test_laplace_bijection_and_shift_group(self, a, s):
        assert inverse_laplace(laplace(a)) == a
        assert regular_shift(regular_shift(a, s), -s) == a


class TestRingAxioms:
    @settings(max_examples=40)
    @given(series_strategy(0, 6), series_strategy(0, 6), series_strategy(0, 6))
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40)
    @given(series_strategy(0, 6), series_strategy(0, 6))
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a


class TestJson:
    def test_schema(self):
        a = series(1, F(-3, 2), 0)
        assert a.to_json() == {"order": 2, "coeffs": ["1", "-3/2", "0"]}

    def test_int_fraction_and_string_coefficients_accepted(self):
        a = TruncatedSeries([1, F(1, 3), "-3/2"], 2)
        assert a == series(1, F(1, 3), F(-3, 2))
        assert a.to_json() == {"order": 2, "coeffs": ["1", "1/3", "-3/2"]}
