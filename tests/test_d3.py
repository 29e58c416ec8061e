"""D3 operators: printed solutions, annihilation, basis changes."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfano.d3 import (
    D3Operator,
    OPERATORS,
    apply_operator,
    apply_operator_in,
    holomorphic_solution,
)
from gfano.series import SeriesError, TruncatedSeries

PRINTED_SOLUTIONS = {
    "L6,2": [1, 0, 44, 528, 11292, 228000, 4999040, 112654080],
    "L6,3": [1, 0, 54, 672, 15642, 336960, 7919460, 191177280],
    "L10": [1, 0, 14, 72, 882, 8400, 95180, 1060080],
    "L12": [1, 0, 12, 48, 540, 4320, 42240, 403200],
    "L14": [1, 0, 8, 24, 240, 1440, 11960, 89040],
    "L15": [1, 0, 6, 24, 162, 1080, 7620, 55440],
}

small_ints = st.integers(-50, 50)
operators = st.tuples(*([small_ints] * 5)).map(lambda t: D3Operator(*t))
small_rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)
rational_operators = (
    st.tuples(*([small_rationals] * 5))
    .filter(lambda t: any(b.denominator != 1 for b in t))
    .map(lambda t: D3Operator(*t))
)
rational_series = st.integers(0, 12).flatmap(
    lambda k: st.lists(small_rationals, min_size=k + 1, max_size=k + 1).map(
        lambda cs: TruncatedSeries(cs, k)
    )
)


# Fraction oracles for the integer recursions: the recursion as the
# module docstring reads it, one Fraction operation per term.


def fraction_solution(op, order):
    b1, b2, b3, b4, b5 = op.b1, op.b2, op.b3, op.b4, op.b5
    cs = [F(1)]
    for n in range(1, order + 1):
        acc = b1 * n * (n - 1) * (2 * n - 1) * cs[n - 1]
        if n >= 2:
            acc += (n - 1) * (b2 * n * (n - 2) + 4 * b3) * cs[n - 2]
        if n >= 3:
            acc += b4 * (n - 1) * (n - 2) * (2 * n - 3) * cs[n - 3]
        if n >= 4:
            acc += b5 * (n - 1) * (n - 2) * (n - 3) * cs[n - 4]
        cs.append(acc / n ** 3)
    return TruncatedSeries(cs, order)


def fraction_apply(op, f):
    b1, b2, b3, b4, b5 = op.b1, op.b2, op.b3, op.b4, op.b5
    cs = f.coeffs
    out = []
    for n in range(f.order + 1):
        acc = n ** 3 * cs[n]
        if n >= 1:
            acc -= b1 * (n - 1) * n * (2 * n - 1) * cs[n - 1]
        if n >= 2:
            acc -= (n - 1) * (b2 * (n - 2) * n + 4 * b3) * cs[n - 2]
        if n >= 3:
            acc -= b4 * (n - 2) * (n - 1) * (2 * n - 3) * cs[n - 3]
        if n >= 4:
            acc -= b5 * (n - 3) * (n - 2) * (n - 1) * cs[n - 4]
        out.append(acc)
    return TruncatedSeries(out, f.order)


def all_fractions(f):
    return all(type(c) is F for c in f.coeffs)


class TestCatalog:
    def test_exact_entries(self):
        assert set(OPERATORS) == {"L1", "L6,2", "L6,3", "L10", "L12", "L14", "L15"}
        assert OPERATORS["L6,2"] == D3Operator(6, 368, 88, 1056, 3584)
        assert OPERATORS["L15"] == D3Operator(1, 43, 12, 78, 216)

    @pytest.mark.parametrize("key", sorted(PRINTED_SOLUTIONS))
    def test_printed_solution_prefixes(self, key):
        sol = holomorphic_solution(OPERATORS[key], 7)
        assert [int(c) for c in sol.coeffs] == PRINTED_SOLUTIONS[key]

    @pytest.mark.parametrize("key", sorted(OPERATORS))
    def test_annihilation_to_200(self, key):
        sol = holomorphic_solution(OPERATORS[key], 200)
        residual = apply_operator(OPERATORS[key], sol)
        assert all(c == 0 for c in residual.coeffs)

    @pytest.mark.parametrize("key", sorted(OPERATORS))
    def test_integer_coefficients_to_200(self, key):
        sol = holomorphic_solution(OPERATORS[key], 200)
        assert all(c.denominator == 1 for c in sol.coeffs)


class TestApply:
    def test_on_constant_one(self):
        # each t^j P(D) term hits 1 at the D-eigenvalue 0, so
        # L(1) = -4 b3 t^2 - 6 b4 t^3 - 6 b5 t^4
        op = D3Operator(5, 7, 11, 13, 17)
        got = apply_operator(op, TruncatedSeries([1], 5))
        assert got == TruncatedSeries([0, 0, -44, -78, -102, 0], 5)

    def test_on_t(self):
        # D^3 t = t survives; the b1 term contributes -6 b1 t^2
        op = D3Operator(3, 0, 0, 0, 0)
        got = apply_operator(op, TruncatedSeries([0, 1, 0], 2))
        assert got.coeffs[1] == 1
        assert got.coeffs[2] == -18

    def test_preserves_truncation_order(self):
        f = holomorphic_solution(OPERATORS["L12"], 17)
        assert apply_operator(OPERATORS["L12"], f).order == 17

    @settings(max_examples=25)
    @given(operators)
    def test_c1_always_vanishes(self, op):
        assert holomorphic_solution(op, 3).coeffs[1] == 0

    @settings(max_examples=25)
    @given(operators)
    def test_recursion_solves_operator(self, op):
        sol = holomorphic_solution(op, 12)
        assert all(c == 0 for c in apply_operator(op, sol).coeffs)


class TestIntegerRecursion:
    @settings(max_examples=40)
    @given(st.one_of(operators, rational_operators), st.integers(0, 14))
    def test_solution_matches_fraction_recursion(self, op, order):
        got = holomorphic_solution(op, order)
        assert got == fraction_solution(op, order)
        assert all_fractions(got)

    @settings(max_examples=40)
    @given(st.one_of(operators, rational_operators), rational_series)
    def test_apply_matches_fraction_action(self, op, f):
        got = apply_operator(op, f)
        assert got == fraction_apply(op, f)
        assert all_fractions(got)

    @settings(max_examples=25)
    @given(rational_operators)
    def test_recursion_solves_rational_operator(self, op):
        sol = holomorphic_solution(op, 12)
        assert apply_operator(op, sol) == TruncatedSeries([0], 12)


class TestApplyInVariable:
    """L written in a variable t(q): on f∘t it must give (L f)∘t."""

    @settings(max_examples=30)
    @given(rational_operators | operators, rational_series)
    def test_in_q_itself_is_apply_operator(self, op, f):
        # apply_operator is apply_operator_in at t = q, so the Fraction
        # oracle is the independent side
        t = TruncatedSeries.identity(f.order + 1)
        assert apply_operator_in(op, f, t) == fraction_apply(op, f)

    @settings(max_examples=30, deadline=None)
    @given(rational_operators | operators, rational_series,
           st.lists(small_rationals, min_size=13, max_size=13), small_rationals)
    def test_chain_rule(self, op, f, tail, lead):
        # a leading coefficient other than 1 keeps t general
        if lead == 0:
            lead = F(1)
        k = f.order
        t = TruncatedSeries([0, lead, *tail[:k]], k + 1)
        inner = t.truncate(k)
        assert apply_operator_in(op, f.compose(inner), t) == fraction_apply(op, f).compose(inner)

    @pytest.mark.parametrize("key", sorted(OPERATORS))
    def test_kills_the_solution_in_any_variable(self, key):
        op, k = OPERATORS[key], 25
        t = TruncatedSeries([0, 1, *(F(n * n - 3, n + 1) for n in range(k))], k + 1)
        f = holomorphic_solution(op, k).compose(t.truncate(k))
        assert apply_operator_in(op, f, t) == TruncatedSeries.zero(k)

    def test_needs_t_one_order_beyond_f(self):
        # u = t/(q·dt/dq) through q^k needs t through q^(k+1)
        op, f = OPERATORS["L12"], holomorphic_solution(OPERATORS["L12"], 10)
        with pytest.raises(SeriesError):
            apply_operator_in(op, f, TruncatedSeries.identity(10))
        with pytest.raises(SeriesError):
            apply_operator_in(op, f, TruncatedSeries([1, 1], 11))
        with pytest.raises(SeriesError):
            apply_operator_in(op, f, TruncatedSeries([0, 0, 1], 11))


def a_basis(op):
    """(a01, a02, a03, a11, a12) of op in the paper's alternate a-basis,
    related over Z by b1 = a11, b2 = a12 + 2·a01 − a11², b3 = a01,
    b4 = a02 − a01·a11, b5 = a03 − a01²."""
    b1, b2, b3, b4, b5 = op
    return (b3, b4 + b1 * b3, b5 + b3 ** 2, b1, b2 - 2 * b3 + b1 ** 2)


class TestBasisChange:
    def test_printed_conversion_of_l12(self):
        assert a_basis(OPERATORS["L12"]) == (24, 144, 576, 2, 36)


class TestConstruction:
    def test_l62_parameters(self):
        assert OPERATORS["L6,2"] == D3Operator(6, 368, 88, 1056, 3584)

    def test_int_fraction_and_string_parameters_accepted(self):
        op = D3Operator(1, F(-3, 2), "0", "7", "22/7")
        assert op == D3Operator(1, F(-3, 2), 0, 7, F(22, 7))
