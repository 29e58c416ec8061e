"""I-series generators vs brute-force enumeration; G-series; relations."""

import hashlib
import json
from fractions import Fraction as F
from itertools import product
from math import comb, factorial

import pytest

from gfano import d3, periods, verify
from gfano.periods import (
    EVEN_REDUCTION,
    FAMILIES,
    FreeShift,
    UnknownFamily,
    family,
    givental_constant,
    gseries,
    iseries,
)
from gfano.series import SeriesError, TruncatedSeries, inverse_laplace, laplace, normalize
from gfano.verify import check_exp_relation

PRINTED_ISERIES = {
    "Y48_2": [1, 0, 4, 0, 60, 0, 1120, 0, 24220, 0, 567504],
    "Y48_3": [1, 0, 6, 0, 90, 0, 1860, 0, 44730, 0, 1172556],
    "Y30": [1, 3, 15, 105, 855, 7533],
    "Y24": [1, 4, 28, 256, 2716, 31504],
    "Y20": [1, 2, 18, 164, 1810, 21252, 263844, 3395016],
    "Y12_2": [1, 4, 60, 1120, 24220, 567504],
    "Y12_3": [1, 6, 90, 1860, 44730, 1172556],
}


def compositions(k, parts):
    """All tuples of `parts` non-negative integers summing to k."""
    if parts == 1:
        yield (k,)
        return
    for head in range(k + 1):
        for rest in compositions(k - head, parts - 1):
            yield (head, *rest)


def brute_force_coefficient(key, k):
    """Term-by-term evaluation of the defining multi-index sums."""
    if key == "X6":
        return F(factorial(6 * k), factorial(3 * k) * factorial(k) ** 3)
    if key == "Y20":
        return sum(
            F(factorial(a + b) ** 4, (factorial(a) * factorial(b)) ** 4)
            for a, b in compositions(k, 2)
        )
    if key == "Y24":
        return sum(
            F(factorial(a + b + c + d) ** 2,
              (factorial(a) * factorial(b) * factorial(c) * factorial(d)) ** 2)
            for a, b, c, d in compositions(k, 4)
        )
    if key == "Y12_2":
        return sum(
            F(factorial(a + b) * factorial(2 * a + 2 * b),
              (factorial(a) * factorial(b)) ** 3)
            for a, b in compositions(k, 2)
        )
    if key == "Y12_3":
        return sum(
            F(factorial(2 * (a + b + c)),
              (factorial(a) * factorial(b) * factorial(c)) ** 2)
            for a, b, c in compositions(k, 3)
        )
    if key == "Y30":
        return sum(
            F(factorial(a + b) * factorial(a + c) * factorial(b + c)
              * factorial(a + b + c),
              (factorial(a) * factorial(b) * factorial(c)) ** 3)
            for a, b, c in compositions(k, 3)
        )
    raise KeyError(key)


def y30_triple_sum(k):
    """Y30's i_k as the triple sum Σ_{a+b+c=k} C(a+b,a)·C(a+c,a)·C(b+c,b)·
    C(k,a)·C(k-a,b), over a <= b <= c and weighted by the number of
    distinct permutations: the oracle of the generator's recurrence."""
    total = 0
    for a in range(k // 3 + 1):
        for b in range(a, (k - a) // 2 + 1):
            c = k - a - b
            term = (comb(a + b, a) * comb(a + c, a) * comb(b + c, b)
                    * comb(k, a) * comb(k - a, b))
            total += term * (1 if a == b == c else 3 if a == b or b == c else 6)
    return total


def pascal_rows(n):
    """Rows 0..n of Pascal's triangle."""
    rows = [[1]]
    for _ in range(n):
        last = rows[-1]
        rows.append([1] + [x + y for x, y in zip(last, last[1:])] + [1])
    return rows


def central_binomials(n):
    """C(2k, k) for k = 0..n."""
    return [comb(2 * k, k) for k in range(n + 1)]


def binomial_sums(key, order):
    """i_0..i_order of the four binomial-sum families as the sums
    themselves, added and multiplied row by row over Pascal's triangle:
    the oracles of the generators' recurrences."""
    central = central_binomials(order)
    rows = pascal_rows(order)
    if key == "Y12_2":
        return [central[k] * sum(x ** 3 for x in row) for k, row in enumerate(rows)]
    if key == "Y12_3":
        return [central[k] * sum(x * x * central[j] for j, x in enumerate(row))
                for k, row in enumerate(rows)]
    if key == "Y20":
        return [sum(x ** 4 for x in row) for row in rows]
    if key == "Y24":
        return [sum(x * x * central[j] * central[k - j] for j, x in enumerate(row))
                for k, row in enumerate(rows)]
    raise KeyError(key)


RECURRENCE_FAMILIES = ["Y12_2", "Y12_3", "Y20", "Y24"]


def exp_power_form(key, order):
    """The generators as k!^m [t^k] (Σ t^a/a!^m)^p, the power form the
    binomial sums replaced."""
    m, power = {"Y20": (4, 2), "Y24": (2, 4), "Y12_3": (2, 3)}[key]
    base = TruncatedSeries([F(1, factorial(a) ** m) for a in range(order + 1)], order)
    conv = (base ** power).coeffs
    return [
        (comb(2 * k, k) if key == "Y12_3" else 1) * factorial(k) ** m * conv[k]
        for k in range(order + 1)
    ]


def canonical_sha256(series_by_key):
    """sha256 of the sorted, compact JSON of {key: series.to_json()}."""
    text = json.dumps({key: s.to_json() for key, s in series_by_key.items()},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded from the Fraction generators, shift and D3 recursion before the
# period layer moved onto integers; they pin its outputs bit for bit.
PINNED_DIGESTS = {
    "iseries": "22cf9d721bfb2b853fa95de73a36079619c5711ff7b809b1d645b33ab18261f1",
    "gseries": "995c96587e491f6f40eb9582304c032e766265659cc41deca1807330a5d958e2",
    "d3": "1f87e88b0193b73d4c58e5012dc0bd1e20a488cdc342cfab042ce194395afb76",
}


class TestPinnedOutputs:
    def test_iseries_of_all_families_to_100(self):
        got = {key: iseries(key, 100) for key in sorted(FAMILIES)}
        assert canonical_sha256(got) == PINNED_DIGESTS["iseries"]

    def test_gseries_to_100(self):
        got = {key: gseries(key, 100) for key in sorted(FAMILIES) if key != "Y28"}
        assert len(got) == 8
        assert canonical_sha256(got) == PINNED_DIGESTS["gseries"]

    def test_catalog_solutions_to_200(self):
        # the six operators the digest was recorded over; L1 is pinned below
        keys = ["L10", "L12", "L14", "L15", "L6,2", "L6,3"]
        got = {key: d3.holomorphic_solution(d3.OPERATORS[key], 200) for key in keys}
        assert canonical_sha256(got) == PINNED_DIGESTS["d3"]

    def test_l1_solution_is_the_normalized_x6_period_to_200(self):
        # the iseries digest above pins the right-hand side
        assert (d3.holomorphic_solution(d3.OPERATORS["L1"], 200)
                == normalize(iseries("X6", 200)))


class TestISeries:
    @pytest.mark.parametrize("key", sorted(PRINTED_ISERIES))
    def test_printed_prefixes(self, key):
        exp = PRINTED_ISERIES[key]
        got = [int(c) for c in iseries(key, len(exp) - 1).coeffs]
        assert got == exp

    def test_x6_coefficients(self):
        assert [int(c) for c in iseries("X6", 2).coeffs] == [1, 120, 83160]

    @pytest.mark.parametrize("key", ["X6", "Y20", "Y24", "Y12_2", "Y12_3", "Y30"])
    def test_against_composition_enumeration(self, key):
        got = iseries(key, 12)
        for k in range(13):
            assert got.coeffs[k] == brute_force_coefficient(key, k), (key, k)

    def test_y30_recurrence_against_triple_sum(self):
        assert list(iseries("Y30", 40).coeffs) == [y30_triple_sum(k) for k in range(41)]
        assert iseries("Y30", 120).coeffs[120] == y30_triple_sum(120)

    @pytest.mark.parametrize("key", RECURRENCE_FAMILIES)
    def test_recurrence_against_binomial_sum(self, key):
        assert list(iseries(key, 120).coeffs) == binomial_sums(key, 120)
        assert iseries(key, 300).coeffs[300] == binomial_sums(key, 300)[300]

    @pytest.mark.parametrize("key", RECURRENCE_FAMILIES)
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_recurrence_at_the_lowest_orders(self, key, order):
        want = binomial_sums(key, order)
        assert periods._CLOSED_FORMS[key](order) == want
        assert list(iseries(key, order).coeffs) == want

    def test_recurrence_with_a_remainder_raises(self):
        # l = p = r = 1 gives the Fibonacci numbers
        assert periods._recurrence("Y24", 1, lambda n: (1, 1, 1), 5) == [1, 1, 2, 3, 5, 8]
        with pytest.raises(SeriesError, match=r"^Y20 sum a_2 is not an integer$"):
            periods._recurrence("Y20", 1, lambda n: (2, 1, 0), 5)
        # a_2 = 2 and a_3 = 3 are exact, 2·a_4 = 3 + 2 is not
        with pytest.raises(SeriesError, match=r"^Y24 sum a_4 is not an integer$"):
            periods._recurrence("Y24", 1, lambda n: (1 if n < 3 else 2, 1, 1), 6)

    @pytest.mark.parametrize("key", ["Y20", "Y24", "Y12_3"])
    def test_against_exp_power_form_to_60(self, key):
        assert list(iseries(key, 60).coeffs) == exp_power_form(key, 60)

    def test_positive_integers(self):
        for key in FAMILIES:
            for c in iseries(key, 40).coeffs:
                assert c.denominator == 1
                assert c >= 0

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            iseries("Y99", 5)

    def test_y28_is_the_l14_solution(self):
        assert iseries("Y28", 30) == d3.holomorphic_solution(d3.OPERATORS["L14"], 30)


class TestNormalizedPeriods:
    @pytest.mark.parametrize(
        "key", [k for k, f in FAMILIES.items() if f.d3_operator]
    )
    def test_normalized_iseries_solves_d3(self, key):
        op = d3.OPERATORS[family(key).d3_operator]
        assert normalize(iseries(key, 100)) == d3.holomorphic_solution(op, 100)


class TestGSeries:
    def test_zero_linear_coefficient(self):
        for key in ("Y30", "Y24", "Y20", "Y12_2", "Y12_3", "X6", "Y48_2", "Y48_3"):
            assert gseries(key, 6).coeffs[1] == 0

    def test_laplace_roundtrip(self):
        for key in ("Y30", "Y24", "X6"):
            g = gseries(key, 12)
            s = iseries(key, 12).coeffs[1]
            shifted = laplace(TruncatedSeries.exponential(s, 12) * g)
            assert shifted == iseries(key, 12)

    def test_y24_conic_count(self):
        assert gseries("Y24", 4).coeffs[2] == 6

    def test_iseries_is_built_once_per_key_and_order(self, monkeypatch):
        builds = []
        build = periods._CLOSED_FORMS["Y30"]

        def counted(order):
            builds.append(order)
            return build(order)

        monkeypatch.setitem(periods._CLOSED_FORMS, "Y30", counted)
        periods._iseries.cache_clear()
        try:
            i = iseries("Y30", 20)
            gseries("Y30", 20)
            assert builds == [20]
            assert iseries("Y30", 20) is i
        finally:
            periods._iseries.cache_clear()

    def test_free_shift_guard(self):
        with pytest.raises(FreeShift, match=r"^Y28 has no independent G-series: "
                                            r"its I-series is the solution of L14$"):
            gseries("Y28", 10)
        with pytest.raises(FreeShift):
            givental_constant("Y28")

    def test_a_family_outside_the_table_is_its_operator_solution(self, monkeypatch):
        # the period is chosen by its kind: with Y20's closed form gone,
        # Y20 is an operator-only family like Y28
        monkeypatch.delitem(periods._CLOSED_FORMS, "Y20")
        periods._iseries.cache_clear()
        try:
            assert iseries("Y20", 20) == d3.holomorphic_solution(d3.OPERATORS["L10"], 20)
            with pytest.raises(FreeShift, match=r"^Y20 .* solution of L10$"):
                gseries("Y20", 20)
        finally:
            periods._iseries.cache_clear()


class TestGiventalConstants:
    @pytest.mark.parametrize(
        "key,expected",
        [("Y30", 3), ("Y24", 6), ("Y20", 7), ("Y12_2", 22), ("Y12_3", 27)],
    )
    def test_values(self, key, expected):
        assert givental_constant(key) == expected

    @pytest.mark.parametrize(
        "key", ["Y12_2", "Y12_3", "Y20", "Y24", "Y30"]
    )
    def test_equals_half_normalized_t2_coefficient(self, key):
        op = d3.OPERATORS[family(key).d3_operator]
        f = d3.holomorphic_solution(op, 2)
        assert givental_constant(key) == f.coeffs[2] / 2


class TestRelations:
    def test_index2_gseries_from_their_own_geometry(self):
        # Coates, Corti, Galkin & Kasprzyk, "Quantum periods for
        # 3-dimensional Fano manifolds" (2016), in x = t^2: Y48_2 is the
        # (1,1) divisor W in P^2 x P^2 and Y48_3 is P^1 x P^1 x P^1.  Unlike
        # the index-2 I-series, this does not go through Y12_2/Y12_3.
        def w_divisor(k):
            return sum(F(factorial(k), (factorial(a) * factorial(b)) ** 3)
                       for a, b in compositions(k, 2))

        def p1_cubed(k):
            return sum(F(1, (factorial(a) * factorial(b) * factorial(c)) ** 2)
                       for a, b, c in compositions(k, 3))

        for key, coeff in (("Y48_2", w_divisor), ("Y48_3", p1_cubed)):
            in_x = [0 if n % 2 else coeff(n // 2) for n in range(21)]
            assert gseries(key, 20) == TruncatedSeries(in_x, 20), key

    def test_even_substitution_spot_values(self):
        even = iseries("Y48_2", 8)
        base = iseries("Y12_2", 4)
        assert even.coeffs[4] == base.coeffs[2] == 60
        assert all(even.coeffs[n] == 0 for n in range(1, 9, 2))
        even3 = iseries("Y48_3", 4)
        assert even3.coeffs[2] == iseries("Y12_3", 1).coeffs[1] == 6

    def test_exp_relation_passes_to_k20(self):
        report = check_exp_relation(40)
        assert report.ok, report

    def test_exp_relation_reports_a_tampered_coefficient(self, monkeypatch):
        real = verify.gseries

        def tampered(key, order):
            g = real(key, order)
            if key != "Y48_3":
                return g
            cs = list(g.coeffs)
            cs[6] += 1
            return TruncatedSeries(cs, g.order)

        monkeypatch.setattr(verify, "gseries", tampered)
        report = check_exp_relation(20)
        assert not report.ok
        n, lhs, rhs = report.first_mismatch
        assert n == 3
        # h3_3 = 3!·g3_6 grew by 3! = 6 over the e^x side
        assert lhs - rhs == 6
        assert report.to_json()["status"] == "FAIL"

    def test_exp_relation_first_steps_by_hand(self):
        g2 = inverse_laplace(iseries("Y48_2", 4))
        g3 = inverse_laplace(iseries("Y48_3", 4))
        # k = 1 reduces to g3_2 = g2_2 + 1 in both the bare and the
        # regularized form
        assert g3.coeffs[2] == g2.coeffs[2] + 1

    def test_bare_product_form_fails_at_k2(self):
        # the relation needs the regularization in x = t^2; the bare
        # coefficientwise product with e^x breaks at k = 2 (15/4 vs 5)
        g2 = inverse_laplace(iseries("Y48_2", 4))
        g3 = inverse_laplace(iseries("Y48_3", 4))
        bare = sum(g2.coeffs[2 * j] / factorial(2 - j) for j in range(3))
        assert g3.coeffs[4] == F(15, 4)
        assert bare == 5
        assert g3.coeffs[4] != bare


class TestRegistry:
    def test_scope_rows(self):
        rows = {
            (f.N, f.shift, f.c_minus_s, f.hauptmodul, f.rho)
            for f in FAMILIES.values()
            if f.index == 1
        }
        assert rows == {
            (1, 120, 624, "1A", 1),
            (6, 6, 8, "6A", 3),
            (6, 4, 6, "6A", 2),
            (10, 2, 2, "10A", 2),
            (12, 4, 2, "12A", 4),
            (14, None, 1, "14A", 2),
            (15, None, 1, "15A", 3),
        }

    def test_index2_families(self):
        assert family("Y48_2").index == 2 and family("Y48_2").degree == 48
        assert family("Y48_3").rho == 3

    def test_index2_is_the_even_reduction(self):
        # the registry prints `index`, the code branches on EVEN_REDUCTION
        assert {k for k, f in FAMILIES.items() if f.index == 2} == set(EVEN_REDUCTION)

    def test_free_shift_constant_rule(self):
        fam = family("Y28")
        assert fam.c_minus_s == 1
        assert fam.default_shift(iseries("Y28", 1)) == 0
        assert family("Y30").default_shift(iseries("Y30", 1)) == 3

    @pytest.mark.parametrize(
        "key", [k for k, f in FAMILIES.items() if f.d3_operator]
    )
    def test_c_minus_s_is_the_operator_b1(self, key):
        # c − s is the constant term of T = 1/H_{c−s}; the operator's b1,
        # not stored with the row, must agree
        fam = family(key)
        assert fam.c_minus_s == d3.OPERATORS[fam.d3_operator].b1

    @pytest.mark.parametrize(
        "key", [k for k, f in FAMILIES.items()
                if f.index == 1 and f.shift is not None]
    )
    def test_pinned_shift_is_the_iseries_linear_coefficient(self, key):
        assert iseries(key, 1).coeffs[1] == family(key).shift

    def test_exponents(self):
        assert family("X6").exponent == F(1, 6)
        assert family("Y20").exponent == F(3, 4)
        assert family("Y28").exponent == 1
