"""I-series generators vs brute-force enumeration; G-series; relations."""

import hashlib
import json
from fractions import Fraction as F
from itertools import product
from math import comb, factorial

import pytest

from gfano import d3, periods
from gfano.periods import (
    FAMILIES,
    FreeShift,
    NonzeroLinearTerm,
    UnknownFamily,
    check_even_substitution,
    check_exp_relation,
    family,
    givental_constant,
    gseries,
    iseries,
)
from gfano.series import TruncatedSeries, inverse_laplace, laplace, normalize

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
        "key", ["Y12_2", "Y12_3", "Y20", "Y24", "Y28", "Y30"]
    )
    def test_normalized_iseries_solves_d3(self, key):
        op = d3.OPERATORS[family(key).d3_operator]
        assert normalize(iseries(key, 80)) == d3.holomorphic_solution(op, 80)


class TestGSeries:
    def test_zero_linear_coefficient(self):
        for key in ("Y30", "Y24", "Y20", "Y12_2", "Y12_3", "X6", "Y48_2", "Y48_3"):
            assert gseries(key, 6).coeffs[1] == 0

    def test_laplace_roundtrip(self):
        for key in ("Y30", "Y24", "X6"):
            fam = family(key)
            g = gseries(key, 12)
            shifted = laplace(TruncatedSeries.exponential(fam.formula_shift, 12) * g)
            assert shifted == iseries(key, 12)

    def test_y24_conic_count(self):
        assert gseries("Y24", 4).coeffs[2] == 6

    def test_uncancelled_linear_term_raises(self, monkeypatch):
        fam = family("Y24")
        wrong = fam._replace(formula_shift=fam.formula_shift + 1)
        monkeypatch.setattr(periods, "family", lambda key: wrong)
        with pytest.raises(NonzeroLinearTerm):
            gseries("Y24", 4)

    def test_iseries_is_built_once_per_key_and_order(self, monkeypatch):
        builds = []
        build = periods._closed_form_coeffs

        def counted(key, order):
            builds.append((key, order))
            return build(key, order)

        monkeypatch.setattr(periods, "_closed_form_coeffs", counted)
        periods._iseries.cache_clear()
        i = iseries("Y30", 20)
        gseries("Y30", 20)
        assert builds == [("Y30", 20)]
        assert iseries("Y30", 20) is i

    def test_free_shift_guard(self):
        with pytest.raises(FreeShift):
            gseries("Y28", 10)
        with pytest.raises(FreeShift):
            givental_constant("Y28")


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
    def test_even_substitution_passes(self):
        reports = check_even_substitution(40)
        assert set(reports) == {"Y48_2", "Y48_3"}
        for report in reports.values():
            assert report.ok, report

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
        real = periods.gseries

        def tampered(key, order):
            g = real(key, order)
            if key != "Y48_3":
                return g
            cs = list(g.coeffs)
            cs[6] += 1
            return TruncatedSeries(cs, g.order)

        monkeypatch.setattr(periods, "gseries", tampered)
        report = check_exp_relation(20)
        assert not report.ok
        assert report.first_mismatch == 3
        # h3_3 = 3!·g3_6 grew by 3! = 6 over the e^x side
        assert report.lhs - report.rhs == 6
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
            (f.N, f.shift, f.constant, f.hauptmodul, f.rho)
            for f in FAMILIES.values()
            if f.index == 1
        }
        assert rows == {
            (1, 120, 744, "1A", 1),
            (6, 6, 14, "6A", 3),
            (6, 4, 10, "6A", 2),
            (10, 2, 4, "10A", 2),
            (12, 4, 6, "12A", 4),
            (14, None, None, "14A", 2),
            (15, None, None, "15A", 3),
        }

    def test_index2_families(self):
        assert family("Y48_2").index == 2 and family("Y48_2").degree == 48
        assert family("Y48_3").rho == 3

    def test_free_shift_constant_rule(self):
        fam = family("Y28")
        assert fam.default_constant(2) == 3
        assert family("Y30").default_shift() == 3

    def test_exponents(self):
        assert family("X6").exponent == F(1, 6)
        assert family("Y20").exponent == F(3, 4)
        assert family("Y28").exponent == 1
