"""Eta, eta-products, E4, Delta, Klein j -- against direct-product oracles."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_periods import canonical_sha256

from gfano import qexp
from gfano.hauptmodul import _QUOTIENTS
from gfano.mathieu import M24_SHAPES, S24_EXTRA_SHAPES, FrameShape
from gfano.qexp import (
    ETA_PRODUCTS,
    EtaQuotient,
    OffsetError,
    ParseError,
    QExpansion,
    discriminant,
    eisenstein_e4,
    eta,
    eta_product,
    klein_j,
)
from gfano.series import SeriesError, TruncatedSeries


def product_oracle(order, step=1, power=1):
    """Π_{n≥1} (1 - q^{step·n})^power expanded term by term.

    Deliberately naive: repeated shift-and-subtract, no pentagonal numbers.
    """
    cs = [1] + [0] * order
    for n in range(step, order + 1, step):
        for _ in range(power):
            cs = [cs[i] - (cs[i - n] if i >= n else 0) for i in range(order + 1)]
    return cs


class TestEta:
    def test_printed_prefix(self):
        assert [int(c) for c in eta(7).body.coeffs] == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_offset(self):
        assert eta(5).offset == F(1, 24)

    def test_pentagonal_equals_product_to_500(self):
        got = [int(c) for c in eta(500).body.coeffs]
        assert got == product_oracle(500)

    def test_eta_24_is_discriminant(self):
        d = eta(40) ** 24
        assert d.offset == 1
        assert [int(c) for c in d.body.coeffs[:4]] == [1, -24, 252, -1472]
        assert [int(c) for c in d.body.coeffs] == product_oracle(40, power=24)
        # discriminant() and ** both run series._miller on the same
        # pentagonal body, so the naive product above is the independent
        # check on both
        assert discriminant(40) == d


class TestEtaProducts:
    @pytest.mark.parametrize(
        "key,offset",
        [("6+", F(1, 2)), ("10+", F(3, 4)), ("12+", F(1, 2)), ("14+", 1), ("15+", 1)],
    )
    def test_offsets_match_identity_exponents(self, key, offset):
        assert eta_product(ETA_PRODUCTS[key], 10).offset == offset
        assert F(ETA_PRODUCTS[key].sigma1, 24) == offset

    def test_sigma1_values(self):
        assert ETA_PRODUCTS["6+"].sigma1 == 12
        assert ETA_PRODUCTS["12+"].sigma1 == 2 * 4 + 6 * 4 - 1 - 3 - 4 - 12 == 12
        assert ETA_PRODUCTS["14+"].sigma1 == 24

    def test_product_against_oracle(self):
        # eta_6+ body = Π (1-q^n)(1-q^2n)(1-q^3n)(1-q^6n)
        order = 60
        got = [int(c) for c in eta_product(ETA_PRODUCTS["6+"], order).body.coeffs]
        acc = [F(c) for c in product_oracle(order)]
        for step in (2, 3, 6):
            other = product_oracle(order, step=step)
            acc = [
                sum(acc[j] * other[i - j] for j in range(i + 1)) for i in range(order + 1)
            ]
        assert got == [int(c) for c in acc]

    def test_integer_weight_products_have_integer_bodies(self):
        for key in ETA_PRODUCTS:
            body = eta_product(ETA_PRODUCTS[key], 50).body
            assert all(c.denominator == 1 for c in body.coeffs), key


def fraction_reciprocal(cs):
    """1/A by the schoolbook recursion on Fractions."""
    out = [1 / F(cs[0])]
    for n in range(1, len(cs)):
        out.append(-sum(cs[k] * out[n - k] for k in range(1, n + 1)) / cs[0])
    return out


def naive_eta_body(g, order):
    """Π_i Π_n (1 - q^{in})^{a_i} one dilated factor at a time: the
    product_oracle factor for a_i > 0, its Fraction reciprocal for a_i < 0,
    multiplied in by the schoolbook convolution."""
    acc = [1] + [0] * order
    for i, a in g.counts:
        factor = product_oracle(order, step=i, power=abs(a))
        if a < 0:
            factor = fraction_reciprocal(factor)
        acc = [sum(acc[j] * factor[n - j] for j in range(n + 1)) for n in range(order + 1)]
    return acc


#: Every eta-product the package builds: the 28 M24/S24 frame shapes, the
#: Hauptmodul quotients (12A's among them) and the identity products.
ORACLE_SHAPES = {
    **{f"shape {g}": g for g in M24_SHAPES + S24_EXTRA_SHAPES},
    **{f"quotient {label}": f for label, (f, _, _) in _QUOTIENTS.items()},
    **{f"product {key}": g for key, g in ETA_PRODUCTS.items()},
}


#: The 28 M24/S24 frame shapes and the five Hauptmodul quotients of the
#: route table, keyed by name for the pinned digests below.
PINNED_SHAPES = {str(g): g for g in M24_SHAPES + S24_EXTRA_SHAPES}
PINNED_QUOTIENTS = {label: f for label, (f, _, _) in _QUOTIENTS.items()}

# Recorded from the divisor-sum (σ₁) recurrence, before eta-products were
# built from their pentagonal factors; they pin the bodies bit for bit.
# 211 is prime, so no shape's cycle gcd divides it.  The shapes at 210 are
# pinned in test_mathieu (MASON_DIGEST_210).
PINNED_DIGESTS = {
    ("shapes", 211): "7c240cd65fa9a663a316161dc902af9ceab590ac96455150f6515cf892c6d411",
    ("quotients", 210): "6c3c29b28b0edaa53d100284c7d17de0b747dc977716d73618c8bd6ebe7d333d",
    ("quotients", 211): "65557ee03705db23733ce34a60df60b0fd1a11a91655194150d5e37fa4fd0fbe",
}


class TestEtaProductRecurrence:
    @pytest.mark.parametrize("group,order", sorted(PINNED_DIGESTS))
    def test_pinned_digests(self, group, order):
        quotients = PINNED_SHAPES if group == "shapes" else PINNED_QUOTIENTS
        got = {name: eta_product(g, order) for name, g in quotients.items()}
        assert canonical_sha256(got) == PINNED_DIGESTS[group, order]

    @pytest.mark.parametrize("exponents", [
        {1: 2, 2: 0, 3: 1},        # an exponent of 0
        {2: 0, 4: 3},              # cycle gcd 4 once the zero exponent is dropped
        {1: -24},                  # 1/Delta
        {2: -3, 4: 5, 1: -1},      # negative exponents on dilated factors
        {3: -2, 6: 4, 9: -1},      # cycle gcd 3, a quotient
        {5: 3, 40: 2},             # cycle gcd 5, one cycle longer than the order
        {2: 12},                   # the shape 2^12, cycle gcd 2
        {12: 2},                   # the shape 12^2, cycle gcd 12
    ])
    def test_edge_cases_against_naive_product(self, exponents):
        g = EtaQuotient.from_counts(exponents)
        expected = naive_eta_body(g, 30)
        for order in (1, 2, 3, 7, 30):
            got = eta_product(g, order)
            assert got.offset == F(g.sigma1, 24)
            assert got.body == TruncatedSeries(expected[: order + 1], order), order

    def test_only_cycles_longer_than_the_order(self):
        got = eta_product(EtaQuotient.parse("30^5 45^-1"), 20)
        assert got == QExpansion(F(105, 24), TruncatedSeries.one(20))

    def test_no_exponents_is_one(self):
        assert EtaQuotient.from_counts({1: 0, 7: 0}) == EtaQuotient.from_counts({}) == ((),)
        assert eta_product(EtaQuotient.from_counts({}), 5) == QExpansion(0, TruncatedSeries.one(5))

    def test_validation_runs_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("an eta power was built before the exponents were checked")

        monkeypatch.setattr(qexp, "_miller", no_work)
        with pytest.raises(TypeError):
            eta_product(EtaQuotient.from_counts({1: 24, 2: F(1, 2)}), 50)
        with pytest.raises(ParseError):
            eta_product(EtaQuotient.from_counts({1: 24, 0: 1}), 50)
        with pytest.raises(SeriesError):
            eta_product(EtaQuotient.parse("1^24"), 0)

    @pytest.mark.parametrize("name", sorted(ORACLE_SHAPES))
    def test_against_naive_product(self, name):
        g = ORACLE_SHAPES[name]
        expected = naive_eta_body(g, 100)
        for order in (1, 2, 5, 100):
            got = eta_product(g, order)
            assert got.offset == F(g.sigma1, 24)
            assert got.body == TruncatedSeries(expected[: order + 1], order), order

    def test_cycle_longer_than_the_order(self):
        assert eta_product(EtaQuotient.parse("1 30^5"), 20) == eta_product(
            EtaQuotient.parse("1"), 20) * QExpansion(
            F(150, 24), TruncatedSeries.one(20))

    @pytest.mark.parametrize("a", [F(1, 2), F(3), 1.0])
    def test_non_integer_exponent_is_type_error(self, a):
        with pytest.raises(TypeError):
            EtaQuotient.from_counts({1: 1, 2: a})

    @pytest.mark.parametrize("i", [0, -2])
    def test_cycle_length_below_one_is_parse_error(self, i):
        with pytest.raises(ParseError, match="cycle lengths must be positive"):
            EtaQuotient.from_counts({1: 1, i: 1})


class TestEtaQuotient:
    @pytest.mark.parametrize("name", sorted(ORACLE_SHAPES))
    def test_parse_round_trip(self, name):
        g = ORACLE_SHAPES[name]
        assert EtaQuotient.parse(str(g)) == g

    @pytest.mark.parametrize("text", [str(g) for g in M24_SHAPES + S24_EXTRA_SHAPES])
    def test_frame_shape_is_its_eta_quotient(self, text):
        g, q = FrameShape.parse(text), EtaQuotient.parse(text)
        assert type(g) is FrameShape and type(q) is EtaQuotient
        assert g == q and hash(g) == hash(q)

    @pytest.mark.parametrize("cls", [EtaQuotient, FrameShape])
    @pytest.mark.parametrize("counts", [
        {1: 24.0}, {1: F(24)}, {1.0: 24}, {F(3, 2): 16}, {1: 8, F(2): 8},
    ], ids=["float r", "Fraction r", "float delta", "Fraction delta",
            "integral Fraction delta"])
    def test_non_integer_counts_are_type_errors(self, cls, counts):
        with pytest.raises(TypeError):
            cls.from_counts(counts)


class TestEisensteinDelta:
    def test_e4_prefix(self):
        e4 = eisenstein_e4(4)
        assert e4.offset == 0
        assert [int(c) for c in e4.body.coeffs] == [1, 240, 2160, 6720, 17520]

    def test_j_prefix(self):
        j = klein_j(3)
        assert j.offset == -1
        assert [int(c) for c in j.body.coeffs] == [1, 744, 196884, 21493760]

    def test_e4_needs_order_one(self):
        with pytest.raises(SeriesError):
            eisenstein_e4(0)

    def test_delta_unit_body(self):
        d = discriminant(10)
        assert d.offset == 1 and d.body.coeffs[0] == 1

    def test_e4_cubed_equals_j_times_delta(self):
        order = 40
        e4 = eisenstein_e4(order)
        lhs = e4 * e4 * e4
        rhs = klein_j(order) * discriminant(order)
        assert lhs.offset == rhs.offset == 0
        assert lhs.body.truncate(order - 1) == rhs.body.truncate(order - 1)


class TestQExpansionAlgebra:
    def test_multiplication_adds_offsets(self):
        a = eta(10)
        b = a * a
        assert b.offset == F(1, 12)

    def test_pow_rational_scales_offset(self):
        d = discriminant(10)
        assert d.pow_rational(F(1, 2)).offset == F(1, 2)

    def test_equality_needs_the_same_order(self):
        short = QExpansion(-1, TruncatedSeries([1, 2], 1))
        long = QExpansion(-1, TruncatedSeries([1, 2, 3], 2))
        other = QExpansion(-1, TruncatedSeries([1, 2, 4], 2))
        assert short != long and short != other and long != other
        assert len({short, long, other, QExpansion(-1, TruncatedSeries([1, 2], 1))}) == 3

    def test_offset_must_stay_in_24ths(self):
        with pytest.raises(OffsetError):
            QExpansion(F(1, 5), TruncatedSeries([1], 3))

    def test_body_must_be_a_unit(self):
        # offset 0 with coefficient(0) == 0 would misstate the q-valuation
        with pytest.raises(OffsetError, match="zero constant term"):
            QExpansion(0, TruncatedSeries([0, 1, 2], 2))

    @pytest.mark.parametrize("op", [
        lambda x: x * 2,
        lambda x: 2 * x,
        lambda x: x * F(1, 2),
        lambda x: x / 2,
        lambda x: x + x,
        lambda x: x - x,
        lambda x: -x,
    ])
    def test_no_scalar_or_additive_operations(self, op):
        with pytest.raises(TypeError):
            op(eta(5))

    @settings(max_examples=25)
    @given(st.integers(1, 12), st.integers(1, 4))
    def test_reciprocal_roundtrip(self, order, k):
        d = discriminant(order) ** k
        prod = d * d.reciprocal()
        assert prod.offset == 0
        assert prod.body == TruncatedSeries.one(order)

    def test_coefficient_accessor(self):
        # body.coeffs[n] is the coefficient of q^(offset + n)
        j = klein_j(3)
        assert j.offset == -1
        assert j.body.coeffs[:2] == (1, 744)

    def test_json_offset_in_24ths(self):
        assert eta(3).to_json()["offset"] == "1/24"
        assert klein_j(3).to_json()["offset"] == "-24/24"
