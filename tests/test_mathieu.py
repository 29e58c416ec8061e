"""Frame shapes, the φ ψ ε ι arithmetic, and Mason's eigenform checks."""

import hashlib
import json
from fractions import Fraction as F
from math import gcd

import pytest
from test_periods import canonical_sha256
from test_qexp import product_oracle

from gfano import mathieu
from gfano.mathieu import (
    CORRESPONDENCE_ROWS,
    FrameShape,
    M23_SHAPES,
    M24_EXTRA_SHAPES,
    M24_SHAPES,
    PRINTED_IOTA,
    S24_EXTRA_SHAPES,
    STARRED_IOTA,
    BoundTooSmall,
    ParseError,
    SumNot24,
    correspondence_report,
    epsilon,
    epsilon_integral_values,
    frobenius_mukai_check,
    hecke_eigenform_check,
    iota,
    iota_divided,
    mason_eta,
    phi,
    psi,
    rational_type,
)
from gfano.qexp import EtaQuotient, QExpansion, discriminant
from gfano.series import TruncatedSeries

#: sha256 of the 28 Mason bodies at 210, recorded from the repeated-squaring
#: eta-product before it became the σ₁ recurrence.
MASON_DIGEST_210 = "fd6098f36c251036b30353f49856af8f95f4aa236b2edd3a6b3f5fae85b5d792"

#: sha256 of the JSON list of (shape, bound, multiplicative_pairs,
#: recursion_checks, violations, character_note, ok) over HECKE_CONFIGS,
#: recorded when each caller still passed a prime bound at or above
#: √bound (20 at 210, 200 and 150, 12 at 120, 10 or 5 below).
HECKE_DIGEST = "feaf33718b1fabe9b542e4cada892a6fc5dbe824299e29a19c5d66a4720cb025"
HECKE_CONFIGS = (
    [(g, 210) for g in M24_SHAPES + S24_EXTRA_SHAPES]
    + [(g, 120) for g in M24_EXTRA_SHAPES]
    + [(g, 200) for g in M24_SHAPES]
    + [(g, 150) for g in M24_SHAPES + S24_EXTRA_SHAPES]
    + [(FrameShape.parse(text), bound) for text, bound in
       [("1^24", 60), ("1^4 2^2 4^4", 100), ("1^24", 10), ("1^24", 6)]]
)


def fraction_hecke_violations(a, g, bound):
    """The Hecke comparisons on Fraction coefficients a[1..bound]."""
    out = []
    for m in range(2, bound + 1):
        for n in range(m, bound // m + 1):
            if gcd(m, n) == 1 and a[m] * a[n] != a[m * n]:
                out.append(f"a({m})a({n}) != a({m*n})")
    pw = int(g.weight) - 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        if g.level % p == 0:
            continue
        r = 1
        while p ** (r + 1) <= bound:
            if a[p ** (r + 1)] != a[p] * a[p ** r] - p ** pw * a[p ** (r - 1)]:
                out.append(f"Hecke recursion fails at p={p}, r={r}")
            r += 1
    return out


class TestParsing:
    def test_identity_shape(self):
        g = FrameShape.parse("1^24")
        assert g.fixed_points == 24 and g.order == 1 and g.weight == 12

    def test_mixed_shape(self):
        g = FrameShape.parse("1^2 2^1 4^1 8^2")
        assert g.order == 8 and g.weight == 3 and g.fixed_points == 2

    def test_level_of_fixed_point_free_shape(self):
        assert FrameShape.parse("2^2 10^2").level == 20

    def test_bare_length_token(self):
        assert FrameShape.parse("1 2 7 14") == FrameShape.parse("1^1 2^1 7^1 14^1")

    def test_parse_error(self):
        with pytest.raises(ParseError):
            FrameShape.parse("1^2 x^3")

    @pytest.mark.parametrize("text,message", [
        ("0^24", "cycle lengths must be positive"),
        ("1^26 2^-1", "permutation shapes need non-negative multiplicities"),
        ("", "empty frame shape"),
    ])
    def test_rejected_shapes(self, text, message):
        with pytest.raises(ParseError, match=message):
            FrameShape.parse(text)

    def test_sum_not_24(self):
        with pytest.raises(SumNot24):
            FrameShape.parse("1^23")

    def test_quotient_shapes_allowed_when_unconstrained(self):
        counts = {2: 4, 6: 4, 1: -1, 3: -1, 4: -1, 12: -1}
        assert EtaQuotient.from_counts(counts).counts[0] == (1, -1)
        with pytest.raises(ParseError, match="non-negative multiplicities"):
            FrameShape.from_counts(counts)


class TestPrintedTables:
    def test_counts(self):
        assert len(M23_SHAPES) == 12
        assert len(M24_EXTRA_SHAPES) == 9
        assert len(S24_EXTRA_SHAPES) == 7
        assert len(M24_SHAPES) == 21

    def test_m23_levels_and_weights(self):
        printed = [(1, 12), (2, 8), (3, 6), (4, 5), (5, 4), (6, 4), (7, 3),
                   (8, 3), (11, 2), (14, 2), (15, 2), (23, 1)]
        assert [(g.level, int(g.weight)) for g in M23_SHAPES] == printed

    def test_m24_extra_rows(self):
        printed = [(2, 4, 6), (3, 9, 4), (4, 8, 4), (4, 16, 3), (6, 36, 2),
                   (10, 20, 2), (12, 24, 2), (12, 144, 1), (21, 63, 1)]
        assert [(g.order, g.level, int(g.weight)) for g in M24_EXTRA_SHAPES] == printed

    def test_s24_extra_rows(self):
        printed = [(9, 27, 2), (8, 32, 2), (6, 12, 3), (22, 44, 1),
                   (20, 80, 1), (18, 108, 1), (16, 128, 1)]
        assert [(g.order, g.level, int(g.weight)) for g in S24_EXTRA_SHAPES] == printed

    def test_all_m24_weights_are_integers(self):
        assert all(g.weight.denominator == 1 for g in M24_SHAPES)

    def test_cycle_sums(self):
        for g in M24_SHAPES + S24_EXTRA_SHAPES:
            assert sum(i * a for i, a in g.counts) == 24


class TestArithmeticFunctions:
    def test_phi_psi(self):
        assert phi(1) == 1 and psi(1) == 1
        assert phi(12) == 4 and psi(12) == 24
        assert psi(9) == 12 and phi(9) == 6

    def test_phi_psi_multiplicative(self):
        from math import gcd

        pairs = [(m, n) for m in range(2, 30) for n in range(2, 30)
                 if gcd(m, n) == 1]
        assert all(phi(m * n) == phi(m) * phi(n) for m, n in pairs)
        assert all(psi(m * n) == psi(m) * psi(n) for m, n in pairs)

    def test_epsilon_is_24_over_psi(self):
        assert all(epsilon(n) == F(24, psi(n)) for n in range(1, 40))

    def test_epsilon_values(self):
        assert epsilon(1) == 24
        assert epsilon(6) == 2
        assert epsilon(10) == F(4, 3)
        assert epsilon(23) == 1

    def test_iota_4_by_hand(self):
        # (24 + 8 + 2*4) / 4
        assert iota(4) == 10

    def test_iota_23(self):
        assert iota(23) == 2

    def test_iota_matches_printed_on_m23_orders(self):
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 15):
            assert iota(n) == PRINTED_IOTA[n], n

    def test_iota_known_discrepancies(self):
        # the divided form is not an integer at 9 and 10, so iota counts the
        # cycles of the tabled shapes 3^2 9^2 and 2^2 10^2 instead; that
        # matches the printed 9 but not the printed (starred) 10
        assert iota_divided(9) == F(16, 3) and iota(9) == PRINTED_IOTA[9] == 4
        assert iota_divided(10) == F(16, 3) and iota(10) == 4
        assert PRINTED_IOTA[10] == 8 and 10 in STARRED_IOTA
        assert iota(12) == PRINTED_IOTA[12] == 5  # starred yet matching

    def test_iota_is_burnside_orbit_count(self):
        def fixed(g, k):  # points of g^k on cycles whose length divides k
            return sum(i * a for i, a in g.counts if k % i == 0)

        def burnside(g):
            return F(sum(fixed(g, k) for k in range(g.order)), g.order)

        shapes = M24_SHAPES + S24_EXTRA_SHAPES
        assert all(burnside(g) == g.cycles for g in shapes)
        for g in M23_SHAPES:
            assert iota(g.order) == iota_divided(g.order) == burnside(g), str(g)
        for n in (9, 10):
            (g,) = [g for g in shapes if g.order == n]
            assert iota_divided(n).denominator != 1
            assert iota(n) == burnside(g) == 4, str(g)

    def test_epsilon_integral_for_exactly_15_values(self):
        values = epsilon_integral_values(30)
        assert values == [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 14, 15, 16, 23]
        assert len(values) == 15

    def test_rational_type_predicate(self):
        assert rational_type(6) is True   # epsilon = 2
        assert rational_type(14) is False  # epsilon = 1
        assert rational_type(1) is True


class TestFrobeniusMukai:
    def test_all_twelve_shapes(self):
        result = frobenius_mukai_check()
        assert result["ok"]
        assert len(result["entries"]) == 12
        for entry in result["entries"]:
            assert entry.fixed_points == epsilon(entry.order)

    def test_order_six_row(self):
        g = FrameShape.parse("1^2 2^2 3^2 6^2")
        assert g.fixed_points == epsilon(6) == 2
        assert sum(a for _, a in g.counts) == iota(6) == 8

    def test_order_23_row(self):
        g = FrameShape.parse("1^1 23^1")
        assert g.fixed_points == epsilon(23) == 1

    def test_non_m23_orders_flagged_not_failed(self):
        result = frobenius_mukai_check()
        flagged = {e["order"] for e in result["exceptions"]}
        assert flagged == {10, 12}
        assert all(e["flagged"] for e in result["exceptions"])
        shape = next(e for e in result["exceptions"] if e["shape"] == "2^2 10^2")
        assert shape["cycles"] == 4 and shape["iota_printed"] == 8


class TestMasonEta:
    def test_identity_shape_gives_discriminant(self):
        # the naive product of (1 - q^n)^24, not the pentagonal series that
        # eta_product and eta both read
        delta = mason_eta(FrameShape.parse("1^24"), 30)
        assert delta.offset == 1
        assert delta.body == TruncatedSeries(product_oracle(30, power=24), 30)

    def test_1_8_2_8_prefix(self):
        f = mason_eta(FrameShape.parse("1^8 2^8"), 6)
        assert f.offset == 1
        assert int(f.body.coeffs[1]) == -8

    def test_offset_one_for_all_shapes(self):
        for g in M24_SHAPES + S24_EXTRA_SHAPES:
            assert mason_eta(g, 2).offset == 1, str(g)

    def test_mason_bodies_pinned_to_210(self):
        got = {str(g): mason_eta(g, 210) for g in M24_SHAPES + S24_EXTRA_SHAPES}
        assert len(got) == 28
        assert canonical_sha256(got) == MASON_DIGEST_210


class TestHeckeChecks:
    def test_ramanujan_tau_multiplicativity(self):
        rep = hecke_eigenform_check(FrameShape.parse("1^24"), 60)
        assert rep.ok
        f = mason_eta(FrameShape.parse("1^24"), 10)
        a2, a3, a6 = (f.body.coeffs[i] for i in (1, 2, 5))
        assert (a2, a3, a6) == (-24, 252, -6048)
        assert a2 * a3 == a6

    def test_level2_weight8_to_200(self):
        rep = hecke_eigenform_check(FrameShape.parse("1^8 2^8"), 200)
        assert rep.ok and rep.weight == 8 and rep.level == 2
        assert rep.recursion_checks > 0

    def test_odd_weight_skips_recursion(self):
        rep = hecke_eigenform_check(FrameShape.parse("1^4 2^2 4^4"), 100)
        assert rep.ok
        assert rep.recursion_checks == 0
        assert rep.character_note == "character route not checked (odd weight)"

    @pytest.mark.parametrize("shape", ["24^1", "8^3"])
    def test_half_integral_weight_skips_recursion(self, shape):
        rep = hecke_eigenform_check(FrameShape.parse(shape), 100)
        assert rep.ok and rep.weight.denominator == 2
        assert rep.recursion_checks == 0
        assert rep.character_note == "character route not checked (half-integral weight)"

    def test_expansion_off_the_cusp_is_refused(self, monkeypatch):
        monkeypatch.setattr(mathieu, "mason_eta",
                            lambda g, bound: QExpansion(0, TruncatedSeries.one(bound)))
        with pytest.raises(SumNot24):
            hecke_eigenform_check(FrameShape.parse("1^24"), 10)

    @pytest.mark.parametrize("bound", [1, 2, 5])
    def test_bound_below_the_first_coprime_pair_is_refused(self, bound):
        with pytest.raises(BoundTooSmall):
            hecke_eigenform_check(FrameShape.parse("1^24"), bound)

    def test_bound_6_checks_the_pair_2_3(self, monkeypatch):
        rep = hecke_eigenform_check(FrameShape.parse("1^24"), 6)
        assert rep.ok and rep.multiplicative_pairs == 1
        # a(2)·a(3) = a(6) is the one product compared
        body = list(discriminant(6).body.coeffs)
        body[5] += 1
        monkeypatch.setattr(mathieu, "mason_eta",
                            lambda g, order: QExpansion(1, TruncatedSeries(body, 5)))
        rep = hecke_eigenform_check(FrameShape.parse("1^24"), 6)
        assert rep.violations == ("a(2)a(3) != a(6)",)

    def test_report_json(self, monkeypatch):
        g = FrameShape.parse("1^4 2^2 4^4")
        assert hecke_eigenform_check(g, 100).to_json() == {
            "shape": "1^4 2^2 4^4", "weight": "5", "level": 4, "bound": 100,
            "multiplicative_pairs": 80, "recursion_checks": 0,
            "character_note": "character route not checked (odd weight)",
            "status": "PASS", "violations": [],
        }
        body = list(discriminant(6).body.coeffs)
        body[5] += 1
        monkeypatch.setattr(mathieu, "mason_eta",
                            lambda g, order: QExpansion(1, TruncatedSeries(body, 5)))
        data = hecke_eigenform_check(FrameShape.parse("1^24"), 6).to_json()
        assert data["status"] == "FAIL"
        assert data["violations"] == ["a(2)a(3) != a(6)"]

    @pytest.mark.parametrize("g", M24_SHAPES + S24_EXTRA_SHAPES,
                             ids=lambda g: str(g).replace(" ", ","))
    def test_all_shapes_pass_at_150(self, g):
        rep = hecke_eigenform_check(g, 150)
        assert rep.ok, rep.violations

    @pytest.mark.parametrize("variant", ["tau", "tau/n", "tau/n^11", "tau, a(59)=1/2"])
    def test_integer_comparisons_match_fractions(self, monkeypatch, variant):
        # tau(n)/n^k stays multiplicative, but the weight-12 recursion holds
        # only for k = 0; a(59) enters no comparison below 60, so halving it
        # only brings a denominator in.  The verdicts must be the Fraction ones.
        g = FrameShape.parse("1^24")
        body = list(discriminant(60).body.coeffs)
        if variant == "tau, a(59)=1/2":
            body[58] = F(1, 2)
        elif variant != "tau":
            k = 1 if variant == "tau/n" else 11
            body = [c / (n + 1) ** k for n, c in enumerate(body)]
        monkeypatch.setattr(mathieu, "mason_eta",
                            lambda g, order: QExpansion(1, TruncatedSeries(body, 60)))
        rep = hecke_eigenform_check(g, 60)
        expected = fraction_hecke_violations([None, *body], g, 60)
        assert list(rep.violations) == expected
        assert rep.ok == (variant in ("tau", "tau, a(59)=1/2"))
        assert rep.multiplicative_pairs > 0 and rep.recursion_checks > 0

    def test_primes_up_to_the_root_of_the_bound_run_the_recorded_checks(self):
        rows = []
        for g, bound in HECKE_CONFIGS:
            rep = hecke_eigenform_check(g, bound)
            rows.append([rep.shape, rep.bound, rep.multiplicative_pairs,
                         rep.recursion_checks, list(rep.violations),
                         rep.character_note, rep.ok])
        assert len(rows) == 90
        assert sum(row[3] for row in rows) == 425
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == HECKE_DIGEST


class TestCorrespondence:
    def test_sixteen_rows(self):
        report = correspondence_report()
        assert len(report) == 16
        assert len(CORRESPONDENCE_ROWS) == 16

    def test_n15_row(self):
        row = next(r for r in correspondence_report() if r["N"] == 15)
        assert row["s"] == "free" and row["c"] == "s+1"
        assert row["class"] == "15A" and row["rho"] == 3
        assert row["family"] == "Y30" and row["rational_type"] is False

    def test_rationality_column(self):
        rows = correspondence_report()
        rational = {r["N"] for r in rows if r["rational_type"]}
        assert rational == {1, 2, 3, 4, 5, 6, 7, 8, 9, 11}

    def test_in_scope_rows_carry_family_data(self):
        rows = [r for r in correspondence_report() if r["in_scope"]]
        assert {r["family"] for r in rows} == {
            "X6", "Y12_2", "Y12_3", "Y20", "Y24", "Y28", "Y30"
        }
        y24 = next(r for r in rows if r["family"] == "Y24")
        assert y24["eta"] == "12+" and y24["exponent"] == "1/2"

    def test_starred_rows_surface_both_values(self):
        rows = correspondence_report()
        n10 = next(r for r in rows if r["N"] == 10)
        assert n10["iota_starred"] and not n10["iota_matches"]
        assert n10["iota"] == "4" and n10["iota_printed"] == 8
        n12 = next(r for r in rows if r["N"] == 12)
        assert n12["iota_starred"] and n12["iota_matches"]

    def test_frame_shapes_attached_by_order(self):
        row = next(r for r in correspondence_report() if r["N"] == 14)
        assert row["frame_shapes"] == ["1^1 2^1 7^1 14^1"]
