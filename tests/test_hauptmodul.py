"""Hauptmoduln: printed expansions, the functional-equation solver, mirror maps."""

from fractions import Fraction as F

import pytest
from test_periods import canonical_sha256

from gfano import d3, periods
from gfano.hauptmodul import (
    LABELS,
    InconsistentIdentity,
    NoD3Operator,
    UnknownLabel,
    WrongOffset,
    hauptmodul,
    inverse_hauptmodul,
    mirror_map,
    renormalize_constant,
    solve_hauptmodul_from_identity,
    _QUOTIENTS,
    _eta_route,
    _identity_route,
)
from gfano.periods import FAMILIES, iseries
from gfano.qexp import ETA_PRODUCTS, EtaQuotient, QExpansion, eta_product, klein_j
from gfano.series import NonUnitConstant, SeriesError, TruncatedSeries

PRINTED_TAILS = {
    # constant, then the printed q^1..q^4 coefficients
    "1A": (744, [196884, 21493760, 864299970, 20245856256]),
    "6A": (10, [79, 352, 1431, 4160]),
    "10A": (4, [22, 56, 177, 352]),
    "12A": (6, [15, 32, 87, 192]),
    "14A": (1, [11, 20, 57, 92]),
    "15A": (1, [8, 22, 42, 70]),
}

T6A_TAIL = [79, 352, 1431, 4160, 13015, 31968]

# Recorded before eta_product and reverse moved onto integers; they pin the
# six closed-form Hauptmoduln and their mirror maps bit for bit.
PINNED_DIGESTS = {
    "hauptmodul_200": "920f89bcaa70ea2cfd3eb3881c43370ec7f67df5f73e968bd1893ba4b98647c8",
    "mirror_map_60": "46540438df6e117afff604cafd201f2c71d4b4fc8ad7d8a4d7ee1161604336c5",
    # recorded from the one-power-per-coefficient Lagrange loop, before
    # reverse took baby and giant steps: mirror_map(hauptmodul(label,
    # order=60)) untruncated, so through t^61
    "mirror_map_61": "78364d8ab21ae9b052930aa6baa626adad4b06eb3fc42ac3601edcad4f1b18d7",
}


#: Families whose Hauptmodul the identity solver can reach: those with a D3 operator.
D3_FAMILIES = [key for key, fam in FAMILIES.items() if fam.d3_operator]


def solve_for(key, s, c, order):
    """Solve family key's identity for its Hauptmodul at an explicit (s, c)."""
    fam = FAMILIES[key]
    f = d3.holomorphic_solution(d3.OPERATORS[fam.d3_operator], order)
    eta = eta_product(ETA_PRODUCTS[fam.eta], order)
    return solve_hauptmodul_from_identity(f, s, c, eta)


def route_id(key):
    """label-operator-s-c of the route check for family key."""
    fam = FAMILIES[key]
    s = fam.default_shift(iseries(key, 1))
    return f"{fam.hauptmodul}-{fam.d3_operator}-{s}-{s + fam.c_minus_s}"


def route_agreement(key, order):
    """The eta-quotient Hauptmodul and the one solved from family key's
    identity at its default (s, c): same offset, order and coefficients."""
    fam = FAMILIES[key]
    s = fam.default_shift(iseries(key, order))
    quotient = hauptmodul(fam.hauptmodul, s + fam.c_minus_s, order)
    solved = _identity_route(key, order)
    return (quotient.offset == solved.offset
            and quotient.order == solved.order == order
            and quotient.body.coeffs == solved.body.coeffs)


class TestEtaQuotientRoutes:
    @pytest.mark.parametrize("label", sorted(PRINTED_TAILS))
    def test_printed_expansions(self, label):
        c, tail = PRINTED_TAILS[label]
        h = hauptmodul(label, order=8)
        assert h.offset == -1
        assert h.body.coeffs[0] == 1
        assert int(h.body.coeffs[1]) == c
        assert [int(x) for x in h.body.coeffs[2:6]] == tail

    def test_1a_is_klein_j(self):
        h = hauptmodul("1A", order=5)
        assert h.body == klein_j(5).body

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            hauptmodul("7B", order=5)

    def test_row_off_the_minus_one_frame_is_wrong_offset(self, monkeypatch):
        # the body sum is framed at q^-1; 1^24 sits at q^1
        _eta_route.cache_clear()
        monkeypatch.setitem(_QUOTIENTS, "6A", (EtaQuotient.parse("1^24"), 16, 64))
        try:
            with pytest.raises(WrongOffset, match="6A quotient 1\\^24 has offset 1"):
                _eta_route("6A", 5)
        finally:
            _eta_route.cache_clear()

    def test_labels_keep_their_order(self):
        # the table's row order; seeded benchmark samples are drawn in it
        assert LABELS == ("1A", "6A", "10A", "12A", "14A", "15A")


class Test6ASolver:
    def test_printed_mckay_thompson_tail(self):
        h = hauptmodul("6A", c=0, order=7)
        assert [int(x) for x in h.body.coeffs[1:]] == [0] + T6A_TAIL

    def test_y12_2_and_y12_3_data_give_the_same_function(self):
        h1 = solve_for("Y12_2", 4, 10, 10)
        h2 = solve_for("Y12_3", 6, 14, 10)
        assert h1.body.coeffs[2:] == h2.body.coeffs[2:]
        assert int(h1.body.coeffs[1]) == 10 and int(h2.body.coeffs[1]) == 14

    def test_inconsistent_pair_rejected_at_order_one(self):
        with pytest.raises(InconsistentIdentity) as exc:
            solve_for("Y12_2", 5, 10, 8)
        assert exc.value.order == 1

    def test_pivot_guard(self):
        # an eta with σ₁ = 0 gives e = 0, where the 1/e-th power has no pivot
        f = d3.holomorphic_solution(d3.OPERATORS["L6,2"], 8)
        eta = eta_product(ETA_PRODUCTS["6+"], 8)
        with pytest.raises(InconsistentIdentity) as exc:
            solve_hauptmodul_from_identity(f, 4, 10, QExpansion(0, eta.body))
        assert exc.value.order == 1

    def test_linear_term_rejected(self):
        f = d3.holomorphic_solution(d3.OPERATORS["L6,2"], 8)
        shifted = TruncatedSeries([1, 1, *f.coeffs[2:]], 8)
        eta = eta_product(ETA_PRODUCTS["6+"], 8)
        with pytest.raises(SeriesError, match="zero linear term"):
            solve_hauptmodul_from_identity(shifted, 4, 10, eta)

    def test_order_is_the_shorter_input(self):
        f = d3.holomorphic_solution(d3.OPERATORS["L6,2"], 12)
        eta = eta_product(ETA_PRODUCTS["6+"], 12)
        h = solve_hauptmodul_from_identity(f, 4, 10, eta.truncate(8))
        assert h.order == 8
        assert h == solve_hauptmodul_from_identity(f.truncate(8), 4, 10, eta.truncate(8))
        assert h == solve_for("Y12_2", 4, 10, 8)

    def test_non_unit_constant_rejected(self):
        # L6,2's solution with constant term 2 balances at q^1 (I_1 = 2s = 8
        # = E_1 + c/2), but I(1/H) would start with 2 where eta's body has 1
        f = d3.holomorphic_solution(d3.OPERATORS["L6,2"], 8)
        doubled = TruncatedSeries([2, *f.coeffs[1:]], 8)
        eta = eta_product(ETA_PRODUCTS["6+"], 8)
        with pytest.raises(NonUnitConstant):
            solve_hauptmodul_from_identity(doubled, 4, 18, eta)

    def test_deterministic(self):
        a = solve_for("Y12_2", 4, 10, 12)
        b = solve_for("Y12_2", 4, 10, 12)
        assert a.body == b.body and a.offset == b.offset


class TestRouteAgreement:
    @pytest.mark.parametrize("key", D3_FAMILIES, ids=route_id)
    def test_quotient_vs_identity_solution(self, key):
        assert route_agreement(key, 60)

    @pytest.mark.parametrize("key", sorted(set(FAMILIES) - set(D3_FAMILIES)))
    def test_identity_route_names_family_without_operator(self, key):
        assert FAMILIES[key].d3_operator is None
        with pytest.raises(NoD3Operator, match=key):
            _identity_route(key, 5)

    def test_15a_with_shifted_data(self):
        # any s with c = s+1 solves to the same tail
        h = solve_for("Y30", 1, 2, 8)
        assert [int(x) for x in h.body.coeffs[1:6]] == [2, 8, 22, 42, 70]

    def test_14a_tail_independent_of_shift(self):
        tails = {
            s: solve_for("Y28", s, s + 1, 10).body.coeffs[2:]
            for s in (0, 1, 3)
        }
        assert tails[0] == tails[1] == tails[3]


class TestRenormalize:
    def test_changes_exactly_one_coefficient(self):
        h = hauptmodul("6A", c=10, order=7)
        t = renormalize_constant(h, 0)
        assert int(t.body.coeffs[1]) == 0
        assert t.body.coeffs[2:] == h.body.coeffs[2:]
        assert int(t.body.coeffs[2]) == 79

    def test_last_write_wins(self):
        h = hauptmodul("12A", order=6)
        assert renormalize_constant(renormalize_constant(h, 3), 9).body.coeffs[1] == 9

    def test_j_unchanged_at_744(self):
        j = klein_j(6)
        assert renormalize_constant(j, 744).body == j.body

    def test_wrong_offset(self):
        with pytest.raises(WrongOffset):
            renormalize_constant(QExpansion(0, TruncatedSeries([1, 2], 1)), 5)

    def test_h_unknown_at_q0_is_refused(self):
        with pytest.raises(SeriesError, match=r"through q\^0"):
            renormalize_constant(QExpansion(-1, TruncatedSeries([1], 0)), 5)


class TestInverseAndMirror:
    def test_inverse_of_bare_pole(self):
        h = QExpansion(-1, TruncatedSeries([1, 0, 0, 0, 0], 4))
        assert inverse_hauptmodul(h) == TruncatedSeries([0, 1, 0, 0, 0, 0], 5)

    def test_inverse_of_j(self):
        u = inverse_hauptmodul(klein_j(5))
        assert u.coeffs[1] == 1 and u.coeffs[2] == -744

    def test_inverse_of_15a(self):
        u = inverse_hauptmodul(hauptmodul("15A", order=6))
        assert u.coeffs[1] == 1 and u.coeffs[2] == -1

    def test_mirror_map_of_bare_pole(self):
        h = QExpansion(-1, TruncatedSeries([1, 0, 0, 0, 0], 4))
        assert mirror_map(h) == TruncatedSeries([0, 1, 0, 0, 0, 0], 5)

    def test_mirror_map_inverts_inverse_hauptmodul(self):
        h = hauptmodul("12A", order=20)
        u = inverse_hauptmodul(h).truncate(20)
        assert u.compose(mirror_map(h, 20)) == TruncatedSeries.identity(20)

    def test_mirror_map_refuses_orders_beyond_h(self):
        # H through q^K gives q(t) through t^(K+1) and no further
        h = hauptmodul("6A", order=10)
        assert mirror_map(h, 11) == mirror_map(h)
        assert mirror_map(h, 11).order == 11
        with pytest.raises(SeriesError, match=r"order 12 needs H through q\^11, got q\^10"):
            mirror_map(h, 12)
        with pytest.raises(SeriesError, match=r"order 30 .* got q\^10"):
            mirror_map(h, 30)

    @pytest.mark.parametrize("label", ["1A", "6A", "10A", "12A", "14A", "15A"])
    def test_integrality_to_30(self, label):
        q_of_t = mirror_map(hauptmodul(label, order=31), 30)
        assert all(c.denominator == 1 for c in q_of_t.coeffs)

    def test_wrong_offset(self):
        with pytest.raises(WrongOffset):
            inverse_hauptmodul(klein_j(5) * klein_j(5))


class TestPinnedOutputs:
    def test_hauptmoduln_to_200(self):
        got = {label: hauptmodul(label, order=200) for label in LABELS}
        assert canonical_sha256(got) == PINNED_DIGESTS["hauptmodul_200"]

    def test_mirror_maps_to_60(self):
        got = {label: mirror_map(hauptmodul(label, order=60), 60) for label in LABELS}
        assert canonical_sha256(got) == PINNED_DIGESTS["mirror_map_60"]

    def test_untruncated_mirror_maps(self):
        got = {label: mirror_map(hauptmodul(label, order=60)) for label in LABELS}
        assert {q.order for q in got.values()} == {61}
        assert canonical_sha256(got) == PINNED_DIGESTS["mirror_map_61"]


@pytest.mark.parametrize("route", [_eta_route, _identity_route, periods._iseries])
def test_route_caches_are_bounded(route):
    assert route.cache_info().maxsize is not None
