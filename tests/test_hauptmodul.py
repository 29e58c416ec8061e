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
    hauptmodul_json,
    inverse_hauptmodul,
    mirror_map,
    renormalize_constant,
    solve_hauptmodul_from_identity,
    _eta_route,
    _identity_route,
)
from gfano.periods import FAMILIES
from gfano.qexp import ETA_PRODUCTS, QExpansion, eta_product, klein_j
from gfano.series import TruncatedSeries

PRINTED_TAILS = {
    # constant, then the printed q^1..q^4 coefficients
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
}


#: Families whose Hauptmodul the identity solver can reach: those with a D3 operator.
D3_FAMILIES = [key for key, fam in FAMILIES.items() if fam.d3_operator]


def solve_for(key, s, c, order):
    """Solve family key's identity for its Hauptmodul at an explicit (s, c)."""
    fam = FAMILIES[key]
    f = d3.holomorphic_solution(d3.OPERATORS[fam.d3_operator], order)
    eta = eta_product(ETA_PRODUCTS[fam.eta], order)
    return solve_hauptmodul_from_identity(f, s, c, eta, eta.offset, order)


def route_id(key):
    """label-operator-s-c of the route check for family key."""
    fam = FAMILIES[key]
    s = fam.default_shift()
    return f"{fam.hauptmodul}-{fam.d3_operator}-{s}-{fam.default_constant(s)}"


def route_agreement(key, order):
    """The eta-quotient Hauptmodul and the one solved from family key's
    identity at its default (s, c): same offset, order and coefficients."""
    fam = FAMILIES[key]
    quotient = hauptmodul(fam.hauptmodul, fam.default_constant(), order)
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

    def test_json_carries_label(self):
        data = hauptmodul_json("12A", order=4)
        assert data["label"] == "12A"
        assert data["offset"] == "-24/24"
        assert data["coeffs"][:3] == ["1", "6", "15"]


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
        f = d3.holomorphic_solution(d3.OPERATORS["L6,2"], 8)
        eta = eta_product(ETA_PRODUCTS["6+"], 8)
        with pytest.raises(Exception):
            solve_hauptmodul_from_identity(f, 4, 10, eta, 0, 8)

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


@pytest.mark.parametrize("route", [_eta_route, _identity_route, periods._iseries])
def test_route_caches_are_bounded(route):
    assert route.cache_info().maxsize is not None
