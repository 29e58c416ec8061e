"""End-to-end identity verification: table rows, sweeps, mutations, E4/Delta."""

import importlib
from fractions import Fraction as F

import pytest

from gfano import d3, periods, qexp, verify
from gfano.hauptmodul import inverse_hauptmodul, mirror_map
from gfano.periods import EVEN_REDUCTION, family, iseries
from gfano.qexp import ETA_PRODUCTS, QExpansion, discriminant
from gfano.series import (
    NonUnitConstant,
    SeriesError,
    TruncatedSeries,
    normalize,
    regular_shift,
)
from gfano.verify import (
    BATTERY_KEYS,
    IdentityReport,
    NotFreeShift,
    PeriodMismatch,
    sweep_free_shift,
    verify_all,
    verify_delta,
    verify_identity,
    verify_kachru_vafa,
)

TABLE_CONFIGS = [
    ("Y30", 3, 4),
    ("Y24", 4, 6),
    ("Y20", 2, 4),
    ("Y12_2", 4, 10),
    ("Y12_3", 6, 14),
    ("X6", 120, 744),
]


def modular_side(key, s, c, order):
    """(s, c) defaulted from the family row, H_c and eta·H_c^e as a unit
    power series, built directly from verify's eta-product and Hauptmodul
    rather than from the operator route's R."""
    fam = family(key)
    s = fam.default_shift(iseries(key, order)) if s is None else F(s)
    c = s + fam.c_minus_s if c is None else F(c)
    h = verify.hauptmodul(fam.hauptmodul, c, order)
    eta = verify.eta_product(ETA_PRODUCTS[fam.eta], order)
    h_pow = h.pow_rational(fam.exponent)
    assert eta.offset + h_pow.offset == 0
    return s, c, h, eta.body * h_pow.body


def compose_route(key, s=None, c=None, order=60):
    """The identity checked by composition, the oracle of the operator
    route: I_s composed with 1/H_c, against eta·H_c^e, coefficient by
    coefficient."""
    fam = family(key)
    if key in EVEN_REDUCTION:
        base = compose_route(EVEN_REDUCTION[key], s, c, order)
        return IdentityReport(f"{key} via {EVEN_REDUCTION[key]}: {base.name}", key,
                              base.s, base.c, base.order, base.first_mismatch)
    base = iseries(key, order)
    s, c, h, rhs = modular_side(key, s, c, order)
    lhs = regular_shift(base, s - base.coeffs[1]).compose(inverse_hauptmodul(h).truncate(order))
    name = f"I_{{{key},s={s}}}(1/H_{{{fam.hauptmodul},c={c}}}) = eta_{{{fam.eta}}} * H^{fam.exponent}"
    bad = next((n for n in range(order + 1) if lhs.coeffs[n] != rhs.coeffs[n]), None)
    mismatch = None if bad is None else (bad, lhs.coeffs[bad], rhs.coeffs[bad])
    return IdentityReport(name, key, s, c, order, mismatch)


def m_series(key, s=None, c=None, order=60):
    """The power series M with M(1/H) = eta·H^e, built from the modular
    side alone: eta·H_c^e composed with the mirror map q(t), the inverse
    of t = 1/H_c.  It never touches the hypergeometric generators."""
    if key in EVEN_REDUCTION:
        raise ValueError("index-2 families reduce to their index-1 partners")
    _, _, h, rhs = modular_side(key, s, c, order)
    return rhs.compose(mirror_map(h, order))


def tamper_rhs(monkeypatch, n):
    """Make the right-hand side eta·H^e wrong by 1/3 at q^n: bump the
    eta-product body that verify and the composition oracle both read."""
    monkeypatch.setattr(verify, "eta_product", bumped_body(verify.eta_product, n, F(1, 3)))


class TestOperatorRoute:
    """verify_identity checks a row through its D3 operator; its reports
    must equal the composition route's field for field."""

    @pytest.mark.parametrize("order", [30, 60])
    @pytest.mark.parametrize("key", BATTERY_KEYS + ["X6"])
    def test_battery_rows_match_compose_route(self, key, order):
        report = verify_identity(key, order=order)
        assert report.ok
        assert report == compose_route(key, order=order)

    @pytest.mark.parametrize("key,s,c", [
        ("Y24", None, 7), ("Y24", 3, None), ("Y20", 1, 3), ("Y12_3", None, 13),
        ("Y30", 5, 7), ("Y28", 2, 2), ("X6", None, 745), ("X6", 121, None),
        ("X6", 119, 743),
    ])
    def test_failing_rows_match_compose_route(self, key, s, c):
        report = verify_identity(key, s, c, 60)
        assert not report.ok
        assert report == compose_route(key, s, c, 60)

    @pytest.mark.parametrize("key", ["Y24", "Y20", "Y12_2", "Y30", "X6"])
    @pytest.mark.parametrize("n", [7, 30])
    def test_tampered_rhs_matches_compose_route(self, monkeypatch, key, n):
        # q^30 = q^K: the residual must reach the last coefficient
        tamper_rhs(monkeypatch, n)
        report = verify_identity(key, order=30)
        assert not report.ok and report.first_mismatch[0] == n
        assert report == compose_route(key, order=30)

    def test_no_composition_on_the_identity_path(self, monkeypatch):
        def refuse(self, inner):
            raise AssertionError("compose called")

        monkeypatch.setattr(TruncatedSeries, "compose", refuse)
        assert all(verify_identity(key, order=30).ok for key in BATTERY_KEYS + ["X6"])

    def test_period_not_solving_the_operator_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "iseries", bumped_coeff(verify.iseries, 5))
        with pytest.raises(PeriodMismatch) as info:
            verify_identity("Y24", order=20)
        assert isinstance(info.value, SeriesError)

    def test_non_unit_rhs_raises(self, monkeypatch):
        real = verify.eta_product
        monkeypatch.setattr(verify, "eta_product", lambda g, order: QExpansion(
            real(g, order).offset, real(g, order).body * 2))
        with pytest.raises(NonUnitConstant):
            verify_identity("Y24", order=10)

    def test_offsets_that_do_not_cancel_raise(self, monkeypatch):
        real = verify.eta_product
        monkeypatch.setattr(verify, "eta_product", lambda g, order: QExpansion(
            real(g, order).offset + 1, real(g, order).body))
        with pytest.raises(qexp.OffsetError, match="must cancel"):
            verify_identity("Y24", order=10)

    def test_short_residual_raises(self, monkeypatch):
        real = d3.apply_operator_in
        monkeypatch.setattr(d3, "apply_operator_in",
                            lambda op, f, t: real(op, f, t).truncate(f.order - 1))
        with pytest.raises(SeriesError):
            verify_identity("Y20", order=20)


class TestTableRows:
    @pytest.mark.parametrize("key,s,c", TABLE_CONFIGS)
    def test_pass_at_order_40(self, key, s, c):
        report = verify_identity(key, s, c, 40)
        assert report.ok, report
        assert report.s == s and report.c == c

    def test_defaults_come_from_the_table(self):
        report = verify_identity("Y24", order=20)
        assert report.ok and report.s == 4 and report.c == 6

    @pytest.mark.parametrize("key", ["Y48_2", "Y48_3"])
    def test_index2_reductions(self, key):
        report = verify_identity(key, order=40)
        assert report.ok
        assert "via" in report.name

    @pytest.mark.parametrize("c,ok", [(14, True), (15, False)])
    def test_index2_row_is_its_partner_at_the_callers_s_and_c(self, c, ok):
        base = verify_identity("Y12_3", 6, c, 30)
        report = verify_identity("Y48_3", 6, c, 30)
        assert report == base._replace(name=f"Y48_3 via Y12_3: {base.name}",
                                       family="Y48_3")
        assert report.ok is ok
        if not ok:
            assert report.first_mismatch[0] == 1


def bumped_body(real, n, by=1):
    """`real` with `by` added to body coefficient n of the q-expansion it returns."""

    def tampered(*args):
        q = real(*args)
        cs = list(q.body.coeffs)
        cs[n] += by
        return QExpansion(q.offset, TruncatedSeries(cs, q.order))

    return tampered


#: The seven index-1 families; the index-2 rows are their partners' reports.
INDEX1_KEYS = ["X6", "Y12_2", "Y12_3", "Y20", "Y24", "Y28", "Y30"]
SWEEP_ORDER = 30


class TestMutations:
    @pytest.mark.parametrize("key,s,c", TABLE_CONFIGS)
    @pytest.mark.parametrize("ds,dc", [(1, 0), (-1, 0), (0, 1), (0, -1)])
    def test_single_step_mutations_fail(self, key, s, c, ds, dc):
        report = verify_identity(key, s + ds, c + dc, SWEEP_ORDER)
        assert not report.ok
        n, lhs, rhs = report.first_mismatch
        assert n == 1 and lhs != rhs

    def test_mismatch_is_reported_exactly(self):
        report = verify_identity("Y24", 4, 7, 10)
        assert report.first_mismatch == (1, F(4), F(9, 2))

    @pytest.mark.parametrize("bump_index", [2, 5])
    def test_perturbed_iseries_fails(self, bump_index):
        # replay the verification pipeline with one I-series coefficient
        # bumped by 1: the comparison must break
        from gfano.hauptmodul import hauptmodul, inverse_hauptmodul
        from gfano.qexp import ETA_PRODUCTS, eta_product
        from gfano.periods import family, iseries
        from gfano.series import TruncatedSeries

        order = 15
        fam = family("Y24")
        base = iseries("Y24", order)
        bumped = list(base.coeffs)
        bumped[bump_index] += 1
        i_series = TruncatedSeries(bumped, order)

        h = hauptmodul(fam.hauptmodul, fam.shift + fam.c_minus_s, order)
        lhs = i_series.compose(inverse_hauptmodul(h).truncate(order))
        eta = eta_product(ETA_PRODUCTS[fam.eta], order)
        rhs = eta.body * h.pow_rational(fam.exponent).body
        mismatches = [n for n in range(order + 1)
                      if lhs.coeffs[n] != rhs.coeffs[n]]
        assert mismatches and mismatches[0] >= bump_index


class TestMutationSweep:
    """Every coefficient the identity check claims is read: one bump by 1
    at body index n of the eta-product or of the Hauptmodul H_(c−s), the
    one the row builds for both T and R, makes the row fail at exactly
    q^n, for every n through the order, q^K included; an index-2 row does
    so under its own name.  A bump of the I-series at any n, or of one
    operator parameter b_i by ±1, raises PeriodMismatch.  A bump of E4 or
    Δ fails the E4 and Delta items where the shape of j predicts."""

    @pytest.mark.parametrize("part", ["eta_product", "hauptmodul"])
    @pytest.mark.parametrize("key", INDEX1_KEYS)
    def test_a_bump_at_n_fails_at_n(self, monkeypatch, key, part):
        real = getattr(verify, part)
        first = []
        for n in range(1, SWEEP_ORDER + 1):
            monkeypatch.setattr(verify, part, bumped_body(real, n))
            report = verify_identity(key, order=SWEEP_ORDER)
            first.append(None if report.ok else report.first_mismatch[0])
        assert first == list(range(1, SWEEP_ORDER + 1))

    @pytest.mark.parametrize("part", ["eta_product", "hauptmodul"])
    @pytest.mark.parametrize("key", sorted(EVEN_REDUCTION))
    def test_an_index2_row_fails_at_n_under_its_own_name(self, monkeypatch, key, part):
        real = getattr(verify, part)
        first = []
        for n in range(1, SWEEP_ORDER + 1):
            monkeypatch.setattr(verify, part, bumped_body(real, n))
            report = verify_identity(key, order=SWEEP_ORDER)
            assert report.family == key
            assert report.name.startswith(f"{key} via {EVEN_REDUCTION[key]}: ")
            first.append(None if report.ok else report.first_mismatch[0])
        assert first == list(range(1, SWEEP_ORDER + 1))

    @pytest.mark.parametrize("key", INDEX1_KEYS)
    def test_an_iseries_bump_raises(self, monkeypatch, key):
        real = verify.iseries
        survivors = []
        for n in range(SWEEP_ORDER + 1):
            monkeypatch.setattr(verify, "iseries", bumped_coeff(real, n))
            if not raises_period_mismatch(key):
                survivors.append(n)
        assert survivors == []

    # Y28's period is the L14 solution itself, cached by `periods._iseries`,
    # so a bumped L14 would change (or poison) both sides at once.
    @pytest.mark.parametrize("key", [k for k in INDEX1_KEYS if k != "Y28"])
    def test_an_operator_bump_raises(self, monkeypatch, key):
        name = family(key).d3_operator
        op = d3.OPERATORS[name]
        survivors = []
        for i in range(5):
            for step in (1, -1):
                b = list(op)
                b[i] += step
                monkeypatch.setitem(d3.OPERATORS, name, d3.D3Operator(*b))
                if not raises_period_mismatch(key):
                    survivors.append((f"b{i + 1}", step))
        assert survivors == []

    # A bump at body index n of verify's own E4 or Δ fails that item at
    # exactly q^n.  j = E4³/Δ, built in qexp, enters both items through
    # 1/j, which starts at q: a bump in j's E4 or Δ moves p(1/j)² from
    # q^(n+1) on, so n = K passes the E4 item, and 1/j·p(1/j)⁶ from q^n.
    # An L1 route for the two items must give the same map.
    @pytest.mark.parametrize("module,part,e4_shift,delta_shift", [
        pytest.param(verify, "eisenstein_e4", 0, None, id="verify.eisenstein_e4"),
        pytest.param(verify, "discriminant", None, 0, id="verify.discriminant"),
        pytest.param(qexp, "eisenstein_e4", 1, 0, id="qexp.eisenstein_e4"),
        pytest.param(qexp, "discriminant", 1, 0, id="qexp.discriminant"),
    ])
    def test_an_e4_or_delta_bump_fails_where_predicted(
        self, monkeypatch, module, part, e4_shift, delta_shift
    ):
        # importlib gives the module, which gfano's `hauptmodul` name shadows
        route = importlib.import_module("gfano.hauptmodul")._eta_route

        def clear():
            # no bumped j may stay cached
            route.cache_clear()
            verify._hypergeometric_in_inverse_j.cache_clear()

        def first_mismatch(report):
            return None if report.ok else report.first_mismatch[0]

        def predicted(n, shift):
            return None if shift is None or n + shift > SWEEP_ORDER else n + shift

        real = getattr(module, part)
        got, want = [], []
        for n in range(1, SWEEP_ORDER + 1):
            monkeypatch.setattr(module, part, bumped_body(real, n))
            clear()
            try:
                got.append((first_mismatch(verify_kachru_vafa(SWEEP_ORDER)),
                            first_mismatch(verify_delta(SWEEP_ORDER))))
            finally:
                clear()
            want.append((predicted(n, e4_shift), predicted(n, delta_shift)))
        assert got == want


def bumped_coeff(real, n):
    """`real` with 1 added to coefficient n of the series it returns."""

    def tampered(*args):
        a = real(*args)
        cs = list(a.coeffs)
        cs[n] += 1
        return TruncatedSeries(cs, a.order)

    return tampered


def raises_period_mismatch(key):
    try:
        verify_identity(key, order=SWEEP_ORDER)
    except PeriodMismatch:
        return True
    return False


class TestZeroShift:
    @staticmethod
    def count_hauptmoduln(monkeypatch, key):
        """The row's report, the c of each verify.hauptmodul call and the
        number of inverse Hauptmoduln built."""
        built, inverted = [], []
        real_h, real_inv = verify.hauptmodul, verify.inverse_hauptmodul

        def counted_h(label, c, order):
            built.append(c)
            return real_h(label, c, order)

        def counted_inv(h):
            inverted.append(h)
            return real_inv(h)

        monkeypatch.setattr(verify, "hauptmodul", counted_h)
        monkeypatch.setattr(verify, "inverse_hauptmodul", counted_inv)
        return verify_identity(key, order=30), built, len(inverted)

    def test_y28_builds_one_inverse_hauptmodul(self, monkeypatch):
        # R = E·B·(B + s·q)^(e−1) has no factor 1 + s·T to divide by, so
        # only T = 1/H_(c−s) is inverted
        report, built, inverted = self.count_hauptmoduln(monkeypatch, "Y28")
        assert report.ok and report.s == 0
        assert inverted == 1

    @pytest.mark.parametrize("key", INDEX1_KEYS)
    def test_every_row_builds_one_inverse_hauptmodul(self, monkeypatch, key):
        # one Hauptmodul, H_(c−s), gives both T and R: no H_c is built
        report, built, inverted = self.count_hauptmoduln(monkeypatch, key)
        assert report.ok
        assert built == [report.c - report.s]
        assert inverted == 1


class TestFreeMeansExponentOne:
    """T = q/B and R = E·B·(B + s·q)^(e−1), B the body of H_(c−s), move
    with s at fixed c − s only through (B + s·q)^(e−1), whose q¹
    coefficient moves by (e − 1)·δ when s does by δ.  So at e = 1 every s
    with the row's c − s gives one and the same check, and at e ≠ 1
    moving s and c together fails at q¹."""

    def test_free_rows_are_the_exponent_one_rows(self):
        free = [k for k, f in periods.FAMILIES.items() if f.shift is None]
        assert free == [k for k, f in periods.FAMILIES.items() if f.exponent == 1]
        assert free == ["Y28", "Y30"]

    @pytest.mark.parametrize("delta", [-2, -1, 1, 2])
    @pytest.mark.parametrize("key", INDEX1_KEYS)
    def test_moving_s_and_c_together(self, key, delta):
        row = verify_identity(key, order=20)
        report = verify_identity(key, row.s + delta, row.c + delta, 20)
        if family(key).exponent == 1:
            assert report.ok
        else:
            assert not report.ok and report.first_mismatch[0] == 1

    @pytest.mark.parametrize("key", ["Y28", "Y30"])
    def test_operator_inputs_do_not_depend_on_s(self, monkeypatch, key):
        real = d3.apply_operator_in
        seen = []

        def captured(op, f, t):
            seen.append((f, t))
            return real(op, f, t)

        monkeypatch.setattr(d3, "apply_operator_in", captured)
        assert all(verify_identity(key, s, s + 1, 20).ok for s in range(-3, 4))
        assert len(seen) == 7
        assert all(pair == seen[0] for pair in seen)


class TestFreeShiftSweeps:
    def test_y28_sweep(self):
        reports = sweep_free_shift("Y28", range(0, 4), 30)
        assert [r.ok for r in reports] == [True] * 4
        assert [int(r.c) for r in reports] == [1, 2, 3, 4]

    def test_y30_sweep(self):
        assert all(r.ok for r in sweep_free_shift("Y30", [1, 3, 6], 30))

    def test_breaking_the_invariant_difference(self):
        report = verify_identity("Y28", 1, 3, 20)  # c - s = 2, must fail
        assert not report.ok and report.first_mismatch[0] == 1

    def test_y30_shift_three_is_the_closed_form(self):
        # s = 3 is the linear coefficient of the closed hypergeometric form
        assert iseries("Y30", 1).coeffs[1] == 3
        assert verify_identity("Y30", 3, 4, 25).ok

    def test_sweep_rejects_pinned_shift_families(self, monkeypatch):
        with pytest.raises(NotFreeShift, match=r"Y24 has a pinned shift; sweep applies to Y28, Y30$"):
            sweep_free_shift("Y24", range(0, 2), 10)
        # the free-shift families named are the registry's rows with shift None
        monkeypatch.setitem(periods.FAMILIES, "Y22",
                            periods.FAMILIES["Y28"]._replace(key="Y22"))
        with pytest.raises(NotFreeShift, match=r"sweep applies to Y28, Y30, Y22$"):
            sweep_free_shift("Y24", range(0, 2), 10)


class TestExactInputs:
    """s and c are exact: ints, Fractions and "p/q" strings; a float is
    refused, not rounded to the nearest binary fraction."""

    def test_verify_identity(self):
        with pytest.raises(TypeError):
            verify_identity("Y24", 0.1)
        with pytest.raises(TypeError):
            verify_identity("Y24", 4, 6.0)
        for s, c in [(4, 6), (F(4), F(6)), ("8/2", "12/2")]:
            report = verify_identity("Y24", s, c, 10)
            assert report.ok and (report.s, report.c) == (4, 6)

    def test_sweep_free_shift(self):
        with pytest.raises(TypeError):
            sweep_free_shift("Y30", [0.5], 10)
        reports = sweep_free_shift("Y30", [1, F(3), "5/2"], 10)
        assert all(r.ok for r in reports)
        assert [r.s for r in reports] == [1, 3, F(5, 2)]


class TestMSeries:
    """The modular-side construction of the period series.

    m_series composes eta·H^e with the mirror map, so it never touches the
    hypergeometric generators; matching them (and the D3 solutions after
    normalization) is the two-sided content of the equivalence.
    """

    @pytest.mark.parametrize("key,s,c", [
        ("Y30", 3, 4), ("Y24", 4, 6), ("Y20", 2, 4), ("Y12_3", 6, 14),
    ])
    def test_matches_shifted_iseries(self, key, s, c):
        order = 30
        m = m_series(key, s, c, order)
        base = iseries(key, order)
        assert m == regular_shift(base, s - base.coeffs[1])

    @pytest.mark.parametrize("key", ["Y30", "Y24", "Y28", "X6"])
    def test_normalization_solves_d3(self, key):
        op = d3.OPERATORS[family(key).d3_operator]
        assert normalize(m_series(key, order=30)) == d3.holomorphic_solution(op, 30)

    def test_free_shift_families_at_any_shift(self):
        m0 = m_series("Y28", 0, 1, 20)
        m2 = m_series("Y28", 2, 3, 20)
        assert normalize(m0) == normalize(m2)

    def test_index2_rejected(self):
        with pytest.raises(ValueError):
            m_series("Y48_2", order=10)


class TestClassicalIdentities:
    def test_kachru_vafa_squared_form(self):
        report = verify_kachru_vafa(40)
        assert report.ok

    def test_kachru_vafa_first_coefficients(self):
        from gfano.verify import _hypergeometric_in_inverse_j

        p = _hypergeometric_in_inverse_j(10)
        square = p * p
        assert square.coeffs[0] == 1
        assert square.coeffs[1] == 240

    def test_delta_identity(self):
        report = verify_delta(40)
        assert report.ok

    @staticmethod
    def bumped(real, index):
        """real(order) with 1 added to body coefficient index."""
        def tampered(order):
            x = real(order)
            cs = list(x.body.coeffs)
            cs[index] += 1
            return QExpansion(x.offset, TruncatedSeries(cs, x.body.order))
        return tampered

    def test_wrong_e4_fails_only_the_e4_item(self, monkeypatch):
        monkeypatch.setattr(verify, "eisenstein_e4", self.bumped(verify.eisenstein_e4, 7))
        report = verify_kachru_vafa(20)
        assert not report.ok and report.order == 20
        assert report.first_mismatch == (7, 82560, 82561)
        assert verify_delta(20).ok

    def test_wrong_delta_fails_only_the_delta_item(self, monkeypatch):
        monkeypatch.setattr(verify, "discriminant", self.bumped(verify.discriminant, 11))
        report = verify_delta(20)
        assert not report.ok and report.order == 20
        assert report.first_mismatch == (11, -370944, -370943)
        assert verify_kachru_vafa(20).ok

    def test_delta_off_offset_one_is_refused(self, monkeypatch):
        monkeypatch.setattr(verify, "discriminant",
                            lambda order: QExpansion(0, discriminant(order).body))
        with pytest.raises(qexp.OffsetError):
            verify_delta(10)

    def test_delta_body_against_eta_oracle(self):
        d = discriminant(6)
        assert d.offset == 1
        assert d.body.coeffs[:2] == (1, -24)


class TestBattery:
    def test_verify_all_covers_the_scope(self):
        reports = verify_all(25)
        assert len(reports) == 10
        assert all(r.ok for r in reports)
        families = [r.family for r in reports]
        assert families[:8] == [
            "Y30", "Y28", "Y24", "Y20", "Y12_2", "Y12_3", "Y48_2", "Y48_3"
        ]

    def test_worker_pool_matches_sequential(self):
        sequential = verify_all(20)
        pooled = verify_all(20, workers=3)
        assert pooled == sequential

    def test_each_identity_checked_once(self, monkeypatch):
        calls = []
        real = verify.verify_identity

        def counted(key, *args, **kwargs):
            calls.append(key)
            return real(key, *args, **kwargs)

        monkeypatch.setattr(verify, "verify_identity", counted)
        reports = verify_all(20)
        assert sorted(calls) == sorted(k for k in BATTERY_KEYS if k not in EVEN_REDUCTION)
        monkeypatch.undo()
        for report, key in zip(reports, BATTERY_KEYS):
            assert report == verify_identity(key, order=20)

    def test_battery_builds_j_once(self, monkeypatch):
        # E4 and Delta take j from hauptmodul("1A"), behind its route cache;
        # importlib gives the module, which gfano's `hauptmodul` name shadows
        hauptmodul_module = importlib.import_module("gfano.hauptmodul")
        calls = []
        real = qexp.klein_j

        def counted(order):
            calls.append(order)
            return real(order)

        monkeypatch.setattr(hauptmodul_module, "klein_j", counted)
        monkeypatch.setattr(qexp, "klein_j", counted)
        hauptmodul_module._eta_route.cache_clear()
        verify._hypergeometric_in_inverse_j.cache_clear()
        assert all(r.ok for r in verify_all(60))
        assert calls == [verify.CLASSICAL_MAX_ORDER]
        assert "klein_j" not in vars(verify)

    def test_report_json_schema(self):
        report = verify_identity("Y24", order=10)
        data = report.to_json()
        assert data["schema"] == "gfano-report/1"
        assert data["status"] == "PASS"
        assert data["first_mismatch"] is None

    def test_failing_report_json(self):
        data = verify_identity("Y24", 4, 7, 10).to_json()
        assert data["status"] == "FAIL"
        assert data["first_mismatch"] == {"q_order": 1, "lhs": "4", "rhs": "9/2"}
