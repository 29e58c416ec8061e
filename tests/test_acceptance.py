"""Acceptance suite: every exit criterion at its stated order, exact arithmetic.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
live; they also appear in captured output).  All comparisons are exact --
there are no tolerances anywhere.

Criterion 7 checks ι against every non-starred printed table value.  At
the orders realized in M23 ({1..8, 11, 14, 15} and 23) ι is the divided
form (Σ_{M|N} φ(M)ε(M))/N.  At N = 9 the divided form is 16/3, which is
no orbit count, and ι is the cycle count of the order-9 frame shape
3^2 9^2 instead: 4, as printed (see the `gfano.mathieu` module docstring).
"""

import random
import time
from fractions import Fraction as F
from math import factorial

import pytest

from gfano import d3, mathieu
from gfano.hauptmodul import hauptmodul, inverse_hauptmodul, mirror_map
from gfano.periods import family, iseries
from gfano.qexp import ETA_PRODUCTS, eta, eta_product
from gfano.series import TruncatedSeries, normalize
from gfano.verify import (
    sweep_free_shift,
    verify_delta,
    verify_identity,
    verify_kachru_vafa,
)

from test_periods import brute_force_coefficient
from test_qexp import product_oracle
from test_series import reverse_by_substitution


def record(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f"  ({detail})" if detail else ""))
    return ok


# -- criterion 1: printed-series regression -----------------------------------

PRINTED_F = {
    "L6,2": [1, 0, 44, 528, 11292, 228000, 4999040, 112654080],
    "L6,3": [1, 0, 54, 672, 15642, 336960, 7919460, 191177280],
    "L10": [1, 0, 14, 72, 882, 8400, 95180, 1060080],
    "L12": [1, 0, 12, 48, 540, 4320, 42240, 403200],
    "L14": [1, 0, 8, 24, 240, 1440, 11960, 89040],
    "L15": [1, 0, 6, 24, 162, 1080, 7620, 55440],
}

PRINTED_I = {
    "Y48_2": [1, 0, 4, 0, 60, 0, 1120, 0, 24220, 0, 567504],
    "Y48_3": [1, 0, 6, 0, 90, 0, 1860, 0, 44730, 0, 1172556],
    "Y30": [1, 3, 15, 105, 855, 7533],
    "Y24": [1, 4, 28, 256, 2716, 31504],
    "Y20": [1, 2, 18, 164, 1810, 21252, 263844, 3395016],
    "Y12_2": [1, 4, 60, 1120, 24220, 567504],
    "Y12_3": [1, 6, 90, 1860, 44730, 1172556],
}


def test_criterion1_printed_series_regression():
    start = time.time()
    ok = True
    for key, expected in PRINTED_F.items():
        sol = d3.holomorphic_solution(d3.OPERATORS[key], len(expected) - 1)
        ok &= [int(c) for c in sol.coeffs] == expected
    for key, expected in PRINTED_I.items():
        got = iseries(key, len(expected) - 1)
        ok &= [int(c) for c in got.coeffs] == expected
    elapsed = time.time() - start
    assert record("1 printed-series regression", ok and elapsed < 1.0,
                  f"{elapsed:.3f}s")


# -- criterion 2: normalized I-series solve the D3 operators to order 200 ------

def test_criterion2_normalized_periods_solve_d3_to_200():
    start = time.time()
    ok = True
    for key in ("Y12_2", "Y12_3", "Y20", "Y24", "Y28", "Y30"):
        op = d3.OPERATORS[family(key).d3_operator]
        ok &= normalize(iseries(key, 200)) == d3.holomorphic_solution(op, 200)
    elapsed = time.time() - start
    assert record("2 normalize(I) = F to order 200", ok, f"{elapsed:.2f}s")


# -- criterion 3: the eta-product identities at order 60 with mutations --------

FIXED_CONFIGS = [
    ("Y30", 3, 4),
    ("Y24", 4, 6),
    ("Y20", 2, 4),
    ("Y12_2", 4, 10),
    ("Y12_3", 6, 14),
]


def test_criterion3_identities_and_mutations():
    start = time.time()
    ok = True
    for key, s, c in FIXED_CONFIGS:
        ok &= verify_identity(key, s, c, 60).ok
    ok &= all(r.ok for r in sweep_free_shift("Y28", range(0, 4), 60))
    ok &= verify_identity("Y48_2", order=60).ok
    ok &= verify_identity("Y48_3", order=60).ok
    for key, s, c in FIXED_CONFIGS + [("Y28", 1, 2)]:
        for ds, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            report = verify_identity(key, s + ds, c + dc, 60)
            ok &= (not report.ok) and report.first_mismatch is not None
    elapsed = time.time() - start
    assert record("3 identities at order 60 + mutations", ok and elapsed < 60.0,
                  f"{elapsed:.2f}s")


# -- criterion 4: the E4 and Delta specializations at order 40 -----------------

def test_criterion4_e4_and_delta():
    kv = verify_kachru_vafa(40)
    delta = verify_delta(40)
    assert record("4 E4 and Delta identities at order 40", kv.ok and delta.ok)


# -- criterion 5: Hauptmodul cross-checks --------------------------------------

def test_criterion5_hauptmodul_cross_checks():
    ok = True
    t6a = hauptmodul("6A", c=0, order=7)
    ok &= [int(x) for x in t6a.body.coeffs[2:]] == [79, 352, 1431, 4160, 13015, 31968]

    from test_hauptmodul import D3_FAMILIES, route_agreement

    for key in D3_FAMILIES:
        ok &= route_agreement(key, 60)

    printed = {
        "10A": [1, 4, 22, 56, 177, 352],
        "12A": [1, 6, 15, 32, 87, 192],
        "14A": [1, 1, 11, 20, 57, 92],
        "15A": [1, 1, 8, 22, 42, 70],
    }
    for label, expected in printed.items():
        got = [int(x) for x in hauptmodul(label, order=6).body.coeffs[:6]]
        ok &= got == expected
    assert record("5 Hauptmodul routes and printed expansions", ok)


# -- criterion 6: mirror-map integrality ---------------------------------------

@pytest.mark.parametrize("label", ["1A", "6A", "10A", "12A", "14A", "15A"])
def test_criterion6_mirror_map_integrality(label):
    q_of_t = mirror_map(hauptmodul(label, order=31), 30)
    ok = all(c.denominator == 1 for c in q_of_t.coeffs)
    assert record(f"6 mirror-map integrality to 30 [{label}]", ok)


# -- criterion 7: the Mathieu/Mason suite --------------------------------------

def test_criterion7_fixed_points_match_epsilon():
    ok = all(
        g.fixed_points == mathieu.epsilon(g.order) for g in mathieu.M23_SHAPES
    )
    assert record("7 a1 = epsilon(order) on all 12 M23 shapes", ok)


NON_STARRED = [n for n in sorted(mathieu.PRINTED_IOTA) if n not in mathieu.STARRED_IOTA]


@pytest.mark.parametrize("n", NON_STARRED)
def test_criterion7_iota_divided_form_matches_printed(n):
    computed = mathieu.iota(n)
    printed = mathieu.PRINTED_IOTA[n]
    ok = computed == printed
    record(f"7 iota({n}) = printed", ok,
           f"computed {computed}, printed {printed}")
    assert ok, (
        f"iota({n}) = {computed} != printed {printed}; see the gfano.mathieu "
        "module docstring for how iota is computed"
    )


def test_criterion7_epsilon_integral_for_15_values():
    values = mathieu.epsilon_integral_values(30)
    ok = len(values) == 15 and values == [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 14, 15, 16, 23]
    assert record("7 epsilon integral for exactly 15 values of N <= 30", ok)


def test_criterion7_identity_shape_is_delta():
    # eta_product and eta(K) both read the pentagonal series; the naive
    # shift-and-subtract product of (1 - q^n)^24 does not
    g = mathieu.FrameShape.parse("1^24")
    delta = mathieu.mason_eta(g, 40)
    ok = delta.offset == 1 and delta.body == TruncatedSeries(product_oracle(40, power=24), 40)
    assert record("7 mason_eta(1^24) = Delta", ok)


def test_criterion7_hecke_on_even_weight_shapes():
    start = time.time()
    even = [g for g in mathieu.M24_SHAPES if g.weight % 2 == 0]
    ok = len(even) == 14
    for g in even:
        report = mathieu.hecke_eigenform_check(g, bound=200)
        ok &= report.ok and report.multiplicative_pairs > 0
        if any(g.level % p for p in (2, 3, 5, 7, 11, 13, 17, 19)):
            ok &= report.recursion_checks > 0
    elapsed = time.time() - start
    assert record("7 multiplicativity <= 200 + Hecke recursion p^2 <= 200", ok,
                  f"{len(even)} even-weight shapes, {elapsed:.2f}s")


# -- criterion 8: oracle equivalences -------------------------------------------

def test_criterion8_pentagonal_eta_vs_naive_product():
    got = [int(c) for c in eta(500).body.coeffs]
    assert record("8 pentagonal eta = naive product to 500",
                  got == product_oracle(500))


def test_criterion8_iseries_vs_composition_enumeration():
    ok = True
    for key in ("X6", "Y20", "Y24", "Y12_2", "Y12_3", "Y30"):
        got = iseries(key, 12)
        ok &= all(
            got.coeffs[k] == brute_force_coefficient(key, k) for k in range(13)
        )
    assert record("8 iseries generators = brute-force enumeration to 12", ok)


def test_criterion8_reverse_vs_substitution():
    rng = random.Random(151)
    ok = True
    for _ in range(12):
        order = rng.randint(3, 9)
        coeffs = [F(0), F(rng.choice([1, 2, 3, -1]), rng.choice([1, 2]))]
        coeffs += [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order - 1)]
        f = TruncatedSeries(coeffs, order)
        ok &= f.reverse() == reverse_by_substitution(f)
    assert record("8 reverse = order-by-order substitution", ok)
