"""Coefficient-by-coefficient verification of the mirror-modular identities.

The central identity, for a family with I-series shifted to linear
coefficient s and Hauptmodul H with constant term c, is

    I_s(1/H) = eta_product · H^{σ₁/24}

Both sides are unit power series in q once the q-offsets cancel
(the eta-product starts at q^{σ₁/24}, H^{σ₁/24} at q^{-σ₁/24}); the
verifier compares them exactly to the working order and reports the first
mismatching coefficient on failure.

Every family is checked through its D3 operator L, with no series
composition: the identity is equivalent to F(T) = R with F = normalize(I),
T = 1/H_{c−s} = q/B and R = E·B·(B + s·q)^{σ₁/24 − 1}, for eta = q^{σ₁/24}·E
and B the body of H_{c−s}, so one Hauptmodul gives both.  That holds
through q^K exactly when R_0 = 1 and L, written in the variable T, kills R
through q^K (see `verify_identity`).  The report is the one a composition
would give, coefficient for coefficient.

Two classical specializations get their own entry points: the square of
Σ (6n)!/((3n)! n!³) j^{-n} equals E4 exactly, and j⁻¹ times its sixth
power equals the discriminant Delta.  Both compose X6's I-series with
1/j for j = hauptmodul("1A"), the battery's one composition.
`check_exp_relation` ties the two index-2 G-series to each other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import List, NamedTuple, Optional, Tuple

from . import d3, periods
from .hauptmodul import hauptmodul, inverse_hauptmodul
from .periods import EVEN_REDUCTION, family, gseries, iseries
from .qexp import (
    ETA_PRODUCTS,
    OffsetError,
    QExpansion,
    discriminant,
    eisenstein_e4,
    eta_product,
)
from .series import (
    NonUnitConstant,
    SeriesError,
    TruncatedSeries,
    _frac,
    laplace,
    normalize,
)

DEFAULT_ORDER = 60

#: Schema tag of every JSON payload and report.
SCHEMA = "gfano-report/1"

#: Order at which the battery checks the E4 and Delta identities when asked
#: for more: both compose with 1/j, which is the battery's one composition.
CLASSICAL_MAX_ORDER = 40


class NotFreeShift(ValueError):
    """Shift sweep requested for a family whose shift is pinned."""


class PeriodMismatch(SeriesError):
    """A family's normalized I-series is not its D3 operator's solution."""


class IdentityReport(NamedTuple):
    """Outcome of one exact identity check.

    PASS (ok) means every coefficient up to the stated order agrees exactly,
    so first_mismatch is None; otherwise it holds (q-order, lhs, rhs) of the
    earliest disagreement.
    """

    name: str
    family: Optional[str]
    s: Optional[Fraction]
    c: Optional[Fraction]
    order: int
    first_mismatch: Optional[Tuple[int, Fraction, Fraction]] = None

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def to_json(self) -> dict:
        data = {
            "schema": SCHEMA,
            "identity": self.name,
            "family": self.family,
            "s": None if self.s is None else str(self.s),
            "c": None if self.c is None else str(self.c),
            "order": self.order,
            "status": self.status,
        }
        if self.first_mismatch is not None:
            n, lhs, rhs = self.first_mismatch
            data["first_mismatch"] = {"q_order": n, "lhs": str(lhs), "rhs": str(rhs)}
        else:
            data["first_mismatch"] = None
        return data


def _compare(name: str, lhs: TruncatedSeries, rhs: TruncatedSeries) -> IdentityReport:
    """A family-free report on lhs = rhs, through the order both sides reach."""
    k = min(lhs.order, rhs.order)
    n = next((n for n in range(k + 1) if lhs.coeffs[n] != rhs.coeffs[n]), None)
    mismatch = None if n is None else (n, lhs.coeffs[n], rhs.coeffs[n])
    return IdentityReport(name, None, None, None, k, mismatch)


def verify_identity(
    key: str,
    s: Optional[int] = None,
    c: Optional[int] = None,
    order: int = DEFAULT_ORDER,
) -> IdentityReport:
    """Check I_s(1/H_c) = eta · H_c^{σ₁/24} for one family, exactly, through
    the family's D3 operator and with no composition.

    The regular shift is a Möbius substitution,
    regular_shift(F, s)(x) = F(x/(1−sx))/(1−sx), and at x = 1/H_c, as
    H_c = H_{c−s} + s, x/(1−sx) = T = 1/H_{c−s} and 1/(1−sx) = 1 + s·T.  So
    with F = normalize(I), eta = q^e·E and H_{c−s} = B/q the identity reads
    F(T) = R, R = eta·H_c^e/(1 + s·T) = E·B·(B + s·q)^(e−1): H_{c−s} alone
    gives T and R, and at e = 1 neither depends on s.
    F is the solution of the family's operator L with F_0 = 1, and the
    t^n coefficient of L g is n³·g_n plus terms in g_0 .. g_(n−1).  So
    R = F∘T through q^K exactly when R_0 = 1 and L, written in T, kills R
    through q^K (Zagier, "Elliptic modular forms and their applications",
    Prop. 21, is why a weight-2 form in a Hauptmodul satisfies such an
    ODE).  At the first q^n (n ≥ 1) where L_T R does not vanish, the two
    sides of the identity differ by −(L_T R)_n/n³, which gives the lhs of
    the report; its rhs is (R·(1 + s·T))_n.  The row is also tied to the
    closed-form I-series: normalize(I) must be the operator's solution
    (Y28 has none: its I-series is L14's solution, tied to itself).

    An index-2 family's I-series is its index-1 partner's in t², so its
    row is the partner's report at the same s, c and order (`_index2_row`).
    """
    fam = family(key)
    if key in EVEN_REDUCTION:
        return _index2_row(key, verify_identity(EVEN_REDUCTION[key], s, c, order))

    i_series = iseries(key, order)
    s = fam.default_shift(i_series) if s is None else _frac(s)
    c = s + fam.c_minus_s if c is None else _frac(c)
    name = f"I_{{{key},s={s}}}(1/H_{{{fam.hauptmodul},c={c}}}) = eta_{{{fam.eta}}} * H^{fam.exponent}"
    eta = eta_product(ETA_PRODUCTS[fam.eta], order)
    if eta.offset != fam.exponent:
        raise OffsetError(f"offsets {eta.offset} and {-fam.exponent} must cancel")
    h = hauptmodul(fam.hauptmodul, c - s, order)
    t, b = inverse_hauptmodul(h), h.body
    r = eta.body * b * (b + TruncatedSeries([0, s], order)).pow_rational(fam.exponent - 1)
    if r.coeffs[0] != 1:
        raise NonUnitConstant("both sides of the identity must be unit series")
    op = d3.OPERATORS[fam.d3_operator]
    if normalize(i_series) != d3.holomorphic_solution(op, order):
        raise PeriodMismatch(
            f"normalized I-series of {key} is not the solution of {fam.d3_operator}"
        )
    residual = d3.apply_operator_in(op, r, t)
    if residual.order != order:
        raise SeriesError(f"residual known through q^{residual.order}, not q^{order}")
    n = next((n for n, x in enumerate(residual.coeffs) if x), None)
    if n is None:
        return IdentityReport(name, key, s, c, order)
    rhs_n = (r * (1 + s * t)).coeffs[n]
    return IdentityReport(
        name, key, s, c, order, (n, rhs_n - residual.coeffs[n] / n ** 3, rhs_n)
    )


def _index2_row(key: str, base: IdentityReport) -> IdentityReport:
    """The index-2 family's row: its partner's report `base`, renamed."""
    return base._replace(name=f"{key} via {EVEN_REDUCTION[key]}: {base.name}",
                         family=key)


def sweep_free_shift(
    key: str, s_range, order: int = DEFAULT_ORDER
) -> List[IdentityReport]:
    """Verify the identities over a shift range, with c − s read from the
    family's row.

    Only meaningful for the families whose row in `periods.FAMILIES`
    leaves the shift free (shift None), where c − s is the invariant.
    Free means e = σ₁/24 = 1, where T and R = E·B depend on c − s alone.
    At e ≠ 1 R's q¹ coefficient moves with s, so every off-table shift
    fails and the family is rejected up front, with the free ones named.
    """
    if family(key).shift is not None:
        free = ", ".join(k for k, f in periods.FAMILIES.items() if f.shift is None)
        raise NotFreeShift(f"{key} has a pinned shift; sweep applies to {free}")
    return [verify_identity(key, s, order=order) for s in s_range]


@lru_cache(maxsize=4)
def _hypergeometric_in_inverse_j(order: int) -> TruncatedSeries:
    """Σ (6n)!/((3n)! n!³) j(q)^{-n} as a power series in q.  Cached: the E4
    and Delta items of an in-process battery share it."""
    inv_j = inverse_hauptmodul(hauptmodul("1A", order=order)).truncate(order)
    return iseries("X6", order).compose(inv_j)


def verify_kachru_vafa(order: int = CLASSICAL_MAX_ORDER) -> IdentityReport:
    """(Σ (6n)!/((3n)! n!³) j^{-n})² = E4, checked in squared form."""
    p = _hypergeometric_in_inverse_j(order)
    lhs = p * p
    rhs = eisenstein_e4(order).body
    return _compare("(sum (6n)!/((3n)!n!^3) j^-n)^2 = E4", lhs, rhs)


def verify_delta(order: int = CLASSICAL_MAX_ORDER) -> IdentityReport:
    """j⁻¹ · (Σ (6n)!/((3n)! n!³) j^{-n})⁶ = Delta as offset-1 expansions.
    A bump at q^n of the Δ read here, or of the E4 the E4 item reads, fails
    only its own item, at q^n; one of the E4 or Δ in j = E4³/Δ fails this
    item at q^n and the E4 item at q^(n+1), since 1/j starts at q."""
    p = _hypergeometric_in_inverse_j(order)
    p6 = QExpansion(0, p.pow_rational(6))
    lhs = hauptmodul("1A", order=order).reciprocal() * p6
    rhs = discriminant(order)
    if not lhs.offset == rhs.offset == 1:
        raise OffsetError(f"offsets {lhs.offset} and {rhs.offset} must both be 1")
    return _compare("j^-1 * (sum (6n)!/((3n)!n!^3) j^-n)^6 = Delta",
                    lhs.body, rhs.body)


BATTERY_KEYS = ["Y30", "Y28", "Y24", "Y20", "Y12_2", "Y12_3", "Y48_2", "Y48_3"]


def verify_all(order: int = DEFAULT_ORDER, workers: int = 1) -> List[IdentityReport]:
    """The full battery: six index-1 rows, two index-2 rows, E4, Delta.

    E4 and Delta are checked at min(order, CLASSICAL_MAX_ORDER).  An
    index-2 row is its partner's report, which the partner's own row has
    already computed at the same (s, c) and order, so each identity is
    checked once.

    The other items are independent; with workers > 1 they run in a
    process pool and are aggregated back in the canonical (submission)
    order, so the output is identical either way.
    """
    keys = [k for k in BATTERY_KEYS if k not in EVEN_REDUCTION]
    classical = min(order, CLASSICAL_MAX_ORDER)
    items = [partial(verify_identity, k, order=order) for k in keys]
    items += [partial(verify_kachru_vafa, classical), partial(verify_delta, classical)]
    if workers > 1:
        # Imported here: the pool machinery costs about 25 ms of import,
        # which every `import gfano` would otherwise pay.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(item) for item in items]
            reports = [f.result() for f in futures]
    else:
        reports = [item() for item in items]
    rows = dict(zip(keys, reports))
    battery = [
        _index2_row(k, rows[EVEN_REDUCTION[k]]) if k in EVEN_REDUCTION else rows[k]
        for k in BATTERY_KEYS
    ]
    return battery + reports[len(keys):]


def check_exp_relation(order: int) -> IdentityReport:
    """The e^x relation between the two index-2 families (common dP6 section).

    Both G-series are even in t.  In the halved variable x = t² their
    x-regularizations differ by the factor e^x:

        L[G(Y48_3)(√x)] = e^x · L[G(Y48_2)(√x)]

    coefficientwise k!·g3_{2k} = Σ_j j!·g2_{2j}/(k-j)!, which is the
    binomial transform between the two coefficient sequences.  It is
    checked as one product exp(x)·h2 = h3 with h_k = k!·g_{2k}, through
    x^(order // 2).  (The bare, unregularized product form already fails
    at k = 2: 15/4 vs 5.)
    """
    half = order // 2
    h2 = laplace(TruncatedSeries(gseries("Y48_2", order).coeffs[::2], half))
    h3 = laplace(TruncatedSeries(gseries("Y48_3", order).coeffs[::2], half))
    return _compare("L[G(Y48_3)(sqrt x)] = e^x * L[G(Y48_2)(sqrt x)]",
                    h3, TruncatedSeries.exponential(1, half) * h2)
