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
T = 1/H_{c−s} and R = eta·H_c^{σ₁/24}·(1 − s/H_c), and that holds through
q^K exactly when R_0 = 1 and L, written in the variable T, kills R through
q^K (see `verify_identity`).  The report is the one a composition would
give, coefficient for coefficient.

Two classical specializations get their own entry points: the square of
Σ (6n)!/((3n)! n!³) j^{-n} equals E4 exactly, and j⁻¹ times its sixth
power equals the discriminant Delta.  Both compose X6's I-series with
1/j, the battery's one composition.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import d3, periods
from .hauptmodul import hauptmodul, inverse_hauptmodul, mirror_map
from .periods import EVEN_REDUCTION, FamilyDescriptor, family, iseries
from .qexp import (
    ETA_PRODUCTS,
    OffsetError,
    QExpansion,
    discriminant,
    eisenstein_e4,
    eta_product,
    klein_j,
)
from .series import (
    NonUnitConstant,
    SeriesError,
    TruncatedSeries,
    normalize,
)

DEFAULT_ORDER = 60

#: Order at which the battery checks the E4 and Delta identities when asked
#: for more: both compose with 1/j, which is the battery's one composition.
CLASSICAL_MAX_ORDER = 40


class NotFreeShift(ValueError):
    """Shift sweep requested for a family whose shift is pinned."""


class PeriodMismatch(SeriesError):
    """A family's normalized I-series is not its D3 operator's solution."""


class IdentityReport(NamedTuple):
    """Outcome of one exact identity check.

    PASS means every coefficient up to the stated order agrees exactly;
    otherwise first_mismatch holds (q-order, lhs, rhs) of the earliest
    disagreement.
    """

    name: str
    family: Optional[str]
    s: Optional[Fraction]
    c: Optional[Fraction]
    order: int
    ok: bool
    first_mismatch: Optional[Tuple[int, Fraction, Fraction]] = None

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def to_json(self) -> dict:
        data = {
            "schema": "gfano-report/1",
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


def _compare(
    name: str,
    key: Optional[str],
    s,
    c,
    order: int,
    lhs: TruncatedSeries,
    rhs: TruncatedSeries,
) -> IdentityReport:
    k = min(order, lhs.order, rhs.order)
    for n in range(k + 1):
        if lhs.coeffs[n] != rhs.coeffs[n]:
            return IdentityReport(
                name, key, s, c, k, False, (n, lhs.coeffs[n], rhs.coeffs[n])
            )
    return IdentityReport(name, key, s, c, k, True)


def verify_identity(
    key: str,
    s: Optional[int] = None,
    c: Optional[int] = None,
    order: int = DEFAULT_ORDER,
) -> IdentityReport:
    """Check I_s(1/H_c) = eta · H_c^{σ₁/24} for one family, exactly, through
    the family's D3 operator and with no composition.

    The regular shift is a Möbius substitution,
    regular_shift(F, s)(x) = F(x/(1−sx))/(1−sx), so with F = normalize(I)
    the identity reads F(T) = R for T = 1/H_{c−s} and R = rhs·(1 − s/H_c).
    F is the solution of the family's operator L with F_0 = 1, and the
    t^n coefficient of L g is n³·g_n plus terms in g_0 .. g_(n−1).  So
    R = F∘T through q^K exactly when R_0 = 1 and L, written in T, kills R
    through q^K (Zagier, "Elliptic modular forms and their applications",
    Prop. 21, is why a weight-2 form in a Hauptmodul satisfies such an
    ODE).  At the first q^n (n ≥ 1) where L_T R does not vanish, the two
    sides of the identity differ by −(L_T R)_n/n³, which gives the lhs of
    the report.  The row is also tied to the closed-form I-series:
    normalize(I) must be the operator's solution.

    Index-2 families are routed through their even-variable reduction:
    their own I-series is checked against the index-1 partner's in t², and
    the identity is then checked for that partner at this family's table
    row.
    """
    fam = family(key)
    if fam.index == 2:
        return _even_row(key, s, c, order,
                         lambda: verify_identity(EVEN_REDUCTION[key], s, c, order))

    s, c, h, rhs = _modular_side(fam, s, c, order)
    name = f"I_{{{key},s={s}}}(1/H_{{{fam.hauptmodul},c={c}}}) = eta_{{{fam.eta}}} * H^{fam.exponent}"
    if rhs.coeffs[0] != 1:
        raise NonUnitConstant("both sides of the identity must be unit series")
    op = d3.OPERATORS[fam.d3_operator]
    if normalize(iseries(key, order)) != d3.holomorphic_solution(op, order):
        raise PeriodMismatch(
            f"normalized I-series of {key} is not the solution of {fam.d3_operator}"
        )
    t = inverse_hauptmodul(hauptmodul(fam.hauptmodul, c - s, order))
    r = rhs * (1 - s * inverse_hauptmodul(h))
    residual = d3.apply_operator_in(op, r, t)
    if residual.order != order:
        raise SeriesError(f"residual known through q^{residual.order}, not q^{order}")
    n = next((n for n, x in enumerate(residual.coeffs) if x), None)
    if n is None:
        return IdentityReport(name, key, s, c, order, True)
    rhs_n = rhs.coeffs[n]
    return IdentityReport(
        name, key, s, c, order, False, (n, rhs_n - residual.coeffs[n] / n ** 3, rhs_n)
    )


def _even_row(
    key: str, s, c, order: int, partner: Callable[[], IdentityReport]
) -> IdentityReport:
    """An index-2 row: the family's I-series against its index-1 partner's
    in t², then `partner()`, the partner's report at this row, renamed.
    The partner is not asked for when the reduction already fails."""
    reduction = periods._even_substitution(key, order)
    if not reduction.ok:
        return IdentityReport(
            reduction.name, key, s, c, order, False,
            (reduction.first_mismatch, reduction.lhs, reduction.rhs),
        )
    base = partner()
    name = f"{key} via {EVEN_REDUCTION[key]}: {base.name}"
    return IdentityReport(name, key, base.s, base.c, base.order,
                          base.ok, base.first_mismatch)


def _modular_side(fam: FamilyDescriptor, s, c, order: int) -> tuple:
    """(s, c) defaulted from the family row, H_c, and eta·H_c^{σ₁/24} as a
    unit power series (the q-offsets cancel)."""
    if s is None:
        s = fam.default_shift()
    if c is None:
        c = fam.default_constant(s)
    s, c = Fraction(s), Fraction(c)
    h = hauptmodul(fam.hauptmodul, c, order)
    eta = eta_product(ETA_PRODUCTS[fam.eta], order)
    h_pow = h.pow_rational(fam.exponent)
    if eta.offset + h_pow.offset != 0:
        raise OffsetError(f"offsets {eta.offset} and {h_pow.offset} must cancel")
    return s, c, h, eta.body * h_pow.body


def sweep_free_shift(
    key: str, s_range, order: int = DEFAULT_ORDER
) -> List[IdentityReport]:
    """Verify the family of identities with c = s + 1 over a shift range.

    Only meaningful for families with a free shift (Y28, Y30), where the
    difference c - s is the invariant; for pinned-shift families every
    off-table shift fails by construction, so they are rejected up front.
    """
    if family(key).shift is not None:
        raise NotFreeShift(f"{key} has a pinned shift; sweep applies to Y28, Y30")
    return [verify_identity(key, s, s + 1, order) for s in s_range]


def m_series(
    key: str,
    s: Optional[int] = None,
    c: Optional[int] = None,
    order: int = DEFAULT_ORDER,
) -> TruncatedSeries:
    """The power series solving the functional equation, built from the
    modular side alone.

    Composing the right-hand side eta·H^{σ₁/24} with the mirror map q(t)
    (the inverse of t = 1/H) produces the unique power series M with
    M(1/H) = eta·H^{σ₁/24}.  The suite checks that M coincides with the
    regular-shifted I-series and that its normalization solves the
    family's D3 operator -- the two sides of the equivalence, each
    computed without reference to the other.
    """
    fam = family(key)
    if fam.index == 2:
        raise ValueError("index-2 families reduce to their index-1 partners")
    _, _, h, rhs = _modular_side(fam, s, c, order)
    return rhs.compose(mirror_map(h, order))


@lru_cache(maxsize=4)
def _hypergeometric_in_inverse_j(order: int) -> TruncatedSeries:
    """Σ (6n)!/((3n)! n!³) j(q)^{-n} as a power series in q.  Cached: the E4
    and Delta items of an in-process battery share it."""
    inv_j = inverse_hauptmodul(klein_j(order)).truncate(order)
    return iseries("X6", order).compose(inv_j)


def verify_kachru_vafa(order: int = CLASSICAL_MAX_ORDER) -> IdentityReport:
    """(Σ (6n)!/((3n)! n!³) j^{-n})² = E4, checked in squared form."""
    p = _hypergeometric_in_inverse_j(order)
    lhs = p * p
    rhs = eisenstein_e4(order).body
    return _compare("(sum (6n)!/((3n)!n!^3) j^-n)^2 = E4", None, None, None,
                    order, lhs, rhs)


def verify_delta(order: int = CLASSICAL_MAX_ORDER) -> IdentityReport:
    """j⁻¹ · (Σ (6n)!/((3n)! n!³) j^{-n})⁶ = Delta as offset-1 expansions."""
    p = _hypergeometric_in_inverse_j(order)
    p6 = QExpansion(0, p) ** 6
    lhs = klein_j(order).reciprocal() * p6
    rhs = discriminant(order)
    if not lhs.offset == rhs.offset == 1:
        raise OffsetError(f"offsets {lhs.offset} and {rhs.offset} must both be 1")
    return _compare("j^-1 * (sum (6n)!/((3n)!n!^3) j^-n)^6 = Delta", None, None,
                    None, order, lhs.body, rhs.body)


BATTERY_KEYS = ["Y30", "Y28", "Y24", "Y20", "Y12_2", "Y12_3", "Y48_2", "Y48_3"]


def _battery_item(task) -> IdentityReport:
    kind, arg, order = task
    if kind == "identity":
        return verify_identity(arg, order=order)
    if kind == "kv":
        return verify_kachru_vafa(order)
    return verify_delta(order)


def verify_all(order: int = DEFAULT_ORDER, workers: int = 1) -> List[IdentityReport]:
    """The full battery: six index-1 rows, two index-2 reductions, E4, Delta.

    E4 and Delta are checked at min(order, CLASSICAL_MAX_ORDER).  An
    index-2 row is its even substitution plus its partner's report, which
    the partner's own row has already computed at the same (s, c) and
    order, so each identity is checked once.

    The other items are independent; with workers > 1 they run in a
    process pool and are aggregated back in the canonical (submission)
    order, so the output is identical either way.
    """
    keys = [k for k in BATTERY_KEYS if k not in EVEN_REDUCTION]
    tasks = [("identity", k, order) for k in keys]
    classical = min(order, CLASSICAL_MAX_ORDER)
    tasks += [("kv", None, classical), ("delta", None, classical)]
    if workers > 1:
        # Imported here: the pool machinery costs about 25 ms of import,
        # which every `import gfano` would otherwise pay.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_battery_item, tasks))
    else:
        reports = [_battery_item(t) for t in tasks]
    rows = dict(zip(keys, reports))
    battery = [
        _even_row(k, None, None, order, lambda k=k: rows[EVEN_REDUCTION[k]])
        if k in EVEN_REDUCTION else rows[k]
        for k in BATTERY_KEYS
    ]
    return battery + reports[len(keys):]
