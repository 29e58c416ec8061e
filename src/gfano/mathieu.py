"""Frame shapes of M23/M24, the arithmetic functions φ ψ ε ι, and Mason's
eta-products with desk-scale Hecke checks.

A frame shape Π i^{a_i} is the cycle type of a permutation of 24 points;
its order is the lcm of the cycle lengths, its fixed-point count is a_1,
and following Mason one attaches

    weight  w = (Σ a_i) / 2
    level   N = gcd(lengths) · lcm(lengths)
    eta_g   = Π η(q^i)^{a_i}      (a cusp-eigenform of weight w, level N)

The arithmetic side for an integer N:

    φ(N) = N Π_{p|N} (1 - 1/p)          (index of Γ₁(N) in Γ₀(N))
    ψ(N) = N Π_{p|N} (1 + 1/p)          (index of Γ₀(N) in SL₂(Z))
    ε(N) = 24 / ψ(N)
    ι(N) = the number of orbits of an order-N element on the 24 points

By Burnside's lemma the orbit count of ⟨g⟩ is (Σ_{M|N} φ(M) fix(M)) / N,
fix(M) being the fixed-point count of the order-M powers of g.  Where
those are ε(M), as they are at every order realized in M23, this is the
divided form

    ι_div(N) = (Σ_{M|N} φ(M) ε(M)) / N

(with the division by N: the bare divisor sum gives 48 for N = 6 where
the reference table prints 8).  It reproduces the table for every order
realized in M23 (including ι(23) = 2).  Where ι_div(N) is not an integer,
no permutation of order N has ε(M)-point fixed sets, so ε(N) is no
fixed-point count there; ι(N) is then the cycle count Σ a_i of the frame
shape of order N in the M24/S24 tables, itself the Burnside count over
that shape's real fixed points.  In the table this happens at N = 9
(ι_div = 16/3; 3^2 9^2 gives 4, the printed value) and N = 10
(ι_div = 16/3; 2^2 10^2 gives 4 against a printed, starred 8).  The
starred entries (10, 12) are shown with both the computed and the
printed value: `correspondence_report()` (and so `gfano tables`) flags
every mismatch, and `frobenius_mukai_check()` lists both starred orders
as exceptions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Tuple

from .qexp import QExpansion, eta_product
from .periods import FAMILIES
from .series import _scaled


class ParseError(ValueError):
    """Malformed frame-shape text."""


class SumNot24(ValueError):
    """Permutation frame shape whose Σ i·a_i is not 24."""


class BoundTooSmall(ValueError):
    """A Hecke check bound below the first coprime pair 2·3."""


class FrameShape(NamedTuple):
    """Multiset of cycle lengths with multiplicities, Σ i·a_i = 24.

    Negative multiplicities (eta-quotient shapes) are allowed when the
    permutation constraint is switched off.
    """

    counts: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_counts(cls, counts: Dict[int, int], permutation: bool = True) -> "FrameShape":
        counts = {i: a for i, a in counts.items() if a}
        if any(i < 1 for i in counts):
            raise ParseError("cycle lengths must be positive")
        if permutation:
            if any(a < 0 for a in counts.values()):
                raise ParseError("permutation shapes need non-negative multiplicities")
            total = sum(i * a for i, a in counts.items())
            if total != 24:
                raise SumNot24(f"cycle lengths sum to {total}, not 24")
        return cls(tuple(sorted(counts.items())))

    @classmethod
    def parse(cls, text: str, permutation: bool = True) -> "FrameShape":
        """Parse "1^2 2^2 3^2 6^2" (bare "i" meaning i^1)."""
        counts: Dict[int, int] = {}
        for token in text.split():
            m = re.fullmatch(r"(\d+)(?:\^(-?\d+))?", token)
            if not m:
                raise ParseError(f"bad token {token!r}")
            i = int(m.group(1))
            a = int(m.group(2)) if m.group(2) else 1
            counts[i] = counts.get(i, 0) + a
        if not counts:
            raise ParseError("empty frame shape")
        return cls.from_counts(counts, permutation)

    def multiplicity(self, i: int) -> int:
        return dict(self.counts).get(i, 0)

    @property
    def lengths(self) -> List[int]:
        return [i for i, _ in self.counts]

    @property
    def order(self) -> int:
        return reduce(lcm, self.lengths, 1)

    @property
    def fixed_points(self) -> int:
        return self.multiplicity(1)

    @property
    def cycles(self) -> int:
        return sum(a for _, a in self.counts)

    @property
    def weight(self) -> Fraction:
        return Fraction(self.cycles, 2)

    @property
    def level(self) -> int:
        return reduce(gcd, self.lengths) * reduce(lcm, self.lengths, 1)

    def __str__(self) -> str:
        return " ".join(f"{i}^{a}" for i, a in self.counts)

    def to_json(self) -> dict:
        return {
            "shape": str(self),
            "order": self.order,
            "weight": str(self.weight),
            "level": self.level,
            "fixed_points": self.fixed_points,
        }


# -- the tables ---------------------------------------------------------------

#: The 12 frame shapes of M23 (orders 1..8, 11, 14, 15, 23).
M23_SHAPES = [FrameShape.parse(s) for s in (
    "1^24", "1^8 2^8", "1^6 3^6", "1^4 2^2 4^4", "1^4 5^4", "1^2 2^2 3^2 6^2",
    "1^3 7^3", "1^2 2^1 4^1 8^2", "1^2 11^2", "1^1 2^1 7^1 14^1",
    "1^1 3^1 5^1 15^1", "1^1 23^1",
)]

#: The 9 extra frame shapes of M24 (fixed-point free).
M24_EXTRA_SHAPES = [FrameShape.parse(s) for s in (
    "2^12", "3^8", "2^4 4^4", "4^6", "6^4", "2^2 10^2", "2^1 4^1 6^1 12^1",
    "12^2", "3^1 21^1",
)]

M24_SHAPES = M23_SHAPES + M24_EXTRA_SHAPES

#: The 7 extra integer-weight S24 shapes whose eta-product is still a
#: Hecke eigen-cuspform (the half-integral 24^1 and 8^3 are excluded).
S24_EXTRA_SHAPES = [FrameShape.parse(s) for s in (
    "3^2 9^2", "4^2 8^2", "2^3 6^3", "2^1 22^1", "4^1 20^1", "6^1 18^1",
    "8^1 16^1",
)]


# -- arithmetic functions -----------------------------------------------------


def _prime_factors(n: int) -> List[int]:
    ps = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            ps.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        ps.append(n)
    return ps


def phi(n: int) -> int:
    """Euler's totient N Π (1 - 1/p)."""
    value = Fraction(n)
    for p in _prime_factors(n):
        value *= Fraction(p - 1, p)
    return int(value)


def psi(n: int) -> int:
    """The Dedekind psi function N Π (1 + 1/p)."""
    value = Fraction(n)
    for p in _prime_factors(n):
        value *= Fraction(p + 1, p)
    return int(value)


def epsilon(n: int) -> Fraction:
    """24 / ψ(N); the fixed-point count of order-N elements of M23."""
    return Fraction(24, psi(n))


def iota_divided(n: int) -> Fraction:
    """(Σ_{M|N} φ(M) ε(M)) / N, the divided form (see module docstring)."""
    total = sum(phi(m) * epsilon(m) for m in range(1, n + 1) if n % m == 0)
    return Fraction(total, n)


def iota(n: int) -> Fraction:
    """Orbit count of an order-N element: the divided form where it is an
    integer, else the cycle count of the tabled frame shape of order N
    (the divided form again if the tables give no single such count)."""
    divided = iota_divided(n)
    if divided.denominator == 1:
        return divided
    cycles = {g.cycles for g in M24_SHAPES + S24_EXTRA_SHAPES if g.order == n}
    return Fraction(cycles.pop()) if len(cycles) == 1 else divided


def epsilon_integral_values(bound: int = 30) -> List[int]:
    """All N ≤ bound with ε(N) integral, i.e. ψ(N) | 24."""
    return [n for n in range(1, bound + 1) if 24 % psi(n) == 0]


# -- printed reference table (the 16-column correspondence row data) ----------

PRINTED_EPSILON = {
    1: Fraction(24), 2: Fraction(8), 3: Fraction(6), 4: Fraction(4),
    5: Fraction(4), 6: Fraction(2), 7: Fraction(3), 8: Fraction(2),
    9: Fraction(2), 10: Fraction(4, 3), 11: Fraction(2), 12: Fraction(1),
    14: Fraction(1), 15: Fraction(1),
}

PRINTED_IOTA = {
    1: 24, 2: 16, 3: 12, 4: 10, 5: 8, 6: 8, 7: 6, 8: 6, 9: 4, 10: 8,
    11: 4, 12: 5, 14: 4, 15: 4,
}

#: Entries the reference table marks with an asterisk.
STARRED_IOTA = {10, 12}

#: (N, class, s, c, rho, family key): the 16 index-1 rows; s None = free.
CORRESPONDENCE_ROWS: List[Tuple[int, str, Optional[int], str, int, Optional[str]]] = [
    (1, "1A", 120, "744", 1, "X6"),
    (2, "2A", 24, "104", 1, None),
    (3, "3A", 12, "42", 1, None),
    (4, "4A", 8, "24", 1, None),
    (5, "5A", 6, "16", 1, None),
    (6, "6A", 6, "14", 3, "Y12_3"),
    (6, "6B", 5, "12", 1, None),
    (6, "6A", 4, "10", 2, "Y12_2"),
    (7, "7A", 4, "9", 1, None),
    (8, "8A", 4, "8", 1, None),
    (9, "9A", 3, "6", 1, None),
    (10, "10A", 2, "4", 2, "Y20"),
    (11, "11A", None, "s+2", 1, None),
    (12, "12A", 4, "6", 4, "Y24"),
    (14, "14A", None, "s+1", 2, "Y28"),
    (15, "15A", None, "s+1", 3, "Y30"),
]


def rational_type(n: int) -> bool:
    """Rationality predicate for the index-1 degree-2N deformation class."""
    return epsilon(n) >= 2


# -- checks -------------------------------------------------------------------


class FixedPointEntry(NamedTuple):
    shape: str
    order: int
    fixed_points: int
    epsilon: Fraction
    cycles: int
    iota: Fraction
    ok: bool

    def to_json(self) -> dict:
        return {
            "shape": self.shape,
            "order": self.order,
            "fixed_points": self.fixed_points,
            "epsilon": str(self.epsilon),
            "cycles": self.cycles,
            "iota": str(self.iota),
            "status": "PASS" if self.ok else "FAIL",
        }


def frobenius_mukai_check() -> dict:
    """a₁ = ε(order) and Σ a_i = ι(order) across the 12 M23 frame shapes.

    The non-M23 orders 10 and 12 appearing in the printed table (starred
    there) are reported as exceptions with both values, not failed.
    """
    entries = []
    for g in M23_SHAPES:
        n = g.order
        ok = g.fixed_points == epsilon(n) and g.cycles == iota(n)
        entries.append(FixedPointEntry(
            str(g), n, g.fixed_points, epsilon(n), g.cycles, iota(n), ok,
        ))
    exceptions = []
    for g in M24_EXTRA_SHAPES:
        n = g.order
        if n not in STARRED_IOTA:
            continue
        exceptions.append({
            "shape": str(g),
            "order": n,
            "cycles": g.cycles,
            "iota_computed": str(iota(n)),
            "iota_printed": PRINTED_IOTA[n],
            "flagged": True,
        })
    return {
        "entries": entries,
        "exceptions": exceptions,
        "ok": all(e.ok for e in entries),
    }


def mason_eta(g: FrameShape, order: int) -> QExpansion:
    """The eta-product Π η(q^i)^{a_i} of a frame shape."""
    return eta_product(dict(g.counts), order)


class HeckeReport(NamedTuple):
    shape: str
    weight: Fraction
    level: int
    bound: int
    prime_bound: int
    multiplicative_pairs: int
    recursion_checks: int
    character_note: Optional[str]
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "shape": self.shape,
            "weight": str(self.weight),
            "level": self.level,
            "bound": self.bound,
            "prime_bound": self.prime_bound,
            "multiplicative_pairs": self.multiplicative_pairs,
            "recursion_checks": self.recursion_checks,
            "character_note": self.character_note,
            "status": "PASS" if self.ok else "FAIL",
            "violations": list(self.violations),
        }


def _primes_upto(n: int) -> List[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


def hecke_eigenform_check(g: FrameShape, bound: int = 200,
                          prime_bound: int = 20) -> HeckeReport:
    """Coefficient multiplicativity and (for even weight) the prime-power
    Hecke recursion a(p^{r+1}) = a(p) a(p^r) - p^{w-1} a(p^{r-1}).

    Odd-weight shapes carry a quadratic nebentypus whose conductor the
    tables do not pin down, so only coprime multiplicativity is checked
    for them and the recursion is reported as skipped.  The body is read
    once as integer numerators over one denominator, so every comparison
    is between ints.  A bound below 6 would compare no coprime pair and
    pass vacuously, so it is refused.
    """
    if bound < 6:
        raise BoundTooSmall(f"bound {bound} reaches no coprime pair; the first is 2*3 = 6")
    eta_g = mason_eta(g, bound)
    if eta_g.offset != 1:
        raise SumNot24(f"eta-product of {g} is not a q + O(q²) cusp expansion")

    # a(n) = A[n-1]/den: every comparison below is scaled by den to stay on ints
    big_a, den = _scaled(eta_g.body.coeffs, bound - 1)

    def a(n: int) -> int:
        return big_a[n - 1]

    violations = []
    pairs = 0
    for m in range(2, bound + 1):
        for n in range(m, bound // m + 1):
            if gcd(m, n) != 1:
                continue
            pairs += 1
            if a(m) * a(n) != den * a(m * n):
                violations.append(f"a({m})a({n}) != a({m*n})")

    recursion_checks = 0
    character_note = None
    w = g.weight
    if w.denominator == 1 and w % 2 == 0:
        pw = int(w) - 1
        for p in _primes_upto(prime_bound):
            if g.level % p == 0:
                continue
            r = 1
            while p ** (r + 1) <= bound:
                recursion_checks += 1
                lhs = den * a(p ** (r + 1))
                rhs = a(p) * a(p ** r) - p ** pw * den * a(p ** (r - 1))
                if lhs != rhs:
                    violations.append(f"Hecke recursion fails at p={p}, r={r}")
                r += 1
    else:
        character_note = "character route not checked (odd weight)"

    return HeckeReport(str(g), w, g.level, bound, prime_bound, pairs,
                       recursion_checks, character_note, tuple(violations))


def correspondence_report() -> List[dict]:
    """The 16-row correspondence table with computed arithmetic alongside
    the printed values, the rationality predicate, and frame-shape data."""
    shapes_by_order: Dict[int, List[str]] = {}
    for g in M24_SHAPES:
        shapes_by_order.setdefault(g.order, []).append(str(g))
    rows = []
    for n, cls, s, c, rho, key in CORRESPONDENCE_ROWS:
        fam = FAMILIES.get(key) if key else None
        row = {
            "N": n,
            "class": cls,
            "s": "free" if s is None else s,
            "c": c,
            "rho": rho,
            "epsilon": str(epsilon(n)),
            "epsilon_printed": str(PRINTED_EPSILON[n]),
            "iota": str(iota(n)),
            "iota_printed": PRINTED_IOTA[n],
            "iota_starred": n in STARRED_IOTA,
            "iota_matches": iota(n) == PRINTED_IOTA[n],
            "rational_type": rational_type(n),
            "frame_shapes": shapes_by_order.get(n, []),
            "family": key,
            "in_scope": key is not None,
        }
        if fam is not None:
            row["eta"] = fam.eta
            row["exponent"] = str(fam.exponent)
        rows.append(row)
    return rows
