"""One pass of a benchmark workload in this interpreter, with exact checks.

    python3 perfbench/workloads.py battery --order 60 [--trace SPANS.json]
    python3 perfbench/workloads.py periods --seed 7 --order 100 [--trace ...]
    python3 perfbench/workloads.py modular --seed 7 --order 210 [--trace ...]

Prints one JSON line: the pass's work time (imports excluded), the items
attempted and failed with a reason per failure, the hit and miss counts of
the Hauptmodul route caches and, with --trace, the span summary.

`battery` runs the `gfano verify --family ALL --json` command through
`cli.main` with the process pool forced down to one worker; its output is
returned for the caller to compare with the recorded digest.  `periods`
and `modular` call the library directly, as a script using gfano would;
their items are built from the seed and each is checked exactly here.
The pooled battery, as users run it, is started by run.py as
`python3 -m gfano.cli` and never enters this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gfano  # noqa: E402
from gfano import cli, mathieu, periods, verify  # noqa: E402
from spans import Tracer, install  # noqa: E402

#: Random D3 operators per periods pass, and mirror-map spot checks per label.
RANDOM_OPERATORS = 4
LAGRANGE_SPOTS = 2


def same(a, b) -> bool:
    """Same truncation order and the same coefficients (stricter than ==)."""
    return a.order == b.order and a.coeffs == b.coeffs


# -- periods -------------------------------------------------------------------


def periods_items(seed: int) -> list:
    """Every family, one seeded shift per family with a D3 operator, and
    seeded random operators, in seeded order.  Shifts and operator
    coefficients are drawn from fixed small ranges, so the work per pass
    hardly depends on the seed."""
    rng = random.Random(seed)
    items = [("family", key) for key in gfano.FAMILIES]
    for key, fam in gfano.FAMILIES.items():
        if fam.d3_operator:
            items.append(("shift", key, rng.choice((-3, -2, -1, 1, 2, 3))))
    for _ in range(RANDOM_OPERATORS):
        b = (rng.randint(1, 9), rng.randint(1, 120), rng.randint(1, 40),
             rng.randint(-200, 200), rng.randint(-400, 400))
        items.append(("operator", b))
    rng.shuffle(items)
    return items


def family_failures(key: str, i_series, g_series, solution, order: int) -> list:
    """Exact checks of one family's I- and G-series.

    `solution` is the holomorphic solution of the family's D3 operator, or
    None for X6 and the index-2 families, which are checked by the X6
    coefficient recurrence and by the t -> t² relation instead.
    """
    bad = []
    if i_series.order != order or i_series.coeffs[0] != 1:
        bad.append("I is not a unit series of the requested order")
    if g_series is not None and (g_series.order != order
                                 or g_series.coeffs[:2] != (1, 0)):
        bad.append("G does not start 1 + 0 t")
    if solution is not None and not same(gfano.normalize(i_series), solution):
        bad.append("normalize(I) != holomorphic_solution(L)")
    if key == "X6":
        a = i_series.coeffs
        for n in range(1, order + 1):
            if a[n] * n ** 3 != 8 * (6 * n - 1) * (6 * n - 3) * (6 * n - 5) * a[n - 1]:
                bad.append(f"X6 coefficient recurrence fails at t^{n}")
                break
    if key in periods.EVEN_REDUCTION:
        base = periods.iseries(periods.EVEN_REDUCTION[key], order // 2).coeffs
        even = i_series.coeffs
        if even[::2] != base or any(even[1::2]):
            bad.append(f"{key} != {periods.EVEN_REDUCTION[key]}(t^2)")
    return bad


def run_periods(seed: int, order: int, tracer):
    """Yield (item, failures) for each periods item."""
    series, normalized = {}, {}

    def iseries(key):
        if key not in series:
            series[key] = gfano.iseries(key, order)
        return series[key]

    for item in periods_items(seed):
        kind, key = item[0], item[1]
        if tracer is not None:
            tracer.item = f"{kind}:{key}"
        try:
            if kind == "family":
                fam = gfano.FAMILIES[key]
                i_series = iseries(key)
                g_series = None if key == "Y28" else gfano.gseries(key, order)
                solution = None
                if fam.d3_operator:
                    op = gfano.OPERATORS[fam.d3_operator]
                    solution = gfano.holomorphic_solution(op, order)
                bad = family_failures(key, i_series, g_series, solution, order)
            elif kind == "shift":
                s = item[2]
                i_series = iseries(key)
                if key not in normalized:
                    normalized[key] = gfano.normalize(i_series)
                shifted = gfano.regular_shift(i_series, s)
                bad = []
                if shifted.coeffs[1] != i_series.coeffs[1] + s:
                    bad.append(f"regular_shift(I, {s}) has the wrong linear term")
                if not same(gfano.normalize(shifted), normalized[key]):
                    bad.append(f"normalize(regular_shift(I, {s})) != normalize(I)")
            else:
                op = gfano.D3Operator(*key)
                f = gfano.holomorphic_solution(op, order)
                image = gfano.apply_operator(op, f)
                bad = []
                if f.order != order or f.coeffs[0] != 1:
                    bad.append("solution is not a unit series of the order")
                if image.order != order or any(image.coeffs):
                    bad.append("apply_operator(op, holomorphic_solution(op)) != 0")
        except Exception as exc:  # an exception is a failed item, not a crash
            bad = [f"{type(exc).__name__}: {exc}"]
        yield item, bad


# -- modular -------------------------------------------------------------------


def modular_items(seed: int, bound: int) -> list:
    """Hecke checks to the bound on the 28 M24/S24 cusp-form shapes and the
    six mirror maps to a sixth of it, each map with seeded Lagrange spot
    indices, in seeded order."""
    rng = random.Random(seed)
    mirror_order = bound // 6
    items = [("hecke", str(g)) for g in mathieu.M24_SHAPES + mathieu.S24_EXTRA_SHAPES]
    for label in sys.modules["gfano.hauptmodul"].LABELS:
        spots = tuple(sorted(rng.sample(range(2, mirror_order + 1), LAGRANGE_SPOTS)))
        items.append(("mirror", label, spots))
    rng.shuffle(items)
    return items


def mirror_failures(q, h, order: int, spots) -> list:
    """q(t) = reverse(1/H) must be t + O(t²), integral, and agree with the
    Lagrange formula [tⁿ] q = (1/n) [q^{n-1}] B^n, where H = B/q."""
    bad = []
    if q.order != order or q.coeffs[:2] != (0, 1):
        bad.append("mirror map is not t + O(t^2) at the requested order")
    if any(c.denominator != 1 for c in q.coeffs):
        bad.append("mirror map is not integral")
    for n in spots:
        if q.coeffs[n] * n != (h.body.truncate(n - 1) ** n).coeffs[n - 1]:
            bad.append(f"Lagrange coefficient t^{n} differs")
    return bad


def run_modular(seed: int, bound: int, tracer):
    """Yield (item, failures) for each modular item."""
    mirror_order = bound // 6
    for item in modular_items(seed, bound):
        kind, key = item[0], item[1]
        if tracer is not None:
            tracer.item = f"{kind}:{key}"
        try:
            if kind == "hecke":
                report = gfano.hecke_eigenform_check(gfano.FrameShape.parse(key),
                                                     bound=bound)
                bad = [] if report.ok else list(report.violations) or ["not ok"]
                if report.bound != bound or report.multiplicative_pairs == 0:
                    bad.append("Hecke check did not cover the bound")
            else:
                h = gfano.hauptmodul(key, order=mirror_order)
                q = gfano.mirror_map(h, mirror_order)
                bad = mirror_failures(q, h, mirror_order, item[2])
        except Exception as exc:  # an exception is a failed item, not a crash
            bad = [f"{type(exc).__name__}: {exc}"]
        yield item, bad


# -- battery -------------------------------------------------------------------


def run_battery(order: int) -> tuple:
    """`gfano verify --family ALL --order K --json` through cli.main, with
    verify_all forced to one worker.  Returns (exit code, stdout text)."""
    pooled = verify.verify_all

    def sequential(order, workers=1):
        return pooled(order, workers=1)

    verify.verify_all = sequential
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--family", "ALL", "--order", str(order), "--json"])
    return code, out.getvalue()


# -- pass ----------------------------------------------------------------------


def cache_counts() -> dict:
    """[hits, misses] of the Hauptmodul route caches, which are keyed by
    label and order."""
    module = sys.modules["gfano.hauptmodul"]
    return {f"hauptmodul.{name}": [getattr(module, name).cache_info().hits,
                                   getattr(module, name).cache_info().misses]
            for name in ("_eta_route", "_identity_route")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("battery", "periods", "modular"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--order", type=int, required=True)
    parser.add_argument("--trace", help="record spans and write them here")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)

    result = {"workload": args.workload, "order": args.order, "seed": args.seed}
    start = time.perf_counter()
    if args.workload == "battery":
        code, text = run_battery(args.order)
        result["work_s"] = time.perf_counter() - start
        result.update(exit_code=code, output=text)
    else:
        run = run_periods if args.workload == "periods" else run_modular
        attempted, failed, failures = 0, 0, []
        for item, bad in run(args.seed, args.order, tracer):
            attempted += 1
            failed += bool(bad)
            failures += [f"{item[0]} {item[1]}: {b}" for b in bad]
        result["work_s"] = time.perf_counter() - start
        result.update(attempted=attempted, failed=failed, failures=failures)
    result["caches"] = cache_counts()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
