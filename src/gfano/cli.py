"""Command-line front end: verification batches, series dumps, tables.

    gfano verify   --family Y24 --order 60          exit 0 iff PASS
    gfano verify   --family ALL --json              the full identity battery
    gfano sweep    --family Y28 --sweep-range 0:3   free-shift sweep, c = s+1
    gfano series   --family Y30 --order 10 --json   I-series coefficients
    gfano tables                                    M23/M24/S24 + correspondence
    gfano families                                  the family registry

Exit codes: 0 all requested checks PASS, 1 any FAIL, 2 configuration error.
JSON output is deterministic: keys sorted, coefficients as reduced
fraction strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import mathieu, periods, verify
from .hauptmodul import UnknownLabel
from .periods import FAMILIES, UnknownFamily
from .series import normalize

SCHEMA = "gfano-report/1"

#: Largest accepted --order.  The exact checks cost about the cube of the
#: order.  At order 500 on a 2-vCPU x86 VM one identity takes about 1 s
#: (Y24) to 5 s (Y30, whose triple-sum I-series dominates), and the
#: battery, pooled from POOL_MIN_ORDER up, about 8 s; each doubling
#: multiplies that by six to twelve.
MAX_ORDER = 1000

#: Smallest --order at which `verify --family ALL` runs the battery in a
#: process pool; below it the battery runs in process.  The work grows
#: like the cube of the order, while the pool's import, forks and
#: pickling cost about the same at every order, so the pool wins only
#: once the items are long.  CLI wall time, pooled (2 workers) against in
#: process, alternating pairs on a 2-vCPU x86 VM with Python 3.11.7: the
#: pool won 0 of 42 pairs at order 60, 2/22 at 80, 2/22 at 100, 7/32 at
#: 120, 16/22 at 140, 31/32 at 160 and 32/32 at 200 (medians 0.63-0.77 s
#: against 0.86-1.13 s).
POOL_MIN_ORDER = 160


class SystemExit2(Exception):
    """Configuration error; turned into exit code 2."""


def _emit(payload, as_json: bool, out: Optional[str], text_lines) -> None:
    if as_json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(text_lines) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit2(f"cannot write --out {out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _report_lines(reports) -> List[str]:
    lines = []
    for r in reports:
        line = f"{r.status}  {r.name}  (order {r.order})"
        if not r.ok:
            n, lhs, rhs = r.first_mismatch
            line += f"  first mismatch at q^{n}: {lhs} != {rhs}"
        lines.append(line)
    return lines


def _cmd_verify(args) -> int:
    if args.family == "ALL":
        if args.s is not None or args.c is not None:
            raise SystemExit2("--s/--c overrides need a single --family")
        if args.order > verify.CLASSICAL_MAX_ORDER:
            print(f"note: the E4 and Delta items are capped at order "
                  f"{verify.CLASSICAL_MAX_ORDER}", file=sys.stderr)
        workers = min(4, os.cpu_count() or 1) if args.order >= POOL_MIN_ORDER else 1
        reports = verify.verify_all(args.order, workers=workers)
    else:
        fam = periods.family(args.family)
        reports = [verify.verify_identity(fam.key, args.s, args.c, args.order)]
    payload = {"schema": SCHEMA, "command": "verify",
               "reports": [r.to_json() for r in reports]}
    _emit(payload, args.json, args.out, _report_lines(reports))
    failing = [r for r in reports if not r.ok]
    if failing and not args.json:
        for line in _report_lines(failing):
            print(line, file=sys.stderr)
    return 1 if failing else 0


def _cmd_sweep(args) -> int:
    lo, _, hi = args.sweep_range.partition(":")
    try:
        s_range = range(int(lo), int(hi) + 1)
    except ValueError:
        raise SystemExit2(f"bad --sweep-range {args.sweep_range!r}, expected A:B")
    if not s_range:
        raise SystemExit2(f"empty --sweep-range {args.sweep_range!r}: A must not exceed B")
    reports = verify.sweep_free_shift(args.family, s_range, args.order)
    payload = {"schema": SCHEMA, "command": "sweep",
               "reports": [r.to_json() for r in reports]}
    _emit(payload, args.json, args.out, _report_lines(reports))
    return 1 if any(not r.ok for r in reports) else 0


def _cmd_series(args) -> int:
    fam = periods.family(args.family)
    if args.kind == "iseries":
        series = periods.iseries(fam.key, args.order)
    elif args.kind == "gseries":
        series = periods.gseries(fam.key, args.order)
    else:
        series = normalize(periods.iseries(fam.key, args.order))
    payload = {"schema": SCHEMA, "command": "series", "family": fam.key,
               "kind": args.kind, **series.to_json()}
    lines = [f"{fam.key} {args.kind} to order {args.order}:"]
    lines += [f"  t^{n}: {c}" for n, c in enumerate(series.coeffs)]
    _emit(payload, args.json, args.out, lines)
    return 0


def _cmd_tables(args) -> int:
    fm = mathieu.frobenius_mukai_check()
    correspondence = mathieu.correspondence_report()
    payload = {
        "schema": SCHEMA,
        "command": "tables",
        "m23": [g.to_json() for g in mathieu.M23_SHAPES],
        "m24_extra": [g.to_json() for g in mathieu.M24_EXTRA_SHAPES],
        "s24_extra": [g.to_json() for g in mathieu.S24_EXTRA_SHAPES],
        "correspondence": correspondence,
        "frobenius_mukai": {
            "entries": [e.to_json() for e in fm["entries"]],
            "exceptions": fm["exceptions"],
            "status": "PASS" if fm["ok"] else "FAIL",
        },
    }
    lines = ["M23 frame shapes:"]
    for g in mathieu.M23_SHAPES:
        lines.append(f"  {str(g):22s} order {g.order:2d}  level {g.level:3d}  weight {g.weight}")
    lines.append("M24 extra frame shapes:")
    for g in mathieu.M24_EXTRA_SHAPES:
        lines.append(f"  {str(g):22s} order {g.order:2d}  level {g.level:3d}  weight {g.weight}")
    lines.append("S24 extra eigenform shapes:")
    for g in mathieu.S24_EXTRA_SHAPES:
        lines.append(f"  {str(g):22s} order {g.order:2d}  level {g.level:3d}  weight {g.weight}")
    lines.append("correspondence table (N, class, s, c, rho, eps, iota, rational):")
    for row in correspondence:
        star = "*" if row["iota_starred"] else " "
        mark = "" if row["iota_matches"] else f"  [printed {row['iota_printed']}]"
        lines.append(
            f"  N={row['N']:2d} {row['class']:3s} s={row['s']!s:>4} c={row['c']:>4} "
            f"rho={row['rho']} eps={row['epsilon']:>4} iota={row['iota']:>4}{star}"
            f" {'rational' if row['rational_type'] else 'irrational'}{mark}"
        )
    _emit(payload, args.json, args.out, lines)
    return 0


def _cmd_families(args) -> int:
    payload = {"schema": SCHEMA, "command": "families",
               "families": [f.to_json() for f in FAMILIES.values()]}
    lines = []
    for f in FAMILIES.values():
        s = "free" if f.shift is None else f.shift
        c = "s+1" if f.constant is None else f.constant
        lines.append(
            f"{f.key:6s} N={f.N:2d} deg={f.degree:2d} rho={f.rho} index={f.index} "
            f"s={s!s:>4} c={c!s:>4} g={f.hauptmodul:3s} eta={f.eta:3s} "
            f"exponent={f.exponent} d3={f.d3_operator or '-'}"
        )
    _emit(payload, args.json, args.out, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfano",
        description="Exact verification of the G-Fano mirror-modular identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=True, all_families=False):
        if family:
            keys = "family key (X6, Y12_2, Y12_3, Y20, Y24, Y28, Y30, Y48_2, Y48_3)"
            if all_families:
                p.add_argument("--family", default="ALL", help=keys + " or ALL")
            else:
                p.add_argument("--family", required=True, help=keys)
        p.add_argument("--order", type=int, default=60, help="truncation order K")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", help="write output to a file")

    p = sub.add_parser("verify", help="check the eta-product identities")
    common(p, all_families=True)
    p.add_argument("--s", type=int, default=None, help="shift override")
    p.add_argument("--c", type=int, default=None, help="constant-term override")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "sweep", help="free-shift sweep with c = s+1",
        description="Check the identity for each shift s in a range with c = s+1 "
                    "(Y28, Y30).  These families have e = 1, so every s re-checks "
                    "the one identity F(1/H_1) = eta * H_1, with F the normalized "
                    "I-series.")
    common(p)
    p.add_argument("--sweep-range", required=True, metavar="A:B",
                   help="inclusive integer shift range")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("series", help="dump a family's series")
    common(p)
    p.add_argument("--kind", choices=("iseries", "gseries", "normalized"),
                   default="iseries")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("tables", help="frame-shape and correspondence tables")
    common(p, family=False)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("families", help="list the family registry")
    common(p, family=False)
    p.set_defaults(func=_cmd_families)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already
        return int(exc.code or 0)
    order = getattr(args, "order", 1)
    if order < 1:
        print("error: --order must be >= 1", file=sys.stderr)
        return 2
    if order > MAX_ORDER:
        print(f"error: --order {order} is above {MAX_ORDER}; the exact checks cost "
              "about order^3 (the battery takes some 8 s at order 500, six to "
              "twelve times that per doubling)", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (UnknownFamily, UnknownLabel) as exc:
        print(f"error: unknown family or label {exc}", file=sys.stderr)
        return 2
    except (SystemExit2, verify.NotFreeShift, periods.FreeShift) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
