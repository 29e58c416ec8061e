"""Command-line front end: verification batches, series dumps, tables.

    gfano verify   --family Y24 --order 60          exit 0 iff PASS
    gfano verify   --family ALL --json              the full identity battery
    gfano sweep    --family Y28 --sweep-range 0:3   free-shift sweep, c - s from the row
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
from typing import List

from . import periods, verify
from .periods import FAMILIES, UnknownFamily
from .series import normalize
from .verify import SCHEMA

#: Largest accepted --order.  The exact checks cost about the cube of the
#: order.  At order 500 on a 2-vCPU x86 VM one identity takes up to
#: about 1 s (CLI wall time, Python 3.11.7: Y30 0.95-1.4 s, Y24
#: 0.6-1.0 s) and the battery, pooled from POOL_MIN_ORDER up, about
#: 3-4 s; each doubling multiplies that by four to eight (Y30: 0.3 s at
#: order 250, 1.0-1.5 s at 500, 7.6 s at 1000).
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


def _order(text: str) -> int:
    """The --order type.  A range error is raised as SystemExit2, which
    argparse lets through, so it is reported before any work starts and
    in its own words rather than argparse's."""
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if order < 1:
        raise SystemExit2("--order must be >= 1")
    if order > MAX_ORDER:
        raise SystemExit2(
            f"--order {order} is above {MAX_ORDER}; the exact checks cost "
            "about order^3 (the battery takes some 3.5 s at order 500, four "
            "to eight times that per doubling)")
    return order


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(text_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit2(f"cannot write --out {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


# Each _cmd_* returns (payload fields, text lines, failing lines); `main`
# stamps the schema and command on the fields and writes them.


def _reports(reports) -> tuple:
    lines = []
    for r in reports:
        line = f"{r.status}  {r.name}  (order {r.order})"
        if not r.ok:
            n, lhs, rhs = r.first_mismatch
            line += f"  first mismatch at q^{n}: {lhs} != {rhs}"
        lines.append(line)
    failing = [line for r, line in zip(reports, lines) if not r.ok]
    return {"reports": [r.to_json() for r in reports]}, lines, failing


def _cmd_verify(args) -> tuple:
    if args.family == "ALL":
        if args.s is not None or args.c is not None:
            raise SystemExit2("--s/--c overrides need a single --family")
        if args.order > verify.CLASSICAL_MAX_ORDER:
            print(f"note: the E4 and Delta items are capped at order "
                  f"{verify.CLASSICAL_MAX_ORDER}", file=sys.stderr)
        workers = min(4, os.cpu_count() or 1) if args.order >= POOL_MIN_ORDER else 1
        return _reports(verify.verify_all(args.order, workers=workers))
    fam = periods.family(args.family)
    return _reports([verify.verify_identity(fam.key, args.s, args.c, args.order)])


def _cmd_sweep(args) -> tuple:
    lo, _, hi = args.sweep_range.partition(":")
    try:
        s_range = range(int(lo), int(hi) + 1)
    except ValueError:
        raise SystemExit2(f"bad --sweep-range {args.sweep_range!r}, expected A:B")
    if not s_range:
        raise SystemExit2(f"empty --sweep-range {args.sweep_range!r}: A must not exceed B")
    return _reports(verify.sweep_free_shift(args.family, s_range, args.order))


def _cmd_series(args) -> tuple:
    fam = periods.family(args.family)
    if args.kind == "iseries":
        series = periods.iseries(fam.key, args.order)
    elif args.kind == "gseries":
        series = periods.gseries(fam.key, args.order)
    else:
        series = normalize(periods.iseries(fam.key, args.order))
    fields = {"family": fam.key, "kind": args.kind, **series.to_json()}
    lines = [f"{fam.key} {args.kind} to order {args.order}:"]
    lines += [f"  t^{n}: {c}" for n, c in enumerate(series.coeffs)]
    return fields, lines, []


def _cmd_tables(args) -> tuple:
    # Imported here: only `tables` reads the Mathieu tables, so the other
    # commands neither compile nor run the module.
    from . import mathieu

    fm = mathieu.frobenius_mukai_check()
    correspondence = mathieu.correspondence_report()
    shape_lists = (
        ("m23", "M23 frame shapes:", mathieu.M23_SHAPES),
        ("m24_extra", "M24 extra frame shapes:", mathieu.M24_EXTRA_SHAPES),
        ("s24_extra", "S24 extra eigenform shapes:", mathieu.S24_EXTRA_SHAPES),
    )
    fields = {
        "correspondence": correspondence,
        "frobenius_mukai": {
            "entries": [e.to_json() for e in fm["entries"]],
            "exceptions": fm["exceptions"],
            "status": "PASS" if fm["ok"] else "FAIL",
        },
    }
    lines = []
    for key, title, shapes in shape_lists:
        fields[key] = [g.to_json() for g in shapes]
        lines.append(title)
        lines += [f"  {str(g):22s} order {g.order:2d}  level {g.level:3d}  weight {g.weight}"
                  for g in shapes]
    lines.append("correspondence table (N, class, s, c, rho, eps, iota, rational):")
    for row in correspondence:
        star = "*" if row["iota_starred"] else " "
        mark = "" if row["iota_matches"] else f"  [printed {row['iota_printed']}]"
        lines.append(
            f"  N={row['N']:2d} {row['class']:3s} s={row['s']!s:>4} c={row['c']:>4} "
            f"rho={row['rho']} eps={row['epsilon']:>4} iota={row['iota']:>4}{star}"
            f" {'rational' if row['rational_type'] else 'irrational'}{mark}"
        )
    return fields, lines, []


def _cmd_families(args) -> tuple:
    rows = [f.to_json() for f in FAMILIES.values()]
    lines = [
        f"{r['key']:6s} N={r['N']:2d} deg={r['degree']:2d} rho={r['rho']} "
        f"index={r['index']} s={r['s']!s:>4} c={r['c']!s:>4} g={r['g']:3s} "
        f"eta={r['eta']:3s} exponent={r['exponent']} d3={r['d3'] or '-'}"
        for r in rows
    ]
    return {"families": rows}, lines, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfano",
        description="Exact verification of the G-Fano mirror-modular identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keys = f"family key ({', '.join(FAMILIES)})"

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", help="write output to a file")

    def family_and_order(p, **family):
        p.add_argument("--family", **family)
        p.add_argument("--order", type=_order, default=60, help="truncation order K")
        common(p)

    p = sub.add_parser("verify", help="check the eta-product identities")
    family_and_order(p, default="ALL", help=keys + " or ALL")
    p.add_argument("--s", type=int, default=None, help="shift override")
    p.add_argument("--c", type=int, default=None, help="constant-term override")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "sweep", help="free-shift sweep, c - s from the family's row",
        description="Check the identity for each shift s in a range, with c - s "
                    "read from the family's row (Y28, Y30).  These families have "
                    "e = 1 and c - s = 1, so every s re-checks "
                    "the one identity F(1/H_1) = eta * H_1, with F the normalized "
                    "I-series.")
    family_and_order(p, required=True, help=keys)
    p.add_argument("--sweep-range", required=True, metavar="A:B",
                   help="inclusive integer shift range; write "
                        "--sweep-range=A:B when A is negative")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("series", help="dump a family's series")
    family_and_order(p, required=True, help=keys)
    p.add_argument("--kind", choices=("iseries", "gseries", "normalized"),
                   default="iseries")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("tables", help="frame-shape and correspondence tables")
    common(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("families", help="list the family registry")
    common(p)
    p.set_defaults(func=_cmd_families)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        fields, lines, failing = args.func(args)
        _emit(args, {"schema": SCHEMA, "command": args.command, **fields}, lines)
        if failing and not args.json:
            for line in failing:
                print(line, file=sys.stderr)
        return 1 if failing else 0
    except SystemExit as exc:
        # argparse exits 2 on bad usage already, 0 after --help
        return int(exc.code or 0)
    except UnknownFamily as exc:
        print(f"error: unknown family {exc}", file=sys.stderr)
        return 2
    except (SystemExit2, verify.NotFreeShift, periods.FreeShift) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
