"""Shows that the benchmark's correctness gate fires on a wrong expected value.

    python3 perfbench/gate_check.py

For each workload the check used by run.py is given the right expected
value, which must pass, and then a wrong one, which must be counted as a
failure.  Exits 0 when every case behaves so, 1 otherwise.  Runs at small
orders and takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run
import workloads
from workloads import gfano


def battery_cases():
    order = 30
    code, text = workloads.run_battery(order)
    want = run.load_expected()["battery"][str(order)]
    wrong_report = dict(want, reports=list(want["reports"]))
    wrong_report["reports"][3] = "0" * 64
    wrong_report["sha256"] = "0" * 64
    payload = json.loads(text)
    payload["reports"][8]["status"] = "FAIL"
    altered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    yield "battery: recorded digest", run.battery_failures(text, code, want), False
    yield "battery: wrong recorded digest", run.battery_failures(text, code, wrong_report), True
    yield "battery: one report changed", run.battery_failures(altered, code, want), True
    yield "battery: non-zero exit", run.battery_failures(text, 1, want), True


def periods_cases():
    order = 30
    i_series = gfano.iseries("Y24", order)
    g_series = gfano.gseries("Y24", order)
    right = gfano.holomorphic_solution(gfano.OPERATORS["L12"], order)
    wrong = gfano.holomorphic_solution(gfano.OPERATORS["L10"], order)
    yield "periods: Y24 against L12", workloads.family_failures(
        "Y24", i_series, g_series, right, order), False
    yield "periods: Y24 against L10", workloads.family_failures(
        "Y24", i_series, g_series, wrong, order), True
    x6 = gfano.iseries("X6", order)
    bumped = gfano.TruncatedSeries(x6.coeffs[:7] + (x6.coeffs[7] + 1,) + x6.coeffs[8:])
    yield "periods: X6 recurrence", workloads.family_failures(
        "X6", x6, None, None, order), False
    yield "periods: X6 with t^7 off by one", workloads.family_failures(
        "X6", bumped, None, None, order), True


def modular_cases():
    order = 20
    h = gfano.hauptmodul("12A", order=order)
    q = gfano.mirror_map(h, order)
    spots = (5, 11)
    cs = list(q.coeffs)
    cs[11] += 1
    off = gfano.TruncatedSeries(cs, order)
    cs[11] -= Fraction(1, 2)
    half = gfano.TruncatedSeries(cs, order)
    yield "modular: 12A mirror map", workloads.mirror_failures(q, h, order, spots), False
    yield "modular: t^11 off by one", workloads.mirror_failures(off, h, order, spots), True
    yield "modular: t^11 not integral", workloads.mirror_failures(half, h, order, spots), True


def main() -> int:
    ok = True
    for cases in (battery_cases, periods_cases, modular_cases):
        for name, failures, should_fail in cases():
            fired = bool(failures)
            good = fired == should_fail
            ok &= good
            verdict = "fires" if fired else "passes"
            print(f"{'ok ' if good else 'BAD'} {name}: gate {verdict} {failures}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
