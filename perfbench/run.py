"""The gfano benchmark: time to a verified answer, end to end and per layer.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from any directory; paths are taken relative to this file.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric
with its unit, quartiles and sample count, and the stamp (Python version,
nproc, platform, git commit, seed, orders).  The full result is also
written to perfbench/out/.

--trace 0 measures the workload as users run it.  Every pass is a fresh
interpreter, because gfano's lru_caches are keyed by order and would turn
a second pass in one process into cache hits; each `gfano` command is a
new process too.  Passes repeat until --seconds have gone by, and the
medians are reported:

    setup_s      wall time of `python3 -c "import gfano"` (median of several)
    wall_s       wall time of one pass, interpreter start-up included
    cpu_s        user + system time of the pass's whole process tree
                 (os.wait4, which folds in the pool workers the pass reaped)
    peak_rss_mb  largest resident set of any process in the pass
    fail_ratio   items with a wrong verdict, a wrong exact check or an
                 exception, over items attempted (printed; the JSON carries
                 it as `failed` and `attempted`)

--trace 1 is a separate, sequential (one pool worker), traced run.  It
covers all three workloads whatever --workload says, so that every layer
named below has a measured time: each traced function is called by at
least one workload, and most not by all three.  Each workload is traced at its order and at half of it, in fresh interpreters,
next to an untraced sequential pass of the same items.  For each function
in TRACED it reports `.calls`, `.self_s` (time minus child spans) and
`.total_s` (inclusive), summed over the workloads, and the self time of
each module layer.  It also reports

    <fn>.growth                 log2(total_s at K / total_s at K/2) for
                                compose, mul, pow_rational and reverse;
                                inclusive, because the first three spend
                                nearly all their time inside series.mul
    verify.coeffs_checked       Σ (order + 1) over the battery's reports,
                                so the E4/Delta cap at order 40 shows
    series.compose.max_bits     largest numerator/denominator bit length
                                among compose outputs
    hauptmodul.cache_hit_ratio  hits / (hits + misses) of _eta_route and
                                _identity_route
    verify.pool_speedup         untraced sequential battery wall time over
                                the pooled battery's (min(4, nproc) workers)
    trace.overhead_ratio        traced work time over untraced work time

and prints, per workload, how much of its sequential time the spans
account for.  Which layer metric should move which workload:

    series.compose, series.pow_rational,       battery wall_s and cpu_s;
    hauptmodul.solve_hauptmodul_from_identity  no change on the others
    periods.iseries, series.regular_shift, d3  periods; battery slightly
    qexp.eta_product, series.reverse, mathieu  modular
    series.mul                                 all three, through dense
                                               rationals (battery, periods)
                                               and sparse integers (modular)
    verify.pool_speedup                        battery wall_s only; its
                                               cost shows in cpu_s

The benchmark exits with status 2, printing no result, when the gfano
sources are not beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = os.path.join(HERE, "workloads.py")

#: Truncation order of each workload: the battery's `--order`, the periods
#: series order, and the modular Hecke bound (mirror maps to a sixth of it).
#: The traced run repeats each at half the order for the growth metrics.
ORDERS = {"battery": 60, "periods": 100, "modular": 210}

#: Fresh `import gfano` timings taken before each pass.
SETUP_PER_PASS = 3
MIN_PASSES = 3
#: Wall-clock budget of one run; a pass still going then is killed.
DEADLINE_S = 170

#: Functions whose call count, self time and inclusive time the traced run
#: reports.
TRACED = (
    "series.mul", "series.reciprocal", "series.compose", "series.reverse",
    "series.pow_rational", "series.pow_int", "series.regular_shift",
    "series.normalize",
    "qexp.eta_product", "qexp.klein_j", "qexp.eisenstein_e4",
    "d3.holomorphic_solution", "d3.apply_operator",
    "periods.iseries", "periods.gseries", "periods.check_even_substitution",
    "hauptmodul.hauptmodul", "hauptmodul.solve_hauptmodul_from_identity",
    "hauptmodul.inverse_hauptmodul", "hauptmodul.mirror_map",
    "verify.verify_identity", "verify.verify_kachru_vafa", "verify.verify_delta",
    "mathieu.mason_eta", "mathieu.hecke_eigenform_check",
)
LAYERS = ("series", "qexp", "d3", "periods", "hauptmodul", "verify", "mathieu", "cli")
GROWTH = ("series.compose", "series.mul", "series.pow_rational", "series.reverse")
ROUTE_CACHES = ("hauptmodul._eta_route", "hauptmodul._identity_route")


class BenchError(RuntimeError):
    """A pass could not be run or timed; the run ends without a result."""


# -- processes -----------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, deadline: float) -> dict:
    """Run argv to completion in its own process group and return its exit
    code, stdout, wall time, CPU time and peak RSS.

    os.wait4 reports the child's usage together with that of every
    descendant it waited for, so pool workers are included.  The whole
    group is killed if it outlives the deadline.
    """
    out_path = os.path.join(OUT, "pass.stdout")
    err_path = os.path.join(OUT, "pass.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(max(deadline - start, 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() >= deadline:
        raise BenchError(f"{' '.join(argv[1:3])} did not finish within {DEADLINE_S} s")
    with open(out_path) as fh:
        stdout = fh.read()
    if proc.returncode not in (0, 1):
        with open(err_path) as fh:
            raise BenchError(f"{argv[1:]} exited {proc.returncode}:\n{fh.read()[-2000:]}")
    return {"code": proc.returncode, "stdout": stdout, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024}


# -- correctness -----------------------------------------------------------------


def _digest(obj) -> str:
    data = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def battery_failures(text: str, code: int, expected: dict) -> list:
    """Indices of battery reports that differ from the recorded output.

    The whole output must match the recorded digest byte for byte; when it
    does not, each report is compared with its own recorded digest, so the
    failure count says how many checks changed.  A changed envelope or a
    non-zero exit with identical reports counts as one failure.
    """
    n = len(expected["reports"])
    if _digest(text) == expected["sha256"] and code == 0:
        return []
    try:
        reports = json.loads(text)["reports"]
    except (ValueError, KeyError, TypeError):
        return list(range(n))
    bad = [i for i, want in enumerate(expected["reports"])
           if i >= len(reports) or _digest(reports[i]) != want]
    return bad or [-1]


def battery_coeffs_checked(text: str) -> int:
    """Σ (order + 1) over the battery's reports, from their own order field."""
    return sum(r["order"] + 1 for r in json.loads(text)["reports"])


class Tally:
    """Items attempted and failed across every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def battery(self, text: str, code: int, order: int, expected: dict) -> None:
        want = expected["battery"][str(order)]
        bad = battery_failures(text, code, want)
        self.attempted += len(want["reports"])
        self.failed += len(bad)
        self.reasons += [f"battery order {order}: report {i} differs" for i in bad]

    def result(self, result: dict, expected: dict) -> None:
        """Count the items of one workloads.py pass."""
        if result["workload"] == "battery":
            self.battery(result["output"], result["exit_code"], result["order"],
                         expected)
        else:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.reasons += result["failures"]


# -- passes ----------------------------------------------------------------------


def pooled_battery(order: int, deadline: float) -> dict:
    """The battery as users run it: the CLI with its process pool."""
    return spawn([sys.executable, "-m", "gfano.cli", "verify", "--family", "ALL",
                  "--order", str(order), "--json"], deadline)


def sequential_pass(workload: str, seed: int, order: int, deadline: float,
                    trace: str | None = None) -> tuple:
    argv = [sys.executable, WORKLOADS, workload, "--seed", str(seed),
            "--order", str(order)]
    if trace:
        argv += ["--trace", trace]
    proc = spawn(argv, deadline)
    try:
        return proc, json.loads(proc["stdout"].strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"{workload} pass printed no result") from None


def e2e_pass(workload: str, seed: int, deadline: float, tally: Tally,
             expected: dict) -> dict:
    order = ORDERS[workload]
    if workload == "battery":
        proc = pooled_battery(order, deadline)
        tally.battery(proc["stdout"], proc["code"], order, expected)
    else:
        proc, result = sequential_pass(workload, seed, order, deadline)
        tally.result(result, expected)
    return proc


# -- statistics and output -----------------------------------------------------


def describe(values: list) -> dict:
    """Median, quartiles and sample count."""
    q = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "samples": len(values), "values": values}


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "orders": ORDERS}


def finish(args, tally: Tally, metrics: dict, details: dict) -> int:
    fail_ratio = tally.failed / tally.attempted
    print(f"stamp {json.dumps(stamp(args), sort_keys=True)}")
    for name, m in metrics.items():
        d = details.get(name)
        spread = (f"  p25 {d['p25']:.6g}  p75 {d['p75']:.6g}  n={d['samples']}"
                  if d else "")
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}{spread}")
    print(f"{'fail_ratio':<52} {fail_ratio:>14.6g} ratio  "
          f"({tally.failed} of {tally.attempted} items)")
    for reason in tally.reasons[:20]:
        print(f"FAILED {reason}")
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"stamp": stamp(args), "metrics": metrics, "samples": details,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.reasons}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


# -- the two kinds of run ----------------------------------------------------------


def end_to_end(args, deadline: float) -> tuple:
    expected = load_expected()
    tally = Tally()
    importer = [sys.executable, "-c", "import gfano"]
    spawn(importer, deadline)  # compiles the bytecode caches; not timed

    setup = []
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    start = time.perf_counter()
    while (len(samples["wall_s"]) < MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        # set-up is sampled between passes, so that both see the same spells
        # of a shared machine's speed
        setup += [spawn(importer, deadline)["wall_s"] for _ in range(SETUP_PER_PASS)]
        proc = e2e_pass(args.workload, args.seed, deadline, tally, expected)
        for key in samples:
            samples[key].append(proc[key])

    details = {"setup_s": describe(setup)}
    details.update({k: describe(v) for k, v in samples.items()})
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
    metrics = {k: {"value": details[k]["median"], "unit": u} for k, u in units.items()}
    return tally, metrics, details


def traced(args, deadline: float) -> tuple:
    """Per-layer metrics from one sequential traced pass of each workload at
    its order and at half of it, beside the untraced passes they are
    compared with."""
    expected = load_expected()
    tally = Tally()
    plain, runs = {}, {}
    for workload, order in ORDERS.items():
        # the untraced pass runs next to the traced one it is compared with
        plain[workload] = sequential_pass(workload, args.seed, order, deadline)
        tally.result(plain[workload][1], expected)
        if workload == "battery":
            pooled = pooled_battery(order, deadline)
            tally.battery(pooled["stdout"], pooled["code"], order, expected)
        for k in (order, order // 2):
            spans = os.path.join(OUT, f"spans-{workload}-{k}.json")
            _, runs[workload, k] = sequential_pass(workload, args.seed, k, deadline, spans)
            tally.result(runs[workload, k], expected)

    full = [runs[w, k]["trace"] for w, k in ORDERS.items()]
    half = [runs[w, k // 2]["trace"] for w, k in ORDERS.items()]

    def total(traces, field, name):
        return sum(t[field].get(name, 0) for t in traces)

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = {"value": total(full, "calls", name), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": total(full, "self_s", name), "unit": "s"}
        metrics[f"{name}.total_s"] = {"value": total(full, "total_s", name), "unit": "s"}
    for layer in LAYERS:
        value = sum(s for t in full for n, s in t["self_s"].items()
                    if n.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = {"value": value, "unit": "s"}
    for name in GROWTH:
        ratio = total(full, "total_s", name) / total(half, "total_s", name)
        metrics[f"{name}.growth"] = {"value": math.log2(ratio), "unit": "log2"}

    battery = runs["battery", ORDERS["battery"]]
    metrics["verify.coeffs_checked"] = {
        "value": battery_coeffs_checked(battery["output"]), "unit": "count"}
    metrics["series.compose.max_bits"] = {
        "value": max(t["compose_max_bits"] for t in full), "unit": "bits"}
    hits = sum(runs[w, k]["caches"][c][0] for w, k in ORDERS.items() for c in ROUTE_CACHES)
    misses = sum(runs[w, k]["caches"][c][1] for w, k in ORDERS.items() for c in ROUTE_CACHES)
    metrics["hauptmodul.cache_hit_ratio"] = {"value": hits / (hits + misses), "unit": "ratio"}
    metrics["verify.pool_speedup"] = {
        "value": plain["battery"][0]["wall_s"] / pooled["wall_s"], "unit": "ratio"}
    traced_work = sum(runs[w, k]["work_s"] for w, k in ORDERS.items())
    plain_work = sum(plain[w][1]["work_s"] for w in ORDERS)
    metrics["trace.overhead_ratio"] = {"value": traced_work / plain_work, "unit": "ratio"}

    for workload, order in ORDERS.items():
        r, t = runs[workload, order], runs[workload, order]["trace"]
        untraced = plain[workload][1]["work_s"]
        print(f"{workload} order {order}: {t['spans']} spans; their self times"
              f" sum to {t['traced_s']:.4f} s of the traced pass's {r['work_s']:.4f} s;"
              f" the untraced sequential pass takes {untraced:.4f} s"
              f" (overhead ratio {r['work_s'] / untraced:.4f})")
        for name in TRACED:
            if t["calls"].get(name):
                print(f"    {name:<44} {t['calls'][name]:>6} calls"
                      f" {t['self_s'][name]:>9.4f} s self"
                      f" {t['total_s'][name]:>9.4f} s inclusive")
    return tally, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(ORDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gfano", "__init__.py")):
        print(f"error: no gfano sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        run = traced if args.trace else end_to_end
        tally, metrics, details = run(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return finish(args, tally, metrics, details)


if __name__ == "__main__":
    raise SystemExit(main())
