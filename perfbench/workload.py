"""One benchmark run of one workload, in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S [--trace]
    python3 perfbench/workload.py --self-test

Imports vercat from `src/` of the checkout this file sits in, repeats
whole passes of the workload until `--seconds` have been measured, checks
every answer against `expected.json`, and prints one JSON object as its
last line of output.  With `--trace` it runs a single pass with the layer
tracer installed and adds the per-layer metrics.  `perfbench/run.py`
starts this file; it is not meant to be called by hand except for the
self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import vercat  # noqa: E402
from vercat import cli, invariants, svec2, verlinde  # noqa: E402
from vercat.verlinde import VerObject  # noqa: E402

TABLE_P = 11
FOURTH_POWER_NAMES = (
    "d_square_zero",
    "d_of_fourth_power",
    "fourth_power_central",
    "product_fourth_power",
    "sum_fourth_power",
    "square_rule",
)


# ---------------------------------------------------------------------------
# workloads: each takes a random.Random made from the seed and returns
# JSON-compatible answers
# ---------------------------------------------------------------------------


def run_verify(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--format", "json"])
    report = json.loads(buf.getvalue())
    return {"exit": code, "checks": report["checks"], "results": report["results"]}


def verify_all(rng: random.Random) -> dict:
    # the command users run, at verify's default seed: verify's own seed
    # picks the random objects of series-sum-product, and with them most
    # of the run time, so it is not varied here
    return run_verify(["verify", "--suite", "all"])


def sympow_table(rng: random.Random) -> dict:
    order = list(range(1, TABLE_P))
    rng.shuffle(order)
    table = {}
    for n in order:
        series = verlinde.sym_alg_series(
            VerObject.simple(TABLE_P, n), TABLE_P - n + 1
        )
        table[str(n)] = [list(d.mult) for d in series.degrees]
    return {"p": TABLE_P, "table": {k: table[k] for k in sorted(table, key=int)}}


def graded_arith(rng: random.Random) -> dict:
    seeds = [rng.randrange(2**31) for _ in range(4)]
    out = {}
    x = VerObject(11, (1, 1) + (0,) * 8)
    alg = invariants.build_invariant_algebra(x, 12)
    out["generator_degrees p=11 X=1+L2 D=12"] = invariants.generator_degrees(alg)
    selected, stabilized = invariants.module_finiteness_check(x, 12)
    out["module_generators p=11 X=1+L2 D=12"] = selected
    out["module_stabilized p=11 X=1+L2 D=12"] = stabilized
    out["isotypic_stability p=11 X=1+L2 D=12"] = (
        invariants.isotypic_stability_check(x, 12, 100, seeds[0])
    )
    alg7 = invariants.build_invariant_algebra(VerObject(7, (1, 1, 0, 0, 0, 0)), 14)
    out["frobenius p=7 X=1+L2 D=14"] = invariants.frobenius_check(alg7, 50, seeds[1])
    w = svec2.module_w()
    for label, mod, depth, seed in (
        ("W+1", svec2.direct_sum(w, svec2.trivial(1)), 12, seeds[2]),
        ("W+W", svec2.direct_sum(w, w), 8, seeds[3]),
    ):
        rep = svec2.fourth_power_checks(mod, depth, 200, seed)
        for name in FOURTH_POWER_NAMES:
            out[f"fourth_power {label} D={depth} {name}"] = rep[name]
    return json.loads(json.dumps(out))


WORKLOADS = {
    "verify-all": verify_all,
    "sympow-table": sympow_table,
    "graded-arith": graded_arith,
}


# ---------------------------------------------------------------------------
# correctness gates: (attempted, failed, first mismatches)
# ---------------------------------------------------------------------------


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(what)


def gate_verify(got: dict, want: dict) -> Gate:
    gate = Gate()
    gate.check(got["exit"] == want["exit"], f"exit {got['exit']}")
    by_name = {c["name"]: c for c in got["checks"]}
    for c in want["checks"]:
        gate.check(by_name.get(c["name"]) == c, f"check {c['name']}")
    for i, row in enumerate(want["results"]):
        ok = i < len(got["results"]) and got["results"][i] == row
        gate.check(ok, f"result row {i}")
    return gate


def gate_sympow_table(got: dict, want: dict) -> Gate:
    gate = Gate()
    p = want["p"]
    table = got["table"]
    for n, row in want["table"].items():
        for m, entry in enumerate(row):
            ok = n in table and m < len(table[n]) and table[n][m] == entry
            gate.check(ok, f"S^{m}(L{n}) against expected")
    for n in range(1, p):
        row = table.get(str(n), [])
        if n >= 2:
            # vanishing: S^(p-n+1)(L_n) = 0
            ok = len(row) == p - n + 2 and not any(row[p - n + 1])
            gate.check(ok, f"S^{p - n + 1}(L{n}) = 0")
        for m in range(min(len(row), p - 1)):
            # Hermite reciprocity: S^m(L_n) = S^(n-1)(L_(m+1))
            other = table.get(str(m + 1), [])
            ok = n - 1 < len(other) and other[n - 1] == row[m]
            gate.check(ok, f"S^{m}(L{n}) = S^{n - 1}(L{m + 1})")
    return gate


def gate_graded(got: dict, want: dict) -> Gate:
    gate = Gate()
    for name, value in want.items():
        gate.check(got.get(name) == value, name)
    return gate


GATES = {
    "verify-all": gate_verify,
    "sympow-table": gate_sympow_table,
    "graded-arith": gate_graded,
}


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = load_expected()[name]
    fn = WORKLOADS[name]
    tracer = None
    if trace:
        from tracer import Tracer, metric_units

        tracer = Tracer()
        tracer.install()
        fn = tracer.wrap(f"workload.{name}", fn)
    walls = []
    attempted = failed = ops = 0
    mismatches: list[str] = []
    while True:
        rng = random.Random(seed)
        t0 = time.perf_counter()
        got = fn(rng)
        walls.append(time.perf_counter() - t0)
        gate = GATES[name](got, expected)
        attempted += gate.attempted
        failed += gate.failed
        mismatches += gate.mismatches
        ops = gate.attempted
        if trace or sum(walls) >= seconds:
            break
    out = {
        "wall_s": walls,
        "attempted": attempted,
        "failed": failed,
        "ops": ops,
        "mismatches": mismatches[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "vercat": vercat.__version__,
            "nproc": os.cpu_count(),
        },
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["units"] = metric_units()
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"spans-{name}.json.gz")
        tracer.dump(path, {"workload": name, "seed": seed})
        out["spans_file"] = os.path.relpath(path, ROOT)
    return out


# ---------------------------------------------------------------------------
# self-test: the gates pass a right answer and catch wrong ones
# ---------------------------------------------------------------------------


def self_test() -> dict:
    expected = load_expected()
    small = ["verify", "--suite", "fusion", "--p-max", "5"]
    want_small = expected["verify-fusion-p5"]
    table = expected["sympow-table"]
    bad_want = json.loads(json.dumps(table))
    bad_want["table"]["4"][3][0] += 1
    bad_got = json.loads(json.dumps(table))
    bad_got["table"]["6"][2] = bad_got["table"]["6"][3]
    controls = {
        "verify fusion p<=5": (gate_verify(run_verify(small), want_small), False),
        "verify fusion p<=5 --mutate drop-pr-bound": (
            gate_verify(run_verify(small + ["--mutate", "drop-pr-bound"]), want_small),
            True,
        ),
        "sympow-table stored answers": (gate_sympow_table(table, table), False),
        "sympow-table perturbed expected entry": (
            gate_sympow_table(table, bad_want),
            True,
        ),
        "sympow-table perturbed computed entry": (
            gate_sympow_table(bad_got, table),
            True,
        ),
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    from tracer import metric_units

    report = {"BENCHMARK.json lists every traced metric": {"behaves": listed == metric_units()}}
    for label, (gate, should_fail) in controls.items():
        report[label] = {
            "attempted": gate.attempted,
            "failed": gate.failed,
            "behaves": (gate.failed > 0) == should_fail,
        }
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.abspath(vercat.__file__).startswith(SRC + os.sep):
        print(f"error: vercat imported from {vercat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        report = self_test()
        print(json.dumps(report, indent=1))
        return 0 if all(r["behaves"] for r in report.values()) else 1
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
