"""vercat benchmark: times and checks the paper's computations end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout (the directory holding `src/`).
Workloads:

  verify-all    `vercat verify --suite all`, every suite and layer at once
  sympow-table  S(L_n) in Ver_11 to depth 12-n for every n, n in seeded order
  graded-arith  products in built towers: invariant algebra reports at
                p = 11 and p = 7, sVec_2 fourth-power identities

With `--trace 0` the run measures set-up time (median of eight fresh
interpreters importing vercat and building the CLI parser, half of them
before the workload and half after it), repeats whole passes of the
workload in one fresh child process until `--seconds` have been measured,
and reports the median pass time, the child's peak resident memory and
the number of answers checked per pass.  With `--trace 1` it runs one
untraced pass and then one traced pass, each in a child of its own, and
reports per-layer call counts, self times and work counters together
with the tracing overhead.  Every answer is compared with
`perfbench/expected.json`.  The last line of output is one JSON object;
the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify-all", "sympow-table", "graded-arith")
SETUP_STARTS = 8
DEADLINE_S = 170.0
SETUP_CODE = (
    "import time, vercat.cli; vercat.cli.build_parser(); print(time.monotonic_ns())"
)


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], deadline: float) -> str:
    """Run cmd to completion in ROOT and return its standard output."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise ChildFailed("out of time before starting " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=left,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"timed out: {' '.join(cmd[1:3])}") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"exit {proc.returncode}: {' '.join(cmd[1:3])}")
    return proc.stdout


def setup_times(deadline: float, starts: int, warm_up: bool) -> list[float]:
    """Seconds from a fresh interpreter to vercat imported and the CLI parser
    built, once per start; a warm-up start only fills caches and is dropped."""
    times = []
    for i in range(starts + warm_up):
        t0 = time.monotonic_ns()
        out = run_child([sys.executable, "-c", SETUP_CODE], deadline)
        if i or not warm_up:
            times.append((int(out.split()[-1]) - t0) / 1e9)
    return times


def workload_child(args, deadline: float, trace: bool, seconds: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
    ]
    if trace:
        cmd.append("--trace")
    return json.loads(run_child(cmd, deadline).splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out or None


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        # one untraced and one traced pass: their difference is the overhead
        plain = workload_child(args, deadline, trace=False, seconds=0)
        traced = workload_child(args, deadline, trace=True, seconds=0)
        untraced_wall = statistics.median(plain["wall_s"])
        metrics = {
            name: {"value": value, "unit": traced["units"][name]}
            for name, value in traced["layers"].items()
        }
        extra = {
            "trace.wall_s": traced["wall_s"][0],
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced["wall_s"][0] - untraced_wall,
        }
        for name, value in extra.items():
            metrics[name] = {"value": value, "unit": "s"}
        runs = [plain, traced]
    else:
        # half the set-up starts before the workload and half after, so one
        # slow spell of a shared machine does not set the median alone
        setup = setup_times(deadline, SETUP_STARTS // 2, warm_up=True)
        plain = workload_child(args, deadline, trace=False, seconds=args.seconds)
        setup += setup_times(deadline, SETUP_STARTS // 2, warm_up=False)
        metrics = {
            "wall_s": {"value": statistics.median(plain["wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MiB"},
            "ops": {"value": plain["ops"], "unit": "count"},
        }
        runs = [plain]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        **runs[-1]["env"],
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "passes": [len(r["wall_s"]) for r in runs],
        "mismatches": [m for r in runs for m in r["mismatches"]],
        "spans_file": runs[-1].get("spans_file"),
    }
    return info, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "vercat", "cli.py")):
        print(f"error: no vercat sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--self-test"]
            return subprocess.run(
                cmd, cwd=ROOT, env=child_env(), timeout=DEADLINE_S
            ).returncode
        if args.workload is None:
            ap.error("--workload is required")
        info, result = measure(args)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
