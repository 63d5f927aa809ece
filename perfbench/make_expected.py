"""Write perfbench/expected.json: the answers every benchmark run is gated on.

    python3 perfbench/make_expected.py

Runs each workload once (seed 0) plus the small fusion verify that the
self-test mutates, and stores what the program answers.  The answers do
not depend on the seed: the seeds only choose the order of the table and
the random trials of checks whose expected outcome is fixed.  The stored
file was produced once, from the commit that added the benchmark, and is
not regenerated when the program changes: a change that alters an answer
must fail the gate.
"""

import json
import os
import random
import sys

from workload import HERE, WORKLOADS, run_verify


def main() -> int:
    expected = {name: fn(random.Random(0)) for name, fn in WORKLOADS.items()}
    expected["verify-fusion-p5"] = run_verify(
        ["verify", "--suite", "fusion", "--p-max", "5"]
    )
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
