"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

Checks that ``BENCHMARK.json`` names exactly the metrics ``run.py``
prints, with the same units, and that two profiled passes of each
workload with one seed count the same exact-arithmetic constructor
calls (``arith.*.new_calls``).  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END:
        print(f"end_to_end differs: {declared} != {run.END_TO_END}")
        ok = False
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if declared != run.PER_LAYER:
        print(f"per_layer differs: {sorted(set(declared) ^ set(run.PER_LAYER))}")
        ok = False

    for workload in workloads.WORKLOADS:
        probe = run.Run(workload, args.seed, 0)
        counts = []
        for _ in range(2):
            res = probe.child("profile")
            if res is None:
                print(f"{workload}: profiled pass failed: {probe.problems}")
                return 1
            counts.append({k: v for k, v in res["profile"].items() if k.endswith(".new_calls")})
        same = counts[0] == counts[1]
        ok &= same
        print(f"{workload}: {'repeat' if same else 'DIFFER'} {counts[0]}"
              + ("" if same else f" vs {counts[1]}"))
    print("selftest", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
