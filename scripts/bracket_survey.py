#!/usr/bin/env python3
"""Sweep the generator bracket over a degree window, then print the
recorded rescale factors and the solved central scalars.  Useful for
exploring how the comparison table changes with the truncation."""

import argparse
import time

from ellwall.fock.verify import bracket_sweep
from ellwall.serialize import to_json


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--truncation", type=int, default=6)
    ap.add_argument("--a-range", type=int, default=1, help="slope window |a|,|c| <= this")
    ap.add_argument("--b-range", type=int, default=2, help="degree window |b|,|d| <= this")
    ap.add_argument("--json", help="dump the full summary document here")
    args = ap.parse_args()
    if args.a_range < 0 or args.b_range < 0:
        ap.error("--a-range and --b-range must be >= 0")
    if args.truncation < max(0, 2 * args.b_range):
        # a bracket of two degree -b_range operands lowers the energy by 2 b_range
        ap.error(f"--truncation must be >= 0 and >= 2 * --b-range, got {args.truncation}")

    start = time.perf_counter()
    summary = bracket_sweep(args.truncation, a_range=args.a_range, b_range=args.b_range)
    elapsed = time.perf_counter() - start

    print(f"instances: {summary.instances}   matches: {summary.matches}   "
          f"({elapsed:.1f}s at truncation {args.truncation})")
    if summary.mismatches:
        print(f"MISMATCHES: {len(summary.mismatches)} (showing first)")
        print(to_json(summary.mismatches[0].to_json_dict()))
    print("rescale factors by target root space:")
    for key, factor in sorted(summary.rescales.items()):
        print(f"  {key}: {factor}")
    print("central scalars by ordered label pair:")
    for pair, info in sorted(summary.central.items()):
        print(f"  {pair}: {info}")
    if summary.rescale_conflicts:
        print("CONFLICTS:", summary.rescale_conflicts)

    if args.json:
        with open(args.json, "w") as fh:
            fh.write(to_json(summary.to_json_dict()) + "\n")
        print(f"summary written to {args.json}")


if __name__ == "__main__":
    main()
