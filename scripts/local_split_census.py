#!/usr/bin/env python3
"""Census of the jet-splitting locus: sample random cyclotomic bimodule
parameters per group order, record how often the order-n jet splits, and
cross-check every sample against the Jordan-type oracle."""

import argparse
import random

from ellwall.cyclotomic import Cyclotomic, cyclotomic_polynomial
from ellwall.localmodel import BimoduleParam, nilpotent_jordan_type, splits, y_matrix


def random_param(rng: random.Random, k: int) -> BimoduleParam:
    deg = len(cyclotomic_polynomial(k)) - 1
    return BimoduleParam(
        k,
        tuple(
            Cyclotomic(k, [rng.randint(-2, 2) for _ in range(deg)])
            for _ in range(k)
        ),
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--n-max", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.samples < 1:
        ap.error(f"--samples must be >= 1, got {args.samples}")
    if args.n_max < 0:
        ap.error(f"--n-max must be >= 0, got {args.n_max}")

    rng = random.Random(args.seed)
    print(f"seed: {args.seed}")
    print(f"{'k':>3} {'n':>3} {'split%':>8} {'oracle agreement':>18}")
    for k in (1, 2, 3, 4, 6):
        for n in range(args.n_max + 1):
            split = agree = 0
            for _ in range(args.samples):
                p = random_param(rng, k)
                s = splits(n, p)
                split += s
                jordan = nilpotent_jordan_type(y_matrix(n, p))
                agree += (jordan == (n + 1, n + 1)) == s
            print(f"{k:>3} {n:>3} {100 * split / args.samples:>7.1f}% "
                  f"{agree:>8}/{args.samples}")


if __name__ == "__main__":
    main()
