#!/usr/bin/env python3
"""Render the level-1 chamber pictures for a range of point counts and
write a small CSV index of wall/chamber growth next to them."""

import argparse
import csv
from pathlib import Path

from ellwall.walls import WallChart, emit_chamber_svg


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--outdir", type=Path, default=Path("wall_gallery"))
    args = ap.parse_args()
    if args.n_max < 1:
        ap.error(f"--n-max must be >= 1, got {args.n_max}")
    chart = WallChart("A-1")
    decs = [chart.decomposition(n) for n in range(1, args.n_max + 1)]
    try:
        svgs = [emit_chamber_svg(dec) for dec in decs]
    except ValueError as exc:
        ap.error(str(exc))
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        ap.error(f"cannot write {args.outdir}: {exc.strerror}")
    rows = []
    for n, dec, svg in zip(range(1, args.n_max + 1), decs, svgs):
        target = args.outdir / f"chambers_n{n:02d}.svg"
        target.write_text(svg)
        rows.append((n, len(dec.walls), dec.chamber_count, dec.degenerate))
        print(f"n={n:2d}  walls={len(dec.walls):3d}  chambers={dec.chamber_count:3d}"
              f"  -> {target}")

    index = args.outdir / "index.csv"
    with index.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "walls", "chambers", "degenerate"])
        writer.writerows(rows)
    print(f"index written to {index}")


if __name__ == "__main__":
    main()
