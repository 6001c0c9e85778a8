#!/usr/bin/env python3
"""Dump the fibration graphs for a range of ranks as DOT and JSON files.

Usage: python scripts/export_graphs.py --out-dir out [--n-min 2] [--n-max 14]
"""

import argparse
import pathlib

from adlv.cli import classify_text


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--n-min", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=14)
    args = ap.parse_args()
    if args.n_min < 2:
        ap.error(f"--n-min must be at least 2, got {args.n_min}")
    if args.n_max < args.n_min:
        ap.error(f"--n-max must be at least --n-min ({args.n_min}), got {args.n_max}")

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n in range(args.n_min, args.n_max + 1):
        for fmt in ("dot", "json"):
            (out / f"strata_n{n}.{fmt}").write_text(classify_text(n, fmt))
        print(f"n={n}: wrote strata_n{n}.dot and strata_n{n}.json")


if __name__ == "__main__":
    main()
