#!/usr/bin/env python3
"""Sweep a range of ranks and tabulate stratification statistics.

Usage: python scripts/stratification_report.py [--n-min 2] [--n-max 20]
"""

import argparse
from collections import Counter

from adlv.gu import StratumClass, stratum_records


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-min", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=20)
    args = ap.parse_args()
    if args.n_min < 2:
        ap.error(f"--n-min must be at least 2, got {args.n_min}")
    if args.n_max < args.n_min:
        ap.error(f"--n-max must be at least --n-min ({args.n_min}), got {args.n_max}")

    header = f"{'n':>3} {'labels':>7} {'dl':>5} {'not_dl':>7} {'empty':>6} " \
             f"{'dim':>4} {'orbits':>7}  top strata"
    print(header)
    print("-" * len(header))
    for n in range(args.n_min, args.n_max + 1):
        records = stratum_records(n)  # one pass, in label order
        counts = Counter(rec.stratum_class for rec in records)
        dim = max(rec.dim for rec in records if rec.dim is not None)
        tops = [rec.label for rec in records if rec.dim == dim]
        print(f"{n:>3} {len(records):>7} {counts[StratumClass.DL]:>5} "
              f"{counts[StratumClass.NOT_DL]:>7} {counts[StratumClass.EMPTY]:>6} "
              f"{dim:>4} {len(tops):>7}  {','.join(f'({k},{l})' for k, l in tops)}")


if __name__ == "__main__":
    main()
