#!/usr/bin/env python3
"""Measure whole `adlv verify --suite oracle` runs: the oracle ceiling.

Usage: python scripts/oracle_ceiling.py [--n 40 60]

For each N the command `python -m adlv.cli verify --suite oracle --n-max N`
runs in a child process with its output sent to /dev/null.  The child's
peak RSS comes from os.wait4, its time from this process's clock around it.
One row per run gives N, the seconds, the peak RSS in MB and the exit code
(0: every rank checked, 1: a check failed, 3: a check was undecided).

The child runner is `classify_ceiling.py`'s, loaded from this directory.
The children import the `adlv` package this script finds: run it with
PYTHONPATH=src or the package installed.
"""

import argparse
import runpy
from pathlib import Path

_ceiling = runpy.run_path(str(Path(__file__).with_name("classify_ceiling.py")))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, nargs="+", default=[40, 60])
    args = ap.parse_args()
    if min(args.n) < 2:
        ap.error(f"--n must be at least 2, got {min(args.n)}")

    env = _ceiling["child_env"]()
    print(f"{'n_max':>5} {'seconds':>8} {'peak_MB':>8} {'exit':>4}")
    for n in args.n:
        seconds, peak_mb, code = _ceiling["run_cli"](
            ["verify", "--suite", "oracle", "--n-max", str(n)], env)
        print(f"{n:>5} {seconds:>8.3f} {peak_mb:>8.1f} {code:>4}", flush=True)


if __name__ == "__main__":
    main()
