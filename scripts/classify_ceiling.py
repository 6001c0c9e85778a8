#!/usr/bin/env python3
"""Measure whole `adlv classify` runs, as the README's table reports them.

Usage: python scripts/classify_ceiling.py [--n 100 200]

For each rank and each of the formats json, dot and table, the command
`python -m adlv.cli classify --n N --format F` runs in a child process with
its output sent to /dev/null.  The child's own peak RSS comes from os.wait4,
its time from the parent's clock around it.  One row per run gives n, the
format, the seconds, the peak RSS in MB and the bytes the command writes.

A child's peak RSS counts the memory of the process that started it, so every
child runs before this process imports `adlv` to count those bytes.  The
children import the `adlv` package this script finds: run it with
PYTHONPATH=src or the package installed.
"""

import argparse
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

FORMATS = ("json", "dot", "table")


def child_env() -> dict:
    """This environment, with PYTHONPATH leading to the `adlv` package that
    this process finds, so that every child imports the same one."""
    spec = importlib.util.find_spec("adlv")  # locates the package, imports nothing
    if spec is None:
        raise SystemExit("adlv is not importable: run with PYTHONPATH=src")
    path = [str(Path(spec.origin).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def run_cli(argv: list[str], env: dict) -> tuple[float, float, int]:
    """Seconds, peak RSS (MB) and exit code of one `python -m adlv.cli`
    child, its output sent to /dev/null."""
    t0 = time.perf_counter()
    with open(os.devnull, "wb") as sink:
        proc = subprocess.Popen([sys.executable, "-m", "adlv.cli", *argv],
                                stdout=sink, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return seconds, usage.ru_maxrss / 1024, proc.returncode  # ru_maxrss is in KiB


def run(n: int, fmt: str, env: dict) -> tuple[float, float]:
    """Seconds and peak RSS (MB) of one `adlv classify` child."""
    seconds, peak_mb, code = run_cli(["classify", "--n", str(n), "--format", fmt], env)
    if code != 0:
        raise SystemExit(f"adlv classify --n {n} --format {fmt} exited {code}")
    return seconds, peak_mb


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, nargs="+", default=[100, 200])
    args = ap.parse_args()
    if min(args.n) < 2:
        ap.error(f"--n must be at least 2, got {min(args.n)}")

    env = child_env()
    runs = [(n, fmt, *run(n, fmt, env)) for n in args.n for fmt in FORMATS]

    from adlv.cli import classify_text
    print(f"{'n':>4} {'format':>6} {'seconds':>8} {'peak_MB':>8} {'bytes':>10}")
    for n, fmt, seconds, peak_mb in runs:
        size = len(classify_text(n, fmt).encode())
        print(f"{n:>4} {fmt:>6} {seconds:>8.3f} {peak_mb:>8.1f} {size:>10}")


if __name__ == "__main__":
    main()
