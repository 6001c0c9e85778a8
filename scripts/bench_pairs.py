#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in alternating pairs.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload emptiness_oracle
           [--pairs 10] [--seconds 8] [--seed 1000]

PARENT and CHANGE are the roots of two checkouts.  Pair i runs
`python3 bench/run.py --workload W --seed S+i --seconds T --trace 0` once in
each checkout, one run at a time, the parent first in even pairs and the
change first in odd ones, so a drift of the host's speed falls on both sides.
Each run's last output line is its result object.

It first prints two facts the metrics do not show: whether the runs write
a bytecode cache (not when PYTHONDONTWRITEBYTECODE is set, which the runs
inherit; then every run compiles the package) and each checkout's
`src/adlv/*.py` line count.

For every end-to-end metric of CHANGE's BENCHMARK.json it prints each side's
median and quartiles, the number of pairs the change wins (strictly better in
the metric's direction), and whether a gain claim holds: the change wins at
least 9 in 10 pairs, and its median is better than the parent's by more than
the parent's interquartile range.  A run that fails (bench/run.py exits
nonzero) is reported with its side, seed and last line of stderr, and the
series goes on; a pair with a failed run is left out of every verdict.  The
exit code is 0 when every run finished and answered correctly, 1 otherwise,
and 1 with no table when fewer than two complete pairs remain.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # a claim needs at least 9 wins in 10 pairs
SIDES = ("parent", "change")


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The pair comparison of one metric: runs paired by index, ``better``
    'lower' or 'higher'.  ``parent`` and ``change`` in the result are each
    side's first quartile, median and third quartile (statistics' default,
    exclusive method, which reads a wider spread from few runs); ``claim``
    is whether a gain claim holds."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least two runs")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    gain = sign * (cq[1] - pq[1])
    return {"parent": pq, "change": cq, "wins": wins, "pairs": len(parent),
            "gain": gain, "parent_iqr": pq[2] - pq[0],
            "claim": wins >= math.ceil(WIN_SHARE * len(parent)) and gain > pq[2] - pq[0]}


def header(parent: Path, change: Path) -> list[str]:
    """The bytecode-cache and source-size lines printed before the pairs."""
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    cache = f"not written (PYTHONDONTWRITEBYTECODE={flag})" if flag else "written and reused"
    size = {root: sum(len(path.read_text().splitlines())
                      for path in (root / "src" / "adlv").glob("*.py"))
            for root in (parent, change)}
    return [f"# bytecode cache of the runs: {cache}",
            f"# src/adlv/*.py lines: parent {size[parent]}, change {size[change]}"]


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``root``: its result object, or, when
    the run fails, ``error`` (the last line of its stderr) and not ``correct``."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        lines = out.stderr.strip().splitlines() or [f"exit code {out.returncode}"]
        return {"error": lines[-1], "correct": False}
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error(f"--pairs must be at least 2, got {args.pairs}")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    print("\n".join(header(args.parent, args.change)), flush=True)

    pairs = []  # one {side: result object} per pair
    for i in range(args.pairs):
        seed = args.seed + i
        pair = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            root = args.parent if side == "parent" else args.change
            pair[side] = run = run_bench(root, args.workload, seed, args.seconds)
            if "error" in run:
                print(f"# {side} run failed (seed {seed}): {run['error']}", flush=True)
        pairs.append(pair)
        print(f"# pair {i + 1}/{args.pairs} seed {seed} done", flush=True)

    complete = [pair for pair in pairs if not any("error" in run for run in pair.values())]
    crashed = {side: sum("error" in pair[side] for pair in pairs) for side in SIDES}
    print(f"# {args.workload}: {len(complete)} complete of {args.pairs} pairs of "
          f"{args.seconds:g} s runs, seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"# failed runs: parent {crashed['parent']}, change {crashed['change']}")
    if len(complete) < 2:
        print("# fewer than 2 complete pairs: no verdict")
        return 1
    print(f"{'metric':<12} {'parent q1 / p50 / q3':>30} {'change q1 / p50 / q3':>30} "
          f"{'wins':>6} {'change':>8} claim")
    for metric in metrics:
        name = metric["name"]
        got = verdict(*([pair[side]["metrics"][name]["value"] for pair in complete]
                        for side in SIDES), metric["better"])
        (p1, p2, p3), (c1, c2, c3) = got["parent"], got["change"]
        print(f"{name:<12} {p1:>9.4g} / {p2:>9.4g} / {p3:>9.4g}"
              f" {c1:>9.4g} / {c2:>9.4g} / {c3:>9.4g}"
              f" {got['wins']:>3}/{got['pairs']:<2} {(c2 - p2) / p2:>+8.1%} "
              f"{'holds' if got['claim'] else 'no'}")
    failed = {side: sum(pair[side].get("failed", 0) for pair in pairs) for side in SIDES}
    print(f"# failed requests: parent {failed['parent']}, change {failed['change']}")
    return 0 if all(run["correct"] for pair in pairs for run in pair.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
