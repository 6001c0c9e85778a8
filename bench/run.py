"""
The adlv benchmark: runs one workload and reports its metrics.

    python3 bench/run.py --workload classify_sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each measured pass runs every request of
the workload once, in a fresh worker interpreter (``worker.py``), one worker
at a time.  Passes are started until the next one would end after
``--seconds``; at least two always run (one untraced and traced pair when
tracing).  The requests of a pass are the same
for every seed; the seed and the pass index fix their order.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics from the traced
ones, plus ``tracing_overhead_s`` (traced minus untraced ``wall_s``).  The
traced spans are written to ``bench/out/``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record with run metadata goes to ``bench/out/`` too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("classify_sweep", "emptiness_oracle", "certify_search")

# set-up is short and noisy: before every pass, time it in this many extra
# set-up-only workers, beside the pass's own, and report the median
SETUP_SPAWNS = 2
# the host's speed drifts by tens of percent over seconds; two passes at
# least, so no run rests on a single pass
MIN_PASSES = 2
# a run ends within 180 s; stop waiting for a worker a little before that
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "req_per_s": "1/s", "req_p50_ms": "ms",
    "req_tail_ms": "ms", "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    """A worker died or ran out of time; the run has no valid result."""


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def spawn(cfg: dict, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its pass result."""
    t0 = time.perf_counter()
    # leaving the with-block waits for the worker, also after a kill
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                           json.dumps(cfg)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            raise WorkerError(f"worker ran past the {HARD_LIMIT_S:.0f} s limit")
        except BaseException:
            proc.kill()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker failed (exit code {proc.returncode})")
    if cfg.get("setup_only"):
        return setup, None
    return setup, json.loads(out.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run passes for ``seconds``; return the raw per-pass results."""
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    base = {"workload": workload, "seed": seed, "tiny": tiny}
    spawn({**base, "setup_only": True}, deadline)  # warm the bytecode cache
    setups, plain, traced = [], [], []
    first = time.perf_counter()
    while True:
        index = len(plain)
        if not trace:
            setups += [spawn({**base, "setup_only": True}, deadline)[0]
                       for _ in range(SETUP_SPAWNS)]
        setup, result = spawn({**base, "pass": index, "trace": 0}, deadline)
        setups.append(setup)
        plain.append(result)
        if trace:
            spans = OUT / f"{workload}-seed{seed}-pass{index}-spans.jsonl.gz"
            _, result = spawn({**base, "pass": index, "trace": 1,
                               "spans": str(spans)}, deadline)
            traced.append(result)
        now = time.perf_counter()
        per_round = (now - first) / len(plain)
        if (trace or len(plain) >= MIN_PASSES) and now - start + per_round > seconds:
            break
    return {"setups": setups, "plain": plain, "traced": traced}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of ``count`` requests
    beyond it; fixed by the size of the request set, so every run of a
    workload reports the same percentile."""
    return max(50, math.floor(100 * (1 - 10 / count)))


def end_to_end(raw: dict) -> tuple[dict[str, float], dict]:
    """A request's latency is its mean over the passes of the run.  On a
    shared 2-core VM one and the same 100 ms call was seen to vary by 25 %
    from one call to the next; a single sample per request would carry that
    straight into the percentiles."""
    passes = raw["plain"]
    samples: dict[int, list[float]] = {}
    for p in passes:
        for rid, x in zip(p["order"], p["latencies"]):
            samples.setdefault(rid, []).append(x)
    lat = sorted(statistics.fmean(v) for v in samples.values())
    pct = tail_percentile(len(lat))
    tail = lat[math.ceil(pct / 100 * len(lat)) - 1]
    metrics = {
        "setup_s": statistics.median(raw["setups"]),
        "wall_s": math.fsum(lat),
        "req_per_s": len(lat) / math.fsum(lat),
        "req_p50_ms": 1000 * statistics.median(lat),
        "req_tail_ms": 1000 * tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    info = {"passes": len(passes), "setups": len(raw["setups"]),
            "requests": len(lat), "tail_percentile": pct,
            "tail_beyond": sum(1 for x in lat if x > tail)}
    return metrics, info


def per_layer(raw: dict) -> dict[str, tuple[float, str]]:
    traced = raw["traced"]
    out: dict[str, tuple[float, str]] = {}
    for name in traced[0]["layers"]:
        for stat, unit in (("calls", "count"), ("total_s", "s"),
                           ("self_s", "s")):
            value = statistics.median(t["layers"][name][stat] for t in traced)
            out[f"{name}.{stat}"] = (value, unit)
    for name in traced[0]["search"]:
        unit = ("count" if name.endswith("nodes") else
                "ratio" if name.endswith("ratio") else "1/s")
        out[name] = (statistics.median(t["search"][name] for t in traced), unit)
    overhead = (statistics.fmean(sum(t["latencies"]) for t in traced)
                - statistics.fmean(sum(p["latencies"]) for p in raw["plain"]))
    out["tracing_overhead_s"] = (overhead, "s")
    return out


def counts(raw: dict) -> tuple[int, list]:
    passes = raw["plain"] + raw["traced"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return attempted, failures


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    src = ROOT / "src" / "adlv"
    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted(src.glob("*.py"))}
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def report(workload: str, seed: int, seconds: float, trace: bool,
           tiny: bool = False) -> dict:
    """Measure one run and return the final result object plus the record."""
    raw = measure(workload, seed, seconds, trace, tiny)
    attempted, failures = counts(raw)
    e2e, info = end_to_end(raw)
    layers = per_layer(raw) if trace else {}
    info["fail_ratio"] = len(failures) / attempted
    if trace:
        shown = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        shown = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                 for name, v in e2e.items()}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": shown}
    record = {"workload": workload, "seconds": seconds, "trace": trace,
              "meta": metadata(seed), "info": info,
              "end_to_end": e2e, "per_layer": layers,
              "failures": failures, "raw": raw}
    return {"result": result, "record": record}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "adlv" / "__init__.py").is_file():
        print(f"no adlv sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        out = report(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    result, record = out["result"], out["record"]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    meta, info = record["meta"], record["info"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# python={meta['python']} nproc={meta['nproc']} "
          f"cpu={meta['cpu_model']!r} commit={meta['git_commit']}")
    print(f"# src lines {meta['src_lines_total']}: "
          + " ".join(f"{k}={v}" for k, v in meta["src_lines"].items()))
    print(f"# passes={info['passes']} requests/pass={info['requests']} "
          f"setups={info['setups']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, value in record["end_to_end"].items():
        note = ""
        if name == "req_tail_ms":
            note = (f"  (p{info['tail_percentile']} of {info['requests']} "
                    f"requests, {info['tail_beyond']} beyond)")
        print(f"{name:<50} {value:>16.6f} {END_TO_END_UNITS[name]}{note}")
    print(f"{'fail_ratio':<50} {info['fail_ratio']:>16.6f} ratio")
    for name, (value, unit) in record["per_layer"].items():
        print(f"{name:<50} {value:>16.6f} {unit}")
    for rid, detail in record["failures"][:5]:
        print(f"request {rid} failed:\n{detail}", file=sys.stderr)
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
