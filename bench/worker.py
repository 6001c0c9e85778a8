"""
One measured pass of one workload, in a fresh interpreter.

    python3 bench/worker.py '<json config>'

Every ``adlv`` invocation pays for the import and for cold ``_length`` /
``_BRUHAT_CACHE`` caches, so each pass runs in its own process.  The worker
imports ``adlv`` from ``src/``, loads the golden fixtures, prints ``ready``
(``run.py`` times set-up up to that line), then runs the requests in the
order fixed by the seed and the pass index and prints one JSON result line.  A config with ``"setup_only"``
stops after ``ready``.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from adlv import gu  # noqa: E402


def request_order(count: int, seed: int, pass_index: int) -> list[int]:
    """The seed permutes the order of the requests, never their set."""
    order = list(range(count))
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order


def run_pass(workload, requests: list[tuple], order: list[int], golden: dict,
             tracer=None) -> dict:
    """Run ``requests`` in ``order``; every request is checked and a wrong
    answer or any exception (``BudgetExceededError`` included) counts as a
    failure without stopping the pass."""
    latencies, failures, outcomes = [], [], {}
    clock = time.perf_counter
    for rid in order:
        req = requests[rid]
        if tracer is not None:
            tracer.request = rid
        t0 = clock()
        try:
            out = workload.execute(req)
        except Exception:
            latencies.append(clock() - t0)
            failures.append([rid, traceback.format_exc(limit=3)])
            continue
        latencies.append(clock() - t0)
        outcomes[rid] = out
        try:
            ok = workload.check(req, out, golden)
        except Exception:
            failures.append([rid, traceback.format_exc(limit=3)])
            continue
        if not ok:
            failures.append([rid, f"wrong answer for {req!r}"])
    return {"order": order, "latencies": latencies, "failures": failures,
            "outcomes": outcomes}


def search_metrics(outcomes: dict, tracer) -> dict[str, float]:
    """Node counts and search rates over the searches that walked the whole
    ideal, whose node count is exactly |R(w)|.  |R(w)| is counted with the
    public ``roots.r_set`` while the tracer is paused."""
    fids = {name: f for f, name in enumerate(tracing.SPAN_NAMES)}
    time_in = tracer.durations_by_request()
    sizes: dict[tuple, int] = {}
    nodes = {"is_empty_basic": 0, "is_empty_basic_v_form": 0,
             "positive_coxeter_generic": 0}
    secs = dict.fromkeys(nodes, 0.0)
    searches = empty = 0
    with tracer.paused():
        for rid, out in outcomes.items():
            searches += out.searches
            empty += out.empty
            for func, *label in out.walks:
                key = tuple(label)
                if key not in sizes:
                    sizes[key] = workloads.ideal_size(*key)
                nodes[func] += sizes[key]
                secs[func] += time_in.get((fids[f"reduction.{func}"], rid), 0.0)
    metrics = {"roots.ideal_nodes": sum(nodes.values())}
    for func in nodes:
        rate = nodes[func] / secs[func] if secs[func] > 0 else 0.0
        metrics[f"reduction.{func}.nodes_per_s"] = rate
    metrics["reduction.is_empty_basic.witness_ratio"] = (
        empty / searches if searches else 0.0)
    return metrics


def main() -> int:
    cfg = json.loads(sys.argv[1])
    golden = {n: gu.load_golden_summary(n) for n in (13, 14)}
    print("ready", flush=True)
    if cfg.get("setup_only"):
        return 0

    workload = workloads.WORKLOADS[cfg["workload"]]
    tracer = None
    if cfg["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    requests = workload.requests(cfg["tiny"])
    order = request_order(len(requests), cfg["seed"], cfg["pass"])
    result = run_pass(workload, requests, order, golden, tracer)
    outcomes = result.pop("outcomes")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["search"] = search_metrics(outcomes, tracer)
        if cfg.get("spans"):
            tracer.write(cfg["spans"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
