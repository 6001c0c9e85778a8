"""
Smoke test of the benchmark itself (not collected by the library's suite):

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at tiny sizes through ``run.py``, traced and untraced,
checks the output schema against BENCHMARK.json, and checks that a wrong
answer or an exception shows up as a failed request.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from adlv import gu, roots  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_names_match_run_py():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_reports_every_metric(name, trace):
    result = run.report(name, seed=7, seconds=0, trace=trace, tiny=True)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    json.dumps(result)


def test_traced_run_sees_calls_inside_the_library():
    metrics = run.report("emptiness_oracle", seed=1, seconds=0, trace=True,
                         tiny=True)["result"]["metrics"]
    # phi_w is reached only through the name reduction imported
    assert metrics["reduction.is_empty_basic.calls"]["value"] > 0
    assert metrics["roots.phi_w.calls"]["value"] >= \
        metrics["reduction.is_empty_basic.calls"]["value"]
    assert metrics["roots.ideal_nodes"]["value"] > 0
    assert metrics["reduction.is_empty_basic.nodes_per_s"]["value"] > 0


def _tiny_pass(name):
    wl = workloads.WORKLOADS[name]
    requests = wl.requests(True)
    res = worker.run_pass(wl, requests, list(range(len(requests))), golden={})
    attempted, failures = run.counts({"plain": [res], "traced": []})
    return len(requests), attempted, failures


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_answer_raises_fail_ratio(name, monkeypatch):
    monkeypatch.setattr(gu, "classify", lambda n, k, l: gu.StratumClass.DL)
    count, attempted, failures = _tiny_pass(name)
    assert attempted == count
    assert 0 < len(failures) / attempted


def test_exception_counts_as_failure_and_the_pass_goes_on(monkeypatch):
    def over_budget(n, k, l, budget=None):
        raise roots.BudgetExceededError("stub")
    monkeypatch.setattr(gu, "classify_by_criterion", over_budget)
    count, attempted, failures = _tiny_pass("emptiness_oracle")
    assert attempted == count and len(failures) == count
    assert "BudgetExceededError" in failures[0][1]


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap(1, lambda: sum(range(20000)))
    outer = tracer.wrap(0, lambda: inner() + inner())
    outer()
    stats = tracer.summary()
    parent, child = stats[tracing.SPAN_NAMES[0]], stats[tracing.SPAN_NAMES[1]]
    assert child["calls"] == 2 and parent["calls"] == 1
    assert parent["self_s"] == pytest.approx(parent["total_s"] - child["total_s"])


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", run.WORKLOADS[0],
                                             "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
