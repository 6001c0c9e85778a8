"""
The benchmark's contract with the library, read from ``bench/`` without
editing anything there: every function its tracer wraps resolves the way
``tracing.install`` resolves it, and every request of every workload passes
that workload's own check.  A name the benchmark reaches that goes missing,
or a wrong answer, fails here rather than as a dead benchmark worker.
"""

import importlib.util
import sys
from importlib import import_module
from pathlib import Path

import pytest

from adlv import cli, gu

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("layer,func", tracing.TRACED)
def test_traced_name_resolves(layer, func):
    owner = import_module(f"adlv.{layer}")
    if "." in func:
        # install replaces a method through its class __dict__
        cls_name, attr = func.split(".")
        assert callable(getattr(owner, cls_name).__dict__[attr])
    else:
        assert callable(getattr(owner, func))


@pytest.fixture(scope="module")
def golden():
    return {n: gu.load_golden_summary(n) for n in (13, 14)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_request_passes_its_check(name, golden):
    workload = workloads.WORKLOADS[name]
    requests = workload.requests(False)
    assert requests
    failed = [req for req in requests
              if not workload.check(req, workload.execute(req), golden)]
    assert failed == []


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_classify_calls_its_traced_renderer_once(monkeypatch, capsys, fmt):
    # cli.classify_json.calls and cli.classify_dot.calls count requests only
    # while each `adlv classify` goes through its renderer exactly once
    calls = {"classify_json": 0, "classify_dot": 0}
    for name, real in [(name, getattr(cli, name)) for name in calls]:
        def counting(n, name=name, real=real):
            calls[name] += 1
            return real(n)
        monkeypatch.setattr(cli, name, counting)
    assert cli.main(["classify", "--n", "7", "--format", fmt]) == 0
    assert capsys.readouterr().out.startswith("{" if fmt == "json" else "digraph")
    assert calls == {"classify_json": int(fmt == "json"),
                     "classify_dot": int(fmt == "dot")}
