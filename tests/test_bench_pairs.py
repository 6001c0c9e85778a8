"""The verdict of ``scripts/bench_pairs.py`` on fixed numbers, and its
series with a stubbed runner, with no benchmark run."""

import json
import runpy
import sys
from pathlib import Path

import pytest

bench_pairs = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"))
verdict, main, header = bench_pairs["verdict"], bench_pairs["main"], bench_pairs["header"]

PARENT = [0.050, 0.052, 0.048, 0.051, 0.053, 0.049, 0.050, 0.054, 0.047, 0.051]


def test_claim_holds_on_ten_wins_and_a_gap_wider_than_the_iqr():
    change = [p - 0.006 for p in PARENT]
    got = verdict(PARENT, change, "lower")
    assert got["wins"] == 10 and got["pairs"] == 10
    q1, p50, q3 = got["parent"]
    assert (q1, p50, q3) == pytest.approx((0.04875, 0.0505, 0.05225))
    assert got["parent_iqr"] == pytest.approx(0.0035)
    assert got["gain"] == pytest.approx(0.006)
    assert got["claim"]


def test_claim_needs_nine_wins_in_ten():
    change = [p - 0.006 for p in PARENT]
    change[0] = change[1] = 0.060  # two losses: 8 wins
    got = verdict(PARENT, change, "lower")
    assert got["wins"] == 8 and got["gain"] > got["parent_iqr"]
    assert not got["claim"]
    change[1] = PARENT[1]  # a tie is not a win
    assert verdict(PARENT, change, "lower")["wins"] == 8
    change[1] = PARENT[1] - 0.006  # 9 wins
    assert verdict(PARENT, change, "lower")["claim"]


def test_claim_needs_a_median_gap_wider_than_the_parent_iqr():
    change = [p - 0.001 for p in PARENT]  # wins every pair, by less than the IQR
    got = verdict(PARENT, change, "lower")
    assert got["wins"] == 10 and not got["claim"]


def test_direction_comes_from_the_metric():
    faster = [p - 0.006 for p in PARENT]
    got = verdict(PARENT, faster, "higher")
    assert got["wins"] == 0 and got["gain"] < 0 and not got["claim"]
    rates = [1 / p for p in PARENT]
    assert verdict(rates, [1 / p for p in faster], "higher")["claim"]


def test_runs_must_pair_up():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:-1], "lower")
    with pytest.raises(ValueError):
        verdict([1.0], [0.5], "lower")


def test_a_failed_run_drops_its_pair_and_the_series_goes_on(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"}]}))

    def stub(root, workload, seed, seconds):
        if root == change and seed == 1002:
            return {"error": "IndexError: list index out of range", "correct": False}
        wall = PARENT[seed - 1000] - (0.006 if root == change else 0)
        return {"metrics": {"wall_s": {"value": wall}}, "correct": True, "failed": 0}

    monkeypatch.setitem(main.__globals__, "run_bench", stub)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(tmp_path / "parent"), str(change),
                                      "--workload", "w", "--pairs", "5", "--seed", "1000"])
    assert main() == 1
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == header(tmp_path / "parent", change)
    assert "# change run failed (seed 1002): IndexError: list index out of range" in out
    assert "# w: 4 complete of 5 pairs" in out
    assert "# failed runs: parent 0, change 1" in out
    row = next(line for line in out.splitlines() if line.startswith("wall_s"))
    # the verdict reads pairs 1, 2, 4 and 5: parent median 0.0515, four wins
    assert "/    0.0515 /" in row and " 4/4 " in row


def test_fewer_than_two_complete_pairs_give_no_verdict(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    monkeypatch.setitem(main.__globals__, "run_bench",
                        lambda root, workload, seed, seconds: {"error": "boom", "correct": False})
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(tmp_path), str(tmp_path),
                                      "--workload", "w", "--pairs", "2"])
    assert main() == 1
    out = capsys.readouterr().out
    assert "# failed runs: parent 2, change 2" in out
    assert "fewer than 2 complete pairs: no verdict" in out


def test_header_names_the_bytecode_cache_and_each_checkouts_source_lines(tmp_path, monkeypatch):
    for side, sizes in (("parent", (3, 4)), ("change", (2,))):
        pkg = tmp_path / side / "src" / "adlv"
        pkg.mkdir(parents=True)
        for i, size in enumerate(sizes):
            (pkg / f"m{i}.py").write_text("x = 1\n" * size)
        (pkg / "notes.txt").write_text("not code\n")
    parent, change = tmp_path / "parent", tmp_path / "change"
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert header(parent, change) == [
        "# bytecode cache of the runs: not written (PYTHONDONTWRITEBYTECODE=1)",
        "# src/adlv/*.py lines: parent 7, change 2"]
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert header(parent, change)[0] == "# bytecode cache of the runs: written and reused"
