"""The verdict of ``scripts/bench_pairs.py`` on fixed numbers, with no
benchmark run."""

import runpy
from pathlib import Path

import pytest

bench_pairs = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"))
verdict = bench_pairs["verdict"]

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
