"""The pair runner's pure summary, on hand-made benchmark records: medians,
quartiles, pairs won, the parent's IQR, bounds, and the claim. No benchmark
runs here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"
_SPEC = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)

END_TO_END = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]


def _run(p50, items, failed=0, correct=True):
    """One ``perfbench/run.py --workload all`` result with one workload."""
    metrics = {"op_p50_ms": {"value": p50, "unit": "ms"},
               "items_per_s": {"value": items, "unit": "1/s"}}
    return {"cli-cold": {"result": {"correct": correct, "attempted": 10, "failed": failed,
                                    "metrics": metrics}}}


RUNS = {"parent": [_run(60, 10), _run(64, 11), _run(62, 12), _run(70, 9)],
        "change": [_run(55, 12), _run(58, 12), _run(63, 11), _run(56, 13)]}


def test_each_metric_is_summarized_per_side_and_per_pair():
    summary = benchpairs.summarize(RUNS, END_TO_END)["cli-cold"]
    p50 = summary["op_p50_ms"]
    assert (p50["parent_median"], p50["change_median"]) == (63, 57)
    assert p50["parent_quartiles"] == [60.5, 63, 68.5]
    assert p50["parent_iqr"] == 8
    assert p50["change_worse_by"] == pytest.approx(-6 / 63)
    assert p50["change_better_pairs"] == 3  # 62 -> 63 is lost
    assert p50["median_gap_exceeds_parent_iqr"] is False  # a gap of 6 against 8
    assert p50["within_bound"] is True
    assert (p50["parent_runs"], p50["change_runs"]) == ([60, 64, 62, 70], [55, 58, 63, 56])
    items = summary["items_per_s"]
    assert items["change_worse_by"] == pytest.approx(-(12 - 10.5) / 10.5)  # higher is better
    assert items["change_better_pairs"] == 3  # 12 -> 11 is lost
    assert summary["failed"] == {"parent": [0] * 4, "change": [0] * 4}
    assert summary["correct"] is True


def test_a_worse_metric_beyond_its_bound_and_a_failed_run_are_noted():
    runs = {"parent": [_run(50, 10), _run(50, 10)],
            "change": [_run(70, 10), _run(70, 10, failed=1)]}
    summary = benchpairs.summarize(runs, END_TO_END)
    row = summary["cli-cold"]["op_p50_ms"]
    assert (row["change_worse_by"], row["within_bound"], row["change_better_pairs"]) == (
        pytest.approx(0.4), False, 0)
    assert benchpairs.notes(summary, None) == [
        "cli-cold op_p50_ms worse by 40.0%, beyond its bound of 25%",
        "cli-cold: a run was incorrect or failed operations"]


def test_the_claim_needs_the_gain_the_pairs_and_the_gap():
    runs = {"parent": [_run(60 + i % 2, 10) for i in range(10)],
            "change": [_run(50 + i % 2, 11) for i in range(10)]}
    workloads = benchpairs.summarize(runs, END_TO_END)
    held_out = benchpairs.summarize({side: r[:3] for side, r in runs.items()}, END_TO_END)
    claim = benchpairs.claimed_gain(workloads, held_out, "cli-cold", "op_p50_ms", 0.07)
    assert claim["fall"] == pytest.approx(10 / 60.5)
    assert (claim["change_better_pairs"], claim["held_out_change_better_pairs"]) == (10, 3)
    assert claim["met"] is True
    assert benchpairs.notes(workloads, claim)[0] == (
        "claim met: cli-cold op_p50_ms fall 16.5%, 10 pairs won")
    assert benchpairs.claimed_gain(workloads, {}, "cli-cold", "op_p50_ms", 0.2)["met"] is False
    rise = benchpairs.claimed_gain(workloads, {}, "cli-cold", "items_per_s", 0.05)
    assert (rise["rise"], rise["met"]) == (pytest.approx(0.1), True)
    # a held-out pair lost, or one more failed operation than the parent's, is not met
    held_lost = benchpairs.summarize(
        {"parent": runs["parent"][:3], "change": [*runs["change"][:2], _run(70, 11)]}, END_TO_END)
    assert benchpairs.claimed_gain(workloads, held_lost, "cli-cold", "op_p50_ms",
                                   0.07)["met"] is False
    failing = benchpairs.summarize(
        {**runs, "change": [*runs["change"][:9], _run(50, 11, failed=1)]}, END_TO_END)
    assert benchpairs.claimed_gain(failing, held_out, "cli-cold", "op_p50_ms",
                                   0.07)["met"] is False
    # 8 of 10 pairs won is not enough
    runs["change"][:2] = [_run(70, 11)] * 2
    lost = benchpairs.summarize(runs, END_TO_END)
    assert benchpairs.claimed_gain(lost, {}, "cli-cold", "op_p50_ms", 0.07)["met"] is False


def test_pairs_alternate_the_side_that_runs_first():
    assert benchpairs.pair_order(3) == [["parent", "change"], ["change", "parent"],
                                        ["parent", "change"]]


def test_launch_rounds_are_compared_round_by_round():
    times = benchpairs.paired_times([50.0, 60.0, 40.0], [45.0, 66.0, 30.0])
    assert times["parent_ms"] == {"runs": [50.0, 60.0, 40.0], "min": 40.0, "median": 50.0}
    assert times["median_paired_ratio"] == pytest.approx(0.9)
    assert (times["change_lower_rounds"], times["rounds"]) == (2, 3)
