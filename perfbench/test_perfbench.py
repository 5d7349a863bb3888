"""Self-tests of the benchmark harness: seeded inputs, tiny workload runs,
the correctness gate, span self times, and the metric list in BENCHMARK.json."""

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from perfbench import gen, oracle, run
from perfbench.spans import (
    Histogram, NullTracer, Tracer, per_call_times, percentile, self_times)
from perfbench.workloads import WORKLOADS, Context, check_golden, probe_layers, run_loop

ROOT = Path(__file__).resolve().parent.parent


def _texts(seed):
    valid, invalid = gen.scenario_pool(random.Random(seed), 20, 15)
    return [g.text for g in valid + invalid]


def test_generator_is_deterministic_and_seed_sensitive():
    assert _texts(7) == _texts(7)
    assert _texts(7) != _texts(8)
    bases = {"shares": [gen.valid_scenario(random.Random(1), 0)],
             "gallons": [gen.valid_scenario(random.Random(2), 1)]}

    def sweeps(seed):
        ops = itertools.islice(gen.sweep_ops(random.Random(seed), bases), 25)
        return [(op.scenario.name, op.path, op.values) for op in ops]
    assert sweeps(3) == sweeps(3)
    assert sweeps(3) != sweeps(4)


def test_invalid_kinds_all_generated():
    _, invalid = gen.scenario_pool(random.Random(0), 0, len(gen.INVALID_KINDS))
    assert {g.kind for g in invalid} == set(gen.INVALID_KINDS)
    assert all(g.params is None for g in invalid)


@pytest.fixture
def ctx(tmp_path):
    return Context(ROOT, tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_runs_tiny(ctx, name):
    wl = WORKLOADS[name](ctx, seed=3)
    wl.gate()
    out = run_loop(wl, wl.schedule(), NullTracer(), max_ops=3)
    assert out.attempted == 3
    assert out.failures.get("mismatch", 0) == 0
    assert out.bytes_out > 0


def test_traced_probe_records_every_span_metric(ctx):
    wl = WORKLOADS["scenario-batch"](ctx, seed=3)
    tr = Tracer()
    valid, invalid = wl.probe_inputs()
    probe_layers(tr, ctx, valid[:2], invalid[:2], wl.counts)
    recorded = {s[0] for s in tr.spans}
    assert {span for span, _, _ in run.SPAN_METRICS.values()} <= recorded
    assert wl.counts["scenario.rejected"] == 2


def test_gate_trips_on_perturbed_golden(ctx):
    check_golden(ctx)
    golden = bytearray(ctx.golden)
    golden[100] ^= 1
    ctx.golden = bytes(golden)
    with pytest.raises(oracle.GateError):
        check_golden(ctx)
    with pytest.raises(oracle.GateError):  # the CLI path compares the same bytes
        WORKLOADS["cli-cold"](ctx, seed=3).gate()


def test_oracle_flags_perturbed_expected_value():
    g = gen.valid_scenario(random.Random(5), 0)
    want = oracle.headline(g.params)
    assert oracle.mismatches(dict(want), want) == []
    got = dict(want, additional_co2=want["additional_co2"] * (1 + 1e-7))
    assert [m.split(":")[0] for m in oracle.mismatches(got, want)] == ["additional_co2"]


def test_self_time_from_hand_built_tree():
    # root [0, 100] with children a [10, 30] and b [25, 50]; a has c [12, 20];
    # d [90, 120] overruns its parent, which counts only up to 100
    spans = [
        ["root", 0, 100, -1, 1, 1],
        ["a", 10, 30, 0, 1, 1],
        ["b", 25, 50, 0, 1, 1],
        ["c", 12, 20, 1, 1, 1],
        ["d", 90, 120, 0, 1, 1],
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 8, 25, 8, 30]


def test_per_call_times_skip_spans_that_raised():
    tr = Tracer()
    with tr.span("sweep", 0) as sp:  # completed: 4 points
        sp.count(4)
    with pytest.raises(ValueError):
        with tr.span("sweep", 0):  # raised before its count was set
            raise ValueError
    tr.spans[0][1:3] = [0, 400]
    assert per_call_times(tr.spans) == {"sweep": [(100.0, 100.0)]}


def test_histogram_quantiles_match_exact_percentiles():
    rng = random.Random(4)
    values = [rng.lognormvariate(13, 1) for _ in range(5001)]
    hist = Histogram()
    for v in values:
        hist.add(v)
    for q in (0.1, 0.5, 0.9, 0.99):
        assert hist.quantile(q) == pytest.approx(percentile(values, q), rel=1e-3)
    assert len(hist.counts) == Histogram.SIZE  # its size does not grow with use


def test_tracer_nests_spans():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner", 4):
            pass
    (outer, inner) = tr.spans
    assert inner[3] == 0 and outer[3] == -1 and inner[5] == 4
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_end_to_end_run_prints_result_line():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "scenario-batch", "--seed", "1",
                         "--seconds", "0.2", "--trace", "0"])
    assert code == 0
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
