"""evdemand benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the loop runs untraced and the result holds the
end-to-end metrics, scaled to a reference measured beside them (see
``workloads``); with ``--trace 1`` it holds the per-layer metrics from a
traced run. Before any number, the correctness gate must pass: the
``reproduce --all`` text equals ``tests/golden/reproduce_all.txt``, sampled
operations repeat byte for byte, and sampled assessments match a plain-float
recomputation. If it fails, nothing is printed on stdout and the exit code
is 1; without ``src/`` and the golden file the exit code is 2.

Standard output ends with two lines: a run record (seed, interpreter,
machine, commit, input properties, failures by class, sample counts) and the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))

from perfbench.oracle import GateError  # noqa: E402
from perfbench.spans import (  # noqa: E402
    NullTracer, Tracer, instrumented, per_call_times, percentile)

WORKLOAD_NAMES = ("cli-cold", "sweep-grid", "scenario-batch")
SETUP_RUNS = 7          # fresh interpreters behind setup_s: import plus one operation
BARE_RUNS = 5           # `python -c pass` runs for the record and startup metric
IMPORT_RUNS = 5         # `-X importtime` runs in a traced run

END_TO_END = {          # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "items_per_s": "1/s",
}

# per-layer metric -> (span name, unit, self time?); each gives .p50 and .p90.
# A span covering n calls or rows contributes its duration / n.
SPAN_METRICS = {
    "cli.run_ms": ("cli.run", "ms", False),
    "cli.run_self_ms": ("cli.run", "ms", True),
    "cli.validate_ms": ("cli.validate", "ms", False),
    "cli.reproduce_ms": ("cli.reproduce", "ms", False),
    "cli.export_ms": ("cli.export", "ms", False),
    "cli.reject_ms": ("cli.reject", "ms", False),
    "scnformat.parse_document_us": ("scnformat.parse_document", "us", False),
    "scnformat.write_document_us": ("scnformat.write_document", "us", False),
    "scenario.parse_scenario_us": ("scenario.parse_scenario", "us", False),
    "scenario.parse_scenario_self_us": ("scenario.parse_scenario", "us", True),
    "scenario.render_scenario_us": ("scenario.render_scenario", "us", False),
    "scenario.render_scenario_self_us": ("scenario.render_scenario", "us", True),
    "scenario.assess_us": ("scenario.assess", "us", False),
    "scenario.apply_override_us": ("scenario.apply_override", "us", False),
    "scenario.sweep_point_us": ("scenario.sweep", "us", False),
    "scenario.sweep_point_self_us": ("scenario.sweep", "us", True),
    **{f"engine.{f}_us": (f"engine.{f}", "us", False) for f in (
        "fleet_energy", "per_ev_energy", "battery_demand_a", "battery_demand_b",
        "carbon_intensity", "water_use", "capacity_deficit")},
    **{f"refdata.{f}_us": (f"refdata.{f}", "us", False) for f in (
        "catalog_stats", "builtin_dataset", "validate_mix")},
    **{f"quantities.{f}_us": (f"quantities.{f}", "us", False) for f in (
        "quantity", "in_unit", "parse_quantity", "format_quantity")},
    **{f"report.render_{f}_us": (f"report.render.{f}", "us", False)
       for f in ("text", "csv", "json")},
    **{f"report.render_sweep_row_us.{f}": (f"report.render_sweep.{f}", "us", False)
       for f in ("csv", "json", "text")},
    "report.reproduce_ms": ("report.reproduce", "ms", False),
    "report.reproduce_self_ms": ("report.reproduce", "ms", True),
    "report.render_comparisons_us": ("report.render_comparisons", "us", False),
}
SAMPLE_METRICS = ("startup.bare_interp_ms", "import.evdemand_cli_ms",
                  *(f"import.{m}_self_ms" for m in (
                      "errors", "quantities", "refdata", "engine", "scnformat",
                      "scenario", "report", "cli")))
COUNT_METRICS = ("scenario.accepted", "scenario.rejected", "sweep.points",
                 "sweep.points_failed_inline", "report.bytes_out")
SCALE = {"ms": 1e6, "us": 1e3}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    out = []
    for name in SAMPLE_METRICS:
        out += [(f"{name}.p50", "ms"), (f"{name}.p90", "ms")]
    for name, (_, unit, _) in SPAN_METRICS.items():
        out += [(f"{name}.p50", unit), (f"{name}.p90", unit)]
    out += [(name, "count") for name in COUNT_METRICS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def _p50_p90(values: list[float]) -> tuple[float, float]:
    return percentile(values, 0.5), percentile(values, 0.9)


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(wl, args, bare_ms: list[float]) -> dict:
    status = _git("status", "--porcelain")
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "platform": platform.platform(), "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "bare_interp_ms": statistics.median(bare_ms),
        "inputs": wl.properties(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def measure(wl, ctx, args, record: dict):
    """The untraced run: its outcome and the end-to-end metrics.

    Timings are scaled to the nominal speed of a reference measured beside
    them (see ``workloads`` on calibration); the record keeps the raw ones.
    """
    from perfbench.workloads import BARE_START_NOMINAL_NS, run_loop

    setup_args = wl.setup_args()
    bare_ns, setup_ns = [], []
    for _ in range(SETUP_RUNS):
        bare_ns.append(ctx.spawn(["-c", "pass"])[3])
        setup_ns.append(ctx.spawn(setup_args, stdout=subprocess.DEVNULL)[3])
    out = run_loop(wl, wl.schedule(), NullTracer(), seconds=args.seconds)
    items = sum(w.items for w in out.windows)
    values = {
        "setup_s": statistics.median(setup_ns) / 1e9
        * BARE_START_NOMINAL_NS / statistics.median(bare_ns),
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli-cold"),
        "op_p50_ms": out.latency_scaled.quantile(0.5) / 1e6,
        "op_p90_ms": out.latency_scaled.quantile(0.9) / 1e6,
        "items_per_s": items / sum(w.op_ns / 1e9 * wl.nominal_ns / w.ref_ns
                                   for w in out.windows),
    }
    record["raw"] = {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "setup_bare_start_ms": statistics.median(bare_ns) / 1e6,
        "op_p50_ms": out.latency.quantile(0.5) / 1e6,
        "op_p90_ms": out.latency.quantile(0.9) / 1e6,
        "items_per_s": items / (sum(w.op_ns for w in out.windows) / 1e9),
        "reference_ms": statistics.median(w.ref_ns for w in out.windows) / 1e6,
        "reference_nominal_ms": wl.nominal_ns / 1e6,
    }
    record["samples"] = {"setup_s": len(setup_ns), "ops": out.attempted,
                         "windows": len(out.windows), "op_latency": out.latency.n}
    return out, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def measure_traced(wl, ctx, args, record: dict, bare_ms: list[float]):
    """The traced run: its outcome, the per-layer metrics and the tracing overhead."""
    from perfbench.workloads import instrument_targets, probe_layers, run_loop

    samples = ctx.import_times_ms(IMPORT_RUNS)
    samples["startup.bare_interp_ms"] = bare_ms
    # the same operations, first untraced and then traced
    plain = run_loop(wl, wl.schedule(), NullTracer(), seconds=args.seconds / 2)
    tr = Tracer()
    with instrumented(tr, instrument_targets()):
        traced = run_loop(wl, wl.schedule(), tr, max_ops=plain.attempted)
        valid, invalid = wl.probe_inputs()
        probe_layers(tr, ctx, valid, invalid, wl.counts)
    overhead = traced.op_ns / plain.op_ns  # the same operations, as many of them
    plain.add_counts(traced)

    by_name = per_call_times(tr.spans)
    metrics = {}
    record["samples"] = {"spans": len(tr.spans), "ops": plain.attempted}
    for name in SAMPLE_METRICS:
        p50, p90 = _p50_p90(samples[name])
        metrics[f"{name}.p50"] = {"value": p50, "unit": "ms"}
        metrics[f"{name}.p90"] = {"value": p90, "unit": "ms"}
        record["samples"][name] = len(samples[name])
    for name, (span_name, unit, use_self) in SPAN_METRICS.items():
        entries = by_name.get(span_name)
        if not entries:
            raise RuntimeError(f"no {span_name} spans recorded")
        values = [(self_ns if use_self else total_ns) / SCALE[unit]
                  for total_ns, self_ns in entries]
        p50, p90 = _p50_p90(values)
        metrics[f"{name}.p50"] = {"value": p50, "unit": unit}
        metrics[f"{name}.p90"] = {"value": p90, "unit": unit}
        record["samples"][name] = len(values)
    counts = dict(wl.counts, **{"report.bytes_out": plain.bytes_out})
    for name in COUNT_METRICS:
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return plain, metrics


def run_one(args) -> int:
    src = ROOT / "src" / "evdemand" / "__init__.py"
    golden = ROOT / "tests" / "golden" / "reproduce_all.txt"
    if not src.is_file() or not golden.is_file():
        print(f"perfbench: needs {src.relative_to(ROOT)} and {golden.relative_to(ROOT)} "
              f"in the checkout at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import FAIL_CLASSES, WORKLOADS, Context, check_golden

    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        ctx = Context(ROOT, work)
        try:
            ctx.check_package_source()
            check_golden(ctx)
            wl = WORKLOADS[args.workload](ctx, args.seed)
            wl.gate()
        except GateError as exc:
            print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
            return 1
        bare_ms = ctx.bare_interp_ms(BARE_RUNS)
        record = run_record(wl, args, bare_ms)
        if args.trace:
            out, metrics = measure_traced(wl, ctx, args, record, bare_ms)
        else:
            out, metrics = measure(wl, ctx, args, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    record.update(attempted=out.attempted, failed=out.failed,
                  fail_ratio=out.failed / out.attempted,
                  failures={k: out.failures.get(k, 0) for k in FAIL_CLASSES},
                  bytes_out=out.bytes_out)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": out.failures.get("mismatch", 0) == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, then a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {name} failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = dict(json.loads(lines[-2]), result=json.loads(lines[-1]))
    for name, res in results.items():
        result = res["result"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']} "
              f"{res['record']['failures']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
