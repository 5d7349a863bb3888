"""The three workloads, the layer probe, and process-level measurements.

Each workload is a closed loop with one client that runs one operation at a
time, with no threads and no concurrent subprocesses:

* ``cli-cold``: fresh ``python -m evdemand`` processes against the checkout's
  ``src/``. Startup and import dominate; ``assess`` is under 1% of a call.
* ``sweep-grid``: in-process ``sweep`` plus ``render_sweep`` in three formats
  over every override path; ``assess`` and ``Quantity`` carry the work.
* ``scenario-batch``: in-process ``parse_scenario``, ``assess`` and
  ``render`` on distinct scenario texts, with rejections, write-back round
  trips and reproduction reports; parsing and rendering carry the work.

An operation fails when the program lets an exception other than an
``EvDemandError`` escape, a CLI call exits outside {0, 1, 2} or prints a
traceback, an invalid input is accepted, or an output is wrong. Failures are
counted by class and the loop carries on.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from evdemand import cli as cli_mod
from evdemand import engine
from evdemand import report as report_mod
from evdemand import scenario as scenario_mod
from evdemand.errors import EvDemandError
from evdemand.quantities import format_quantity, parse_quantity, quantity
from evdemand.refdata import builtin_dataset, builtin_ev_catalog, catalog_stats, validate_mix
from evdemand.report import render, render_comparisons, render_sweep, reproduce
from evdemand.scenario import (
    OVERRIDE_PATHS,
    ExplicitPerEv,
    PowerRangeSpeed,
    SweepSpec,
    apply_override,
    assess,
    parse_scenario,
    render_dataset,
    render_scenario,
    sweep,
)
from evdemand.scnformat import parse_document, write_document

from . import gen, oracle
from .spans import Histogram, NullTracer, Tracer

FAIL_CLASSES = ("uncaught_exception", "bad_exit", "traceback", "accepted_invalid", "mismatch")
SUBPROCESS_TIMEOUT_S = 60
MODULES = ("errors", "quantities", "refdata", "engine", "scnformat", "scenario", "report", "cli")

# Names the package calls across its own layer boundaries; a traced run wraps
# them so those calls become child spans of the harness's spans.
INSTRUMENT = (
    (scenario_mod, "parse_document", "scnformat.parse_document"),
    (scenario_mod, "write_document", "scnformat.write_document"),
    (scenario_mod, "parse_scenario", "scenario.parse_scenario"),
    (scenario_mod, "assess", "scenario.assess"),
    (scenario_mod, "apply_override", "scenario.apply_override"),
    (report_mod, "assess", "scenario.assess"),
    (cli_mod, "parse_scenario", "scenario.parse_scenario"),
    (cli_mod, "assess", "scenario.assess"),
    (cli_mod, "reproduce", "report.reproduce"),
    (cli_mod, "render_comparisons", "report.render_comparisons"),
)


def instrument_targets():
    """The INSTRUMENT entries that exist in this tree."""
    return [t for t in INSTRUMENT if hasattr(t[0], t[1])]


# --- processes --------------------------------------------------------------

@dataclass
class Context:
    """Where a run reads and writes, and how it starts interpreters."""

    root: Path
    work: Path

    def __post_init__(self):
        self.golden = (self.root / oracle.GOLDEN).read_bytes()
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(self.root / "src")
        self.env = env

    def spawn(self, args: list[str], *, stdout=subprocess.PIPE) -> tuple[int, bytes, bytes, int]:
        """Run ``python <args>`` to completion; return code, out, err, wall ns."""
        t0 = perf_counter_ns()
        try:
            proc = subprocess.run([sys.executable, *args], cwd=self.work, env=self.env,
                                  stdout=stdout, stderr=subprocess.PIPE,
                                  timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return -9, exc.stdout or b"", exc.stderr or b"", perf_counter_ns() - t0
        return proc.returncode, proc.stdout or b"", proc.stderr, perf_counter_ns() - t0

    def check_package_source(self) -> None:
        """Fail unless a child interpreter imports the package from ``src/``;
        this also compiles the package's bytecode cache."""
        rc, out, err, _ = self.spawn(["-c", "import evdemand.cli as m; print(m.__file__)"])
        want = self.root / "src" / "evdemand"
        if rc != 0 or Path(out.decode().strip()).resolve().parent != want.resolve():
            raise oracle.GateError(f"child interpreter does not import {want}: "
                                   f"{out.decode().strip()} {err.decode()[-300:]}")
        self.spawn(["-m", "evdemand", "validate", "paper-2005"])  # caches __main__ too

    def bare_interp_ms(self, n: int) -> list[float]:
        return [self.spawn(["-c", "pass"])[3] / 1e6 for _ in range(n)]

    def import_times_ms(self, n: int) -> dict[str, list[float]]:
        """``-X importtime`` of ``import evdemand.cli``: each module's self time
        and the cumulative time of ``evdemand.cli``."""
        line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")
        out: dict[str, list[float]] = {}
        for _ in range(n):
            rc, _, err, _ = self.spawn(["-X", "importtime", "-c", "import evdemand.cli"])
            if rc != 0:
                raise oracle.GateError(f"import evdemand.cli failed: {err.decode()[-300:]}")
            for m in line.finditer(err.decode()):
                self_us, cum_us, name = int(m[1]), int(m[2]), m[3]
                if name.startswith("evdemand.") and name[9:] in MODULES:
                    out.setdefault(f"import.{name[9:]}_self_ms", []).append(self_us / 1e3)
                if name == "evdemand.cli":
                    out.setdefault("import.evdemand_cli_ms", []).append(cum_us / 1e3)
        return out


def check_golden(ctx: Context) -> None:
    """The in-process ``reproduce --all`` text must equal the golden file."""
    oracle.check_golden(render_comparisons(reproduce(), "text"), ctx.golden,
                        "render_comparisons(reproduce())")


def capture_cli(argv: list[str]) -> tuple[int, bytes]:
    """In-process ``cli.main(argv)``: exit code and stdout bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_mod.main(argv)
    return rc, out.getvalue().encode("utf-8")


def write_cli_files(work: Path, valid: list[gen.GenScenario],
                    invalid: list[gen.GenScenario]) -> dict:
    """Scenario files for CLI calls, plus the invalid targets."""
    files = {"gen": [], "malformed": []}
    for g in valid:
        path = work / f"{g.name}.scn"
        path.write_text(g.text, encoding="utf-8")
        files["gen"].append(str(path))
    for g in invalid:
        path = work / f"{g.name}.scn"
        path.write_text(g.text, encoding="utf-8")
        files["malformed"].append(str(path))
    non_utf8 = work / "latin1.scn"
    non_utf8.write_bytes(valid[0].text.replace('name = "', 'name = "Café ').encode("latin-1"))
    directory = work / "directory.scn"
    directory.mkdir(exist_ok=True)
    files.update(non_utf8=str(non_utf8), directory=str(directory),
                 missing=str(work / "missing.scn"))
    return files


# --- calibration --------------------------------------------------------------
#
# Other tenants of a shared machine change its speed by 10-30% over minutes
# and by 15-20% from one second to the next, so every window of a few
# operations (0.1-1.5 s) is timed next to a fixed reference: a
# pure-Python loop for in-process work, a bare interpreter start for CLI
# calls. End-to-end timings are scaled by nominal / reference and read as
# milliseconds on a machine where the reference takes its nominal time. The
# nominal times are those of the 2-vCPU sandbox the bounds were set on and
# must not change, or every later comparison shifts.

LOOP_NOMINAL_NS = 1.25e6
BARE_START_NOMINAL_NS = 50e6


def calibration_loop() -> float:
    """Fixed interpreter work: tuples, str(), dict stores and float arithmetic."""
    acc, seen = 0.0, {}
    for i in range(3000):
        item = (i * 1.5, str(i))
        seen[item[1]] = item
        acc += len(seen) * item[0] / (i + 1)
    return acc


def calibration_ns() -> float:
    """Median time of five runs of ``calibration_loop``."""
    times = []
    for _ in range(5):
        t0 = perf_counter_ns()
        calibration_loop()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times)


# --- the loop -----------------------------------------------------------------

@dataclass
class Window:
    """``wl.window`` consecutive operations, timed beside one reference."""

    op_ns: int = 0        # time in all its operations
    items: int = 0
    ref_ns: float = 0.0   # the workload's reference, mean of before and after


@dataclass
class Outcome:
    """What one pass of a workload loop did.

    Latencies go into histograms of fixed size, so the harness's own memory
    does not grow with the number of operations a run fits in.
    """

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    op_ns: int = 0  # time in every operation
    windows: list = field(default_factory=list)  # complete windows only
    # operations of complete windows that did not fail: as measured, and
    # times nominal / the window's reference
    latency: Histogram = field(default_factory=Histogram)
    latency_scaled: Histogram = field(default_factory=Histogram)
    bytes_out: int = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def add_counts(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.bytes_out += other.bytes_out


def run_loop(wl, ops, tr, *, seconds: float | None = None,
             max_ops: int | None = None) -> Outcome:
    """Run operations one at a time until ``max_ops`` is reached, or until the
    first boundary of both a window and a block after ``seconds``, so that a
    run measures whole blocks of the schedule's fixed mix.

    Only ``run_op`` is timed; checking its result and measuring the reference
    at each window boundary are not.
    """
    out = Outcome()
    window, pending = Window(), []  # pending: latencies of the open window
    ref = wl.reference()
    stop_every = math.lcm(wl.window, wl.block)
    deadline = None if seconds is None else perf_counter_ns() + int(seconds * 1e9)
    for item in ops:
        tr.op += 1
        t0 = perf_counter_ns()
        raw = wl.run_op(item, tr)
        dt = perf_counter_ns() - t0
        fail, items, nbytes = wl.check(item, raw)
        del raw  # so that two operations' results are never alive at once
        out.attempted += 1
        out.op_ns += dt
        out.bytes_out += nbytes
        window.op_ns += dt
        if fail:
            out.failures[fail] += 1
        else:
            pending.append(dt)
            window.items += items
        if out.attempted % wl.window == 0:
            after = wl.reference()
            window.ref_ns = (ref + after) / 2
            ref = after
            scale = wl.nominal_ns / window.ref_ns
            for ns in pending:
                out.latency.add(ns)
                out.latency_scaled.add(ns * scale)
            out.windows.append(window)
            window, pending = Window(), []
        if out.attempted % stop_every == 0 and deadline is not None and t0 + dt >= deadline:
            break
        if max_ops is not None and out.attempted >= max_ops:
            break
    return out


def _parse_counted(text: str, counts: Counter, tr):
    """parse_scenario with a span; counts accepted and rejected texts."""
    with tr.span("scenario.parse_scenario"):
        try:
            s = parse_scenario(text)
        except EvDemandError:
            counts["scenario.rejected"] += 1
            raise
    counts["scenario.accepted"] += 1
    return s


# --- workloads ------------------------------------------------------------------

class CliCold:
    """Fresh-interpreter CLI calls; 6 of every 24 are invalid."""

    name = "cli-cold"
    window = 12  # about 1.4 s; each reference is two interpreter starts
    block = 24
    nominal_ns = BARE_START_NOMINAL_NS
    n_files = 8

    def __init__(self, ctx: Context, seed: int):
        self.ctx, self.seed = ctx, seed
        self.counts: Counter = Counter()
        rng = random.Random(f"cli-cold/{seed}")
        self.valid, self.malformed = gen.scenario_pool(rng, self.n_files, 3)
        self.files = write_cli_files(ctx.work, self.valid, self.malformed)
        self.expected: dict[tuple, tuple[int, bytes] | None] = {}

    def schedule(self):
        rng = random.Random(f"cli-cold/schedule/{self.seed}")
        return gen.cli_ops(rng, self.files)

    def reference(self) -> float:
        return statistics.mean(self.ctx.bare_interp_ms(2)) * 1e6

    def setup_args(self) -> list[str]:
        """A fresh interpreter that imports the package and runs one operation."""
        return ["-m", "evdemand", "run", self.files["gen"][0]]

    def probe_inputs(self):
        return self.valid, self.malformed

    def gate(self) -> None:
        # in-process expectations for every valid call the schedule can make
        fixtures = ("paper-2005", "paper-2001")
        argvs = [["run", f, "--format", fmt] for f in (*fixtures, *self.files["gen"])
                 for fmt in gen.FORMATS]
        argvs += [["validate", f] for f in (*fixtures, *self.files["gen"])]
        argvs += [["reproduce", "--all"]] + [["reproduce", "--all", "--format", f]
                                             for f in ("csv", "json")]
        argvs += [["export-dataset", "us2005", "-"]]
        for argv in argvs:
            try:
                self.expected[tuple(argv)] = capture_cli(argv)
            except Exception:  # a defect: the subprocess will show it as a traceback
                self.expected[tuple(argv)] = None
        for g in self.valid:
            _check_oracle(assess(parse_scenario(g.text)), g.params, g.name)
        # the subprocess path: golden bytes, then a repeated sample
        out = self.ctx.spawn(["-m", "evdemand", "reproduce", "--all"])[1]
        oracle.check_golden(out.decode("utf-8", "replace"), self.ctx.golden,
                            "python -m evdemand reproduce --all")
        for argv in (["run", self.files["gen"][0], "--format", "json"],
                     ["export-dataset", "us2005", "-"]):
            first = self.ctx.spawn(["-m", "evdemand", *argv])[:2]
            oracle.check_repeat(first, self.ctx.spawn(["-m", "evdemand", *argv])[:2],
                                " ".join(argv))
            if first != self.expected[tuple(argv)]:
                raise oracle.GateError(f"{' '.join(argv)}: subprocess output differs "
                                       f"from cli.main")

    def run_op(self, op: gen.CliOp, tr):
        with tr.span("cli.invoke." + op.klass):
            return self.ctx.spawn(["-m", "evdemand", *op.argv])

    def check(self, op: gen.CliOp, raw):
        rc, out, err, _ = raw
        if b"Traceback" in err:
            fail = "traceback"
        elif rc not in (0, 1, 2):
            fail = "bad_exit"
        elif not op.valid:
            fail = "accepted_invalid" if rc == 0 else None
        else:
            expected = self.expected.get(tuple(op.argv))
            fail = "mismatch" if expected is not None and (rc, out) != expected else None
        return fail, 1, len(out)

    def properties(self) -> dict:
        return {"distinct_scenarios": len(self.valid), "invalid_share": 6 / 24,
                "block": "18 valid calls (run x12, validate x3, reproduce --all x2, "
                         "export-dataset x1) and 6 invalid"}


class SweepGrid:
    """Sweeps of seeded shares and gallons scenarios over every override path."""

    name = "sweep-grid"
    window = 2  # about 0.2 s
    block = 2 * len(gen.SWEEP_PATHS)  # every (basis, path) pair once
    nominal_ns = LOOP_NOMINAL_NS
    reference = staticmethod(calibration_ns)

    def __init__(self, ctx: Context, seed: int):
        self.ctx, self.seed = ctx, seed
        self.counts: Counter = Counter()
        rng = random.Random(f"sweep-grid/{seed}")
        valid, self.invalid = gen.scenario_pool(rng, len(gen.CELLS), len(gen.INVALID_KINDS))
        self.bases = {b: [g for g in valid if g.basis == b] for b in ("shares", "gallons")}
        self.setup_op = gen.SweepOp(self.bases["shares"][0], "strategy.renewable_share",
                                 *gen.sweep_values(rng, "strategy.renewable_share", 200))

    def schedule(self):
        rng = random.Random(f"sweep-grid/schedule/{self.seed}")
        return gen.sweep_ops(rng, self.bases)

    def setup_args(self) -> list[str]:
        op = self.setup_op
        return _setup_op_args(self.ctx, {"kind": "sweep", "text": op.scenario.text,
                                        "path": op.path, "values": op.values})

    def probe_inputs(self):
        return self.bases["shares"] + self.bases["gallons"], self.invalid

    def gate(self) -> None:
        missing = set(gen.SWEEP_PATHS) - set(OVERRIDE_PATHS)
        if missing:
            raise oracle.GateError(f"override paths gone: {sorted(missing)}")
        rng = random.Random(f"sweep-grid/gate/{self.seed}")
        for path in gen.SWEEP_PATHS:
            basis = "gallons" if path in gen.BASIS_PATHS["gallons"] else "shares"
            g = rng.choice(self.bases[basis])
            values, _ = gen.sweep_values(rng, path, 20, bad_share=0.0)
            points = sweep(parse_scenario(g.text), SweepSpec.from_values(path, values))
            for value, p in zip(values, points):
                if p.assessment is None:
                    raise oracle.GateError(f"{g.name} {path}={value!r}: {p.error}")
                params = dict(g.params, **{path: value})
                _check_oracle(p.assessment, params, f"{g.name} {path}={value!r}")
        for op in itertools.islice(self.schedule(), 3):
            oracle.check_repeat(self._output(op), self._output(op), f"sweep {op.path}")

    def _output(self, op: gen.SweepOp) -> str:
        raw = self.run_op(op, NullTracer())
        return repr(raw[2]) if raw[2] is not None else "".join(raw[1])

    def run_op(self, op: gen.SweepOp, tr):
        try:
            s = _parse_counted(op.scenario.text, self.counts, tr)
            with tr.span("scenario.sweep", 0) as sp:
                points = sweep(s, SweepSpec.from_values(op.path, op.values))
                sp.count(len(points))
            outs = []
            for fmt in gen.FORMATS:
                with tr.span("report.render_sweep." + fmt, 0) as sp:
                    outs.append(render_sweep(op.path, points, fmt))
                    sp.count(len(points))
            return points, outs, None
        except Exception as exc:  # classified by check()
            return None, None, exc

    def check(self, op: gen.SweepOp, raw):
        points, outs, exc = raw
        if exc is not None:
            return ("mismatch" if isinstance(exc, EvDemandError) else "uncaught_exception"), 0, 0
        self.counts["sweep.points"] += len(points)
        fail = None
        for k, p in enumerate(points):
            ok = gen.expect_point_ok(op.scenario.basis, op.path, k, op.bad)
            if p.assessment is None:
                self.counts["sweep.points_failed_inline"] += 1
                if ok:
                    fail = "mismatch"
            elif not ok:
                fail = fail or "accepted_invalid"
        return fail, len(points), sum(len(o) for o in outs)

    def properties(self) -> dict:
        return {"distinct_scenarios": len(gen.CELLS), "paths": len(gen.SWEEP_PATHS),
                "points_per_sweep": gen.SWEEP_SIZES,
                "block": "one sweep of each (basis, path) pair, "
                         f"{sum(map(sum, gen.SWEEP_SIZES.values()))} points",
                "invalid_share": gen.SWEEP_BAD_SHARE}


class ScenarioBatch:
    """parse_scenario -> assess -> render over distinct seeded texts."""

    name = "scenario-batch"
    window = 240  # about 0.1 s
    block = gen.BATCH_VALID + gen.BATCH_INVALID
    nominal_ns = LOOP_NOMINAL_NS
    reference = staticmethod(calibration_ns)
    n_valid, n_invalid = 600, 120

    def __init__(self, ctx: Context, seed: int):
        self.ctx, self.seed = ctx, seed
        self.counts: Counter = Counter()
        rng = random.Random(f"scenario-batch/{seed}")
        self.valid, self.invalid = gen.scenario_pool(rng, self.n_valid, self.n_invalid)
        self.comparisons: dict[str, str] = {}

    def schedule(self):
        rng = random.Random(f"scenario-batch/schedule/{self.seed}")
        return gen.batch_ops(rng, self.valid, self.invalid)

    def setup_args(self) -> list[str]:
        return _setup_op_args(self.ctx, {"kind": "render", "text": self.valid[0].text,
                                        "format": "text"})

    def probe_inputs(self):
        return self.valid[:12], self.invalid[:len(gen.INVALID_KINDS)]

    def gate(self) -> None:
        for fmt in gen.FORMATS:
            self.comparisons[fmt] = render_comparisons(reproduce(), fmt)
        for g in self.valid[:60]:
            _check_oracle(assess(parse_scenario(g.text)), g.params, g.name)
        for op in itertools.islice(self.schedule(), 10):
            first = self.run_op(op, NullTracer())
            oracle.check_repeat(repr(first[1:]), repr(self.run_op(op, NullTracer())[1:]),
                                f"{op.scenario.name} as {op.fmt}")

    def run_op(self, op: gen.BatchOp, tr):
        """(state, outputs): state is rejected, raised, accepted or done."""
        try:
            s = _parse_counted(op.scenario.text, self.counts, tr)
        except EvDemandError:
            return "rejected", None
        except Exception as exc:
            return "raised", type(exc).__name__
        if op.scenario.params is None:
            return "accepted", None
        try:
            with tr.span("scenario.assess"):
                a = assess(s)
            with tr.span("report.render." + op.fmt):
                outs = [render(a, op.fmt)]
            back = None
            if op.write:
                with tr.span("scenario.render_scenario"):
                    text = render_scenario(s)
                with tr.span("scenario.render_dataset"):
                    ds_text = render_dataset(s.dataset)
                outs += [text, ds_text]
                back = (s, _parse_counted(text, self.counts, tr),
                        _parse_counted(ds_text, self.counts, tr))
            if op.reproduce_fmt:
                with tr.span("report.reproduce"):
                    results = reproduce()
                with tr.span("report.render_comparisons"):
                    outs.append(render_comparisons(results, op.reproduce_fmt))
            return "done", (outs, back)
        except EvDemandError as exc:
            return "mismatch", type(exc).__name__
        except Exception as exc:
            return "raised", type(exc).__name__

    def check(self, op: gen.BatchOp, raw):
        state, payload = raw
        if state == "raised":
            return "uncaught_exception", 0, 0
        if state == "rejected":
            return ("mismatch" if op.scenario.params is not None else None), 1, 0
        if state == "accepted":
            return "accepted_invalid", 0, 0
        if state == "mismatch":
            return "mismatch", 0, 0
        outs, back = payload
        fail = None
        if back is not None:
            s, again, ds_scenario = back
            if again != s or ds_scenario.dataset != s.dataset:
                fail = "mismatch"
        if op.reproduce_fmt and outs[-1] != self.comparisons[op.reproduce_fmt]:
            fail = "mismatch"
        return fail, 1, sum(len(o) for o in outs)

    def properties(self) -> dict:
        return {"distinct_scenarios": self.n_valid, "distinct_invalid": self.n_invalid,
                "invalid_share": gen.BATCH_INVALID / (gen.BATCH_VALID + gen.BATCH_INVALID),
                "block": f"{gen.BATCH_VALID} valid ops ({gen.BATCH_WRITES} with write-back "
                         f"and reproduce) and {gen.BATCH_INVALID} invalid"}


WORKLOADS = {w.name: w for w in (CliCold, SweepGrid, ScenarioBatch)}


def _setup_op_args(ctx: Context, op: dict) -> list[str]:
    path = ctx.work / "setup-op.json"
    path.write_text(json.dumps(op), encoding="utf-8")
    return [str(Path(__file__).parent / "setupop.py"), str(path)]


def _check_oracle(a, params: dict, where: str) -> None:
    problems = oracle.mismatches(oracle.assessment_figures(a), oracle.headline(params))
    if problems:
        raise oracle.GateError(f"{where}: " + "; ".join(problems))


# --- the layer probe ---------------------------------------------------------------

PROBE_REPS = 20


def _batch(tr, name: str, fn, *args) -> None:
    """PROBE_REPS calls of ``fn(*args)`` under one span."""
    with tr.span(name, PROBE_REPS):
        for _ in range(PROBE_REPS):
            fn(*args)


def probe_layers(tr: Tracer, ctx: Context, valid: list[gen.GenScenario],
                 invalid: list[gen.GenScenario], counts: Counter) -> None:
    """Call every layer directly on a workload's inputs, under spans.

    Runs with the package instrumented, so calls the package makes across its
    own layer boundaries become child spans.
    """
    rng = random.Random(valid[0].text)  # seeded by the workload's own inputs
    catalog = builtin_ev_catalog()
    paths = list(gen.SWEEP_PATHS)
    for k, g in enumerate(valid):
        tr.op += 1
        with tr.span("scnformat.parse_document"):
            doc = parse_document(g.text)
        with tr.span("scnformat.write_document"):
            write_document([(sec.name, [(e.key, e.value.text) for e in sec.entries])
                            for sec in doc.sections])
        s = _parse_counted(g.text, counts, tr)
        with tr.span("scenario.assess"):
            a = assess(s)
        for fmt in gen.FORMATS:
            with tr.span("report.render." + fmt):
                render(a, fmt)
        with tr.span("scenario.render_scenario"):
            render_scenario(s)
        path = paths[k % len(paths)]
        values, _ = gen.sweep_values(rng, path, 40)
        with tr.span("scenario.apply_override"):
            apply_override(s, "strategy.renewable_share", rng.uniform(0.0, 1.0))
        try:
            with tr.span("scenario.sweep", 0) as sp:
                points = sweep(s, SweepSpec.from_values(path, values))
                sp.count(len(points))
        except Exception:  # a known defect; the workloads count it
            points = []
        counts["sweep.points"] += len(points)
        counts["sweep.points_failed_inline"] += sum(p.assessment is None for p in points)
        for fmt in gen.FORMATS if points else ():
            with tr.span("report.render_sweep." + fmt, len(points)):
                render_sweep(path, points, fmt)

        # engine, refdata and quantities, called directly on this scenario
        fleet = a.fleet_energy
        ref = s.ev_reference
        if isinstance(ref, PowerRangeSpeed):
            prs = (ref.power, ref.travel_range, ref.speed)
        else:
            prs = tuple(catalog_stats(catalog, f).median for f in ("power", "range", "max_speed"))
        per_ev = ref.per_ev if isinstance(ref, ExplicitPerEv) else engine.per_ev_energy(*prs)
        mix = s.dataset.mix
        fuel, wi = s.water[0] if s.water else ("coal", quantity(480, "gal/MWh"))
        share = quantity(mix.share(fuel), "frac")
        _batch(tr, "engine.fleet_energy", engine.fleet_energy, s.fleet_basis)
        _batch(tr, "engine.per_ev_energy", engine.per_ev_energy, *prs)
        _batch(tr, "engine.battery_demand_a", engine.battery_demand_method_a,
               fleet, per_ev, s.batteries_per_ev, s.chemistry)
        _batch(tr, "engine.battery_demand_b", engine.battery_demand_method_b, fleet, s.chemistry)
        _batch(tr, "engine.carbon_intensity", engine.carbon_intensity,
               s.dataset.co2_total, mix.total_generation)
        _batch(tr, "engine.water_use", engine.water_use, fleet, share, wi)
        _batch(tr, "engine.capacity_deficit", engine.capacity_deficit,
               fleet, a.battery_energy_for_totals, s.baseline_generation)
        _batch(tr, "refdata.catalog_stats", catalog_stats, catalog,
               ("power", "max_speed", "range")[k % 3])
        _batch(tr, "refdata.builtin_dataset", builtin_dataset, ("us2005", "us2001")[k % 2])
        _batch(tr, "refdata.validate_mix", validate_mix, mix)
        twh = fleet.in_unit("TWh")
        _batch(tr, "quantities.quantity", quantity, twh, "TWh")
        _batch(tr, "quantities.in_unit", fleet.in_unit, "TWh")
        _batch(tr, "quantities.parse_quantity", parse_quantity, f"{twh!r} TWh")
        _batch(tr, "quantities.format_quantity", format_quantity, fleet, "TWh", 5)

    for g in invalid:
        try:
            _parse_counted(g.text, counts, tr)
        except EvDemandError:
            pass

    for fmt in gen.FORMATS:
        with tr.span("report.reproduce"):
            results = reproduce()
        with tr.span("report.render_comparisons"):
            render_comparisons(results, fmt)

    files = write_cli_files(ctx.work, valid[:2], invalid[:1])
    argvs = [("run", ["run", f, "--format", fmt]) for f in ("paper-2005", *files["gen"])
             for fmt in gen.FORMATS]
    argvs += [("validate", ["validate", f]) for f in ("paper-2001", *files["gen"])]
    argvs += [("reproduce", ["reproduce", "--all"]), ("export", ["export-dataset", "us2005", "-"])]
    argvs += [("reject", ["run", files[k]]) for k in ("missing", "directory", "non_utf8")]
    argvs += [("reject", ["reproduce", "no-such-target"]),
              ("reject", ["run", "paper-2005", "--sig-digits", "0"]),
              ("reject", ["run", files["malformed"][0]])]
    for _ in range(3):
        for klass, argv in argvs:
            tr.op += 1
            with tr.span("cli." + klass):
                try:
                    capture_cli(argv)
                except Exception:  # a known defect; cli-cold counts it
                    pass
