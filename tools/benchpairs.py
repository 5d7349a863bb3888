"""Run the benchmark in alternating pairs, a parent commit against this
checkout, and write the summary as one ``BENCH_<n>.json`` file.

Usage::

    python tools/benchpairs.py --parent <rev> --out BENCH_<n>.json
        [--claim <workload> <metric> <least gain>]

The parent is exported with ``git archive`` into a temporary directory; the
change is the working tree of the checkout that holds this script, committed
or not. ``python -m compileall`` runs on ``src``, ``perfbench`` and ``tools``
of both trees. Each of 10 pairs runs ``perfbench/run.py --workload all
--seed i --trace 0`` for ``BENCHMARK.json``'s ``run_seconds`` in both trees,
the parent first in odd pairs and the change first in even ones; 3 held-out
seeds follow the pairs in the same alternation. Then each of 30 launch rounds times ``python -S -m evdemand
run paper-2005`` and the same call with ``site`` in both trees, alternating
which goes first. Before the pairs, ``tools/bytecheck.py`` computes the
group digests of each tree's outputs, and the file records, per side, each
group that differs from that tree's committed ``tools/bytecheck.sha256``,
was added or is gone, and the same from the parent's outputs to the
change's. It also records each tree's ``src/`` line count, per module and
in total, as ``wc -l`` counts them. Every child runs without the caller's
``PYTHON*`` variables.

The summary, ``summarize``, is pure: per workload and end-to-end metric, the
median and quartiles (``statistics.quantiles``, n=4) of each side's runs,
the median's relative change in the metric's worse direction, the pairs the
change won, the parent's IQR and whether the medians lie further apart
than it. ``--claim`` adds a ``claimed_gain`` block: the claim is met when
the median gains at least the given fraction, the change wins at least 9 of
each 10 pairs, the median gap exceeds the parent's IQR, the change wins
every held-out pair, and no more operations fail than at the parent.
"""

import argparse
import json
import math
import os
import platform
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCHES = {"launch-S": ["-S"], "launch": []}  # name -> interpreter flags
LAUNCH_ARGV = ["-m", "evdemand", "run", "paper-2005"]
PAIRS = 10
HELD_OUT = 3  # seeds after the pairs'
LAUNCH_ROUNDS = 30
STATISTIC = ("median and quartiles (statistics.quantiles, n=4) of the runs per side; "
             "change_worse_by is the median's relative change in the metric's worse "
             "direction; change_better_pairs counts the pairs the change won; parent_iqr "
             "is the distance between the parent's quartiles")
# prints a tree's committed bytecheck group digests and those of its outputs
# as JSON; it uses only the names every tree's ``tools/bytecheck.py`` has
_DIGESTS = ("import json, runpy; b = runpy.run_path('tools/bytecheck.py'); "
            "print(json.dumps([b['read_digests'](), "
            "b['group_digests'](b['_outputs'](*b['_import']('src')))]))")
_ALL_WELL = ("every end-to-end metric is within its bound, and every run of both sides was "
             "correct with no failed operation")


def pair_order(n: int) -> list[list[str]]:
    """Which side runs first in each of ``n`` pairs: the parent in odd pairs."""
    return [["parent", "change"] if i % 2 == 0 else ["change", "parent"] for i in range(n)]


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's runs, paired by index, summarized per side and as a change."""
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p_med] * 3
    c_q = statistics.quantiles(change, n=4) if len(change) > 1 else [c_med] * 3
    return {
        "parent_median": p_med, "change_median": c_med,
        "parent_quartiles": p_q, "change_quartiles": c_q,
        "parent_runs": parent, "change_runs": change,
        "change_worse_by": sign * (c_med - p_med) / p_med,
        "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "parent_iqr": p_q[2] - p_q[0],
        "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > p_q[2] - p_q[0],
    }


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per workload, each end-to-end metric of ``BENCHMARK.json`` compared
    between the sides, and the operations each run attempted and failed.
    ``runs[side][i]`` is pair ``i``'s ``perfbench/run.py --workload all``
    result: workload -> ``{"result": {"correct", "attempted", "failed",
    "metrics"}}``."""
    out = {}
    for workload in runs["parent"][0]:
        results = {side: [r[workload]["result"] for r in runs[side]] for side in runs}
        summary = {}
        for m in end_to_end:
            values = {side: [r["metrics"][m["name"]]["value"] for r in results[side]]
                      for side in results}
            row = compare(values["parent"], values["change"], m["better"])
            summary[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                  **row, "within_bound": row["change_worse_by"] <= m["bound"]}
        for count in ("failed", "attempted"):
            summary[count] = {side: [r[count] for r in results[side]] for side in results}
        summary["correct"] = all(r["correct"] for side in results for r in results[side])
        out[workload] = summary
    return out


def claimed_gain(workloads: dict, held_out: dict, workload: str, metric: str,
                 least: float) -> dict:
    """The claim that ``metric`` on ``workload`` gains at least ``least``."""
    row, held = workloads[workload][metric], held_out.get(workload, {}).get(metric)
    pairs = len(row["parent_runs"])
    gain = "fall" if row["better"] == "lower" else "rise"
    block = {
        "workload": workload, "metric": metric,
        "target": (f"{'falls' if gain == 'fall' else 'rises'} by >= {least:.0%}, winning >= "
                   f"{math.ceil(0.9 * pairs)} of {pairs} pairs with a median gap above the "
                   "parent's IQR, every held-out pair, and no more failed operations"),
        gain: -row["change_worse_by"],
        "change_better_pairs": row["change_better_pairs"],
        "median_gap_exceeds_parent_iqr": row["median_gap_exceeds_parent_iqr"],
    }
    if held:
        block[f"held_out_{gain}"] = -held["change_worse_by"]
        block["held_out_change_better_pairs"] = held["change_better_pairs"]
    failed = workloads[workload]["failed"]
    block["met"] = (-row["change_worse_by"] >= least
                    and row["change_better_pairs"] >= math.ceil(0.9 * pairs)
                    and row["median_gap_exceeds_parent_iqr"]
                    and (not held or held["change_better_pairs"] == len(held["parent_runs"]))
                    and sum(failed["change"]) <= sum(failed["parent"]))
    return block


def digest_check(digests: dict[str, tuple[dict, dict]]) -> dict[str, list[str]]:
    """``digests[side]`` is a tree's committed bytecheck group digests and
    those of its outputs. Per side, the groups whose outputs moved from the
    committed digests, and ``parent_to_change``: those that moved from the
    parent's outputs to the change's; each as ``moved_groups`` names them."""
    moved_groups = runpy.run_path(str(ROOT / "tools" / "bytecheck.py"))["moved_groups"]
    return {**{side: moved_groups(*pair) for side, pair in digests.items()},
            "parent_to_change": moved_groups(digests["parent"][1], digests["change"][1])}


def src_lines(tree: Path) -> dict[str, int]:
    """The lines of each Python module under ``tree``'s ``src/``, as ``wc -l``
    counts them, keyed by its path there, and their ``total``."""
    src = tree / "src"
    lines = {path.relative_to(src).as_posix(): path.read_bytes().count(b"\n")
             for path in sorted(src.rglob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def paired_times(parent: list[float], change: list[float]) -> dict:
    """Wall times of alternating rounds: each side's runs, minimum and median,
    and the median of the change/parent ratios of the rounds."""
    sides = {f"{side}_ms": {"runs": runs, "min": min(runs), "median": statistics.median(runs)}
             for side, runs in (("parent", parent), ("change", change))}
    pairs = list(zip(parent, change))
    return {**sides, "median_paired_ratio": statistics.median(c / p for p, c in pairs),
            "change_lower_rounds": sum(c < p for p, c in pairs), "rounds": len(pairs)}


def notes(workloads: dict, claim: dict | None) -> list[str]:
    """One line on the claim, and one on every metric outside its bound or
    every failed or incorrect run."""
    problems = []
    for name, summary in workloads.items():
        for metric, row in summary.items():
            if isinstance(row, dict) and not row.get("within_bound", True):
                problems.append(f"{name} {metric} worse by {row['change_worse_by']:.1%}, "
                                f"beyond its bound of {row['bound']:.0%}")
        if not summary["correct"] or any(map(any, summary["failed"].values())):
            problems.append(f"{name}: a run was incorrect or failed operations")
    if not claim:
        return problems or [_ALL_WELL]
    gain = "fall" if "fall" in claim else "rise"
    return [f"claim {'met' if claim['met'] else 'not met'}: {claim['workload']} "
            f"{claim['metric']} {gain} {claim[gain]:.1%}, {claim['change_better_pairs']} "
            f"pairs won", *(problems or [_ALL_WELL])]


def _env(tree: Path | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    if tree is not None:
        env["PYTHONPATH"] = str(tree / "src")
    return env


def _bench(tree: Path, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --workload all`` result in ``tree``, keyed by workload."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchpairs: perfbench in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digests(tree: Path) -> tuple[dict, dict]:
    """``tree``'s committed bytecheck group digests, and those of its outputs."""
    proc = subprocess.run([sys.executable, "-c", _DIGESTS], cwd=tree, env=_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchpairs: bytecheck in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def _launch_ms(tree: Path, flags: list[str], cwd: str) -> float:
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, *flags, *LAUNCH_ARGV], cwd=cwd, env=_env(tree),
                   stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter_ns() - t0) / 1e6


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent's git revision")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "LEAST"))
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    parent_rev = _git("rev-parse", "--short", args.parent)
    head = _git("rev-parse", "--short", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    seeds = list(range(1, PAIRS + 1))
    held_seeds = list(range(PAIRS + 1, PAIRS + HELD_OUT + 1))
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": ROOT}
        trees["parent"].mkdir()
        archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench", "tools"],
                           cwd=tree, env=_env(), check=True, stdout=subprocess.DEVNULL)
        bytecheck = digest_check({side: _digests(tree) for side, tree in trees.items()})
        lines = {side: src_lines(tree) for side, tree in trees.items()}

        def pairs(seed_list):
            runs = {"parent": [], "change": []}
            for seed, order in zip(seed_list, pair_order(len(seed_list))):
                for side in order:
                    runs[side].append(_bench(trees[side], seed, seconds))
                print(f"benchpairs: seed {seed} done", file=sys.stderr)
            return runs

        workloads = summarize(pairs(seeds), end_to_end)
        held_out = summarize(pairs(held_seeds), end_to_end)
        launch = {name: {"parent": [], "change": []} for name in LAUNCHES}
        for order in pair_order(LAUNCH_ROUNDS):
            for name, flags in LAUNCHES.items():
                for side in order:
                    launch[name][side].append(_launch_ms(trees[side], flags, tmp))
    claim = args.claim and claimed_gain(workloads, held_out, args.claim[0], args.claim[1],
                                        float(args.claim[2]))
    bench = {
        "command": f"python3 perfbench/run.py --workload all --seed N "
                   f"--seconds {seconds:g} --trace 0",
        "runner": "python tools/benchpairs.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "parent_commit": parent_rev,
        "change": (f"the working tree on {head}" + (" with uncommitted changes" if dirty else "")
                   + "; the parent from git archive; python -m compileall on src, perfbench "
                     "and tools of both; PYTHON* variables stripped"),
        "statistic": STATISTIC,
        "seeds": seeds, "pair_order": pair_order(len(seeds)),
        "held_out_seeds": held_seeds, "held_out_pair_order": pair_order(len(held_seeds)),
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "platform": platform.platform()},
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        **({"claimed_gain": claim} if claim else {}),
        "workloads": workloads,
        "held_out": held_out,
        "launch_time": {
            "command": "alternating rounds per side, PYTHON* variables stripped but "
                       "PYTHONPATH=<tree>/src: wall ms of python [-S] " + " ".join(LAUNCH_ARGV),
            **{name: paired_times(sides["parent"], sides["change"])
               for name, sides in launch.items()}},
        "src_lines": lines,
        "bytecheck": {"command": "python tools/bytecheck.py's group digests of each tree's "
                                 "outputs, against that tree's tools/bytecheck.sha256",
                      **bytecheck},
        "notes": notes(workloads, claim) + [f"bytecheck {side}: {len(moved)} groups moved"
                                            for side, moved in bytecheck.items() if moved],
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print("\n".join(bench["notes"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
