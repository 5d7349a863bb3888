"""Run one in-process workload operation in a fresh interpreter, for setup_s.

Usage: ``python3 perfbench/setupop.py <op.json>``. The harness writes the
operation (a scenario text plus a sweep or a render format), points
PYTHONPATH at the checkout's ``src/`` and times this process from start to
exit, so the time covers interpreter start, package import and the work.
"""

import json
import sys


def main(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        op = json.load(f)
    from evdemand.report import render, render_sweep
    from evdemand.scenario import SweepSpec, assess, parse_scenario, sweep

    scenario = parse_scenario(op["text"])
    if op["kind"] == "sweep":
        points = sweep(scenario, SweepSpec.from_values(op["path"], op["values"]))
        for fmt in ("csv", "json", "text"):
            sys.stdout.write(render_sweep(op["path"], points, fmt))
    else:
        sys.stdout.write(render(assess(scenario), op["format"]))


if __name__ == "__main__":
    main(sys.argv[1])
