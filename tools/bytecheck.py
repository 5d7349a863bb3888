"""Write every output of a fixed set of evdemand calls to one JSON file, so
that two source trees can be compared byte for byte.

Usage::

    python tools/bytecheck.py <src-dir> <out.json>

``<src-dir>`` is the ``src`` directory of the tree to check; its
``evdemand`` package is imported ahead of any other. The inputs come from
``perfbench.gen`` beside this script, so they are the same whichever tree is
checked. Each output is stored under a key that names the call; a call that
raises stores ``"<error class>: <message>"`` instead. Run the script once
per tree and compare the two files, for example with ``diff``.

The calls:

* ``render`` of 180 ``perfbench.gen.scenario_pool`` scenarios (36 from each
  of seeds 1-5) in text, csv and json, each with the default digits, 3 and
  17 significant digits; ``render_scenario`` and ``render_dataset`` of each;
* the error of 150 invalid texts from the same seeds;
* ``render_sweep`` in every format over all ten override paths, with nan,
  inf, 1e300, 1e-300, 1e308, -1 and 0 among the values, for both packaged
  fixtures and 10 scenarios from each seed;
* both packaged fixtures under every method and convention, in every format
  and digit setting;
* ``render_comparisons`` of every target alone and of all targets together,
  in every format.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

SEEDS = range(1, 6)
N_VALID, N_INVALID, N_SWEPT = 36, 30, 10
FORMATS = ("text", "csv", "json")
DIGITS = (None, 3, 17)
EXTREMES = (float("nan"), float("inf"), 1e300, 1e-300, 1e308, -1.0, 0.0)
FIXTURES = ("paper-2005", "paper-2001")


def _outputs(evdemand, gen) -> dict[str, str]:
    from evdemand.errors import EvDemandError
    from evdemand.report import TARGET_IDS
    from evdemand.scenario import (
        Convention,
        Method,
        SweepSpec,
        assess,
        load_builtin_scenario,
        parse_scenario,
        render_dataset,
        render_scenario,
        sweep,
    )

    out: dict[str, str] = {}

    def record(key: str, call) -> None:
        try:
            out[key] = call()
        except EvDemandError as exc:
            out[key] = f"{type(exc).__name__}: {exc}"

    def renders(key: str, scenario) -> None:
        for fmt in FORMATS:
            for digits in DIGITS:
                record(f"{key} render {fmt} {digits}",
                       lambda: evdemand.render(assess(scenario), fmt, digits))

    def sweeps(key: str, scenario) -> None:
        for path, (lo, hi) in gen.SWEEP_PATHS.items():
            spec = SweepSpec.from_values(path, [*EXTREMES, lo, (lo + hi) / 2, hi])
            points = sweep(scenario, spec)
            for fmt in FORMATS:
                record(f"{key} sweep {path} {fmt}",
                       lambda: evdemand.render_sweep(path, points, fmt))

    for name in FIXTURES:
        fixture = load_builtin_scenario(name)
        sweeps(name, fixture)
        for method in Method:
            for convention in Convention:
                renders(f"{name} {method.value} {convention.value}",
                        fixture._replace(method=method, convention=convention))

    for seed in SEEDS:
        valid, invalid = gen.scenario_pool(random.Random(seed), N_VALID, N_INVALID)
        for k, g in enumerate(valid):
            key = f"seed {seed} valid {k}"
            try:
                scenario = parse_scenario(g.text)
            except EvDemandError as exc:
                out[key] = f"{type(exc).__name__}: {exc}"
                continue
            renders(key, scenario)
            record(f"{key} render_scenario", lambda: render_scenario(scenario))
            record(f"{key} render_dataset", lambda: render_dataset(scenario.dataset))
            if k < N_SWEPT:
                sweeps(key, scenario)
        for k, g in enumerate(invalid):
            record(f"seed {seed} invalid {k}", lambda: repr(parse_scenario(g.text)))

    for targets in [[t] for t in TARGET_IDS] + [None]:
        for fmt in FORMATS:
            record(f"comparisons {targets or 'all'} {fmt}",
                   lambda: evdemand.render_comparisons(evdemand.reproduce(targets), fmt))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/bytecheck.py <src-dir> <out.json>", file=sys.stderr)
        return 2
    src_dir, out_path = argv
    sys.path[:0] = [str(Path(src_dir).resolve()), str(Path(__file__).resolve().parents[1])]
    import evdemand
    from perfbench import gen

    outputs = _outputs(evdemand, gen)
    Path(out_path).write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"{len(outputs)} outputs from {Path(evdemand.__file__).parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
