"""Every file of ``tests/golden/`` and the call that writes it, in the
standard library only, so that any supported interpreter can check them::

    PYTHONPATH=src python -B tests/golden_cases.py

prints the name of each golden file whose bytes differ, and exits 1 if any
does."""

import contextlib
import io
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from evdemand.cli import main
from evdemand.report import CellResult, ComparisonResult, render_comparisons
from evdemand.scenario import load_builtin_scenario, load_scenario, render_scenario

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"
INLINE = DATA / "inline-custom-gallons.scn"

# packaged fixtures by name, plus an inline-dataset, custom-chemistry,
# gallons-basis scenario by path
SCENARIOS = {"paper-2005": "paper-2005", "paper-2001": "paper-2001",
             "inline-custom-gallons": str(INLINE)}

# one sweep per fleet basis; the third value of each fails inline
SWEEPS = {
    "paper-2005": ("paper-2005", "strategy.renewable_share", "0,0.3,1.5,0.75"),
    "inline-custom-gallons": (str(INLINE), "fleet.btu_to_wh", "0.2929,0.293071,-0.5,0.31"),
}

# paper-2005 with one battery method: no row of the other method, and the
# totals and the sweep's battery count come from the one computed
SINGLE_METHOD = {m: str(DATA / f"paper-2005-method-{m}.scn") for m in ("a", "b")}

FORMATS = {"text": "txt", "csv": "csv", "json": "json"}


def cli(*argv: str) -> bytes:
    """What ``evdemand <argv>`` writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"evdemand {' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def write_back(arg: str) -> bytes:
    """``render_scenario`` of a packaged fixture name or a ``.scn`` path."""
    s = load_scenario(arg) if arg.endswith(".scn") else load_builtin_scenario(arg)
    return render_scenario(s).encode("utf-8")


def fraction_cells(*cells: CellResult) -> bytes:
    """Comparison text of hand-built cells whose figures are ``Fraction``s:
    their floats' digits, whatever the interpreter."""
    return render_comparisons([ComparisonResult("t", "T", cells)], "text").encode("utf-8")


def _cases() -> dict[str, Callable[[], bytes]]:
    runs = {**SCENARIOS, **{f"paper-2005-method-{m}": p for m, p in SINGLE_METHOD.items()}}
    cases = {}
    for fmt, ext in FORMATS.items():
        for name, arg in runs.items():
            cases[f"run_{name}.{ext}"] = partial(cli, "run", arg, "--format", fmt)
        for name, (arg, path, values) in SWEEPS.items():
            cases[f"sweep_{name}.{ext}"] = partial(cli, "sweep", arg, "--path", path,
                                                   "--values", values, "--format", fmt)
        cases[f"reproduce_all.{ext}"] = partial(cli, "reproduce", "--all", "--format", fmt)
    cases["reproduce_all_sig17.txt"] = partial(cli, "reproduce", "--all", "--sig-digits", "17")
    cases["sweep_paper-2005-method-a.csv"] = partial(
        cli, "sweep", SINGLE_METHOD["a"], "--path", "battery.batteries_per_ev",
        "--values", "4,5,0.5,2.5", "--format", "csv")
    for name, arg in SCENARIOS.items():
        cases[f"render_scenario_{name}.scn"] = partial(write_back, arg)
    cases["export_dataset_us2005.scn"] = partial(cli, "export-dataset", "us2005", "-")
    cases["comparisons_fraction-cell.txt"] = partial(
        fraction_cells, CellResult("x", Fraction(1, 4), 1.0, "frac", "rel", 0.1, "y"))
    # a Fraction under the round2sig rule, and one whose relative error is a Fraction
    cases["comparisons_fraction-rules.txt"] = partial(
        fraction_cells, CellResult("x", Fraction(1, 4), 0.25, "frac", "round2sig", 0.0, "y"),
        CellResult("z", Fraction(1, 3), Fraction(1, 4), "frac", "rel", 0.1, "y"))
    return cases


#: golden file name -> the call whose output it pins
CASES = _cases()


if __name__ == "__main__":
    differing = [name for name, call in sorted(CASES.items())
                 if call() != (GOLDEN / name).read_bytes()]
    for name in differing:
        print(name)
    sys.exit(1 if differing else 0)
