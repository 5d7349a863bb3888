"""Write every output of a fixed set of evdemand calls to one JSON file, so
that two source trees can be compared byte for byte.

Usage::

    python tools/bytecheck.py <src-dir> <out.json>
    python tools/bytecheck.py --diff <a.json> <b.json>
    python tools/bytecheck.py --digest

``<src-dir>`` is the ``src`` directory of the tree to check; its
``evdemand`` package is imported ahead of any other. The inputs come from
``perfbench.gen`` beside this script, so they are the same whichever tree is
checked. Each output is stored under a key that names the call; a call that
raises stores ``"<error class>: <message>"`` instead. Run the script once
per tree, then compare the two files with ``--diff``, which prints each key
whose output differs or that one file lacks, and exits 1 if there is any.

The first two words of a key name its group. ``bytecheck.sha256`` beside
this script holds one sha256 per group, of the outputs of the ``src``
beside it; ``--digest`` rewrites that file, and ``tests/test_bytecheck.py``
names each group whose outputs no longer match it (``moved_groups``), as
``tools/benchpairs.py`` does in both trees it compares. A change that alters
outputs on purpose rewrites the file and says which groups moved.

The calls:

* ``render`` of 180 ``perfbench.gen.scenario_pool`` scenarios (36 from each
  of seeds 1-5) in text, csv and json, each with the default digits, 3 and
  17 significant digits; ``render_scenario`` and ``render_dataset`` of each;
* the error of 150 invalid texts from the same seeds;
* ``render_sweep`` in every format over all ten override paths, with nan,
  inf, 1e300, 1e-300, 1e308, -1 and 0 among the values, for both packaged
  fixtures and 10 scenarios from each seed;
* the ``repr`` of every point of each of those sweeps and of the ``[sweep]``
  sections below: its value, its error or every field of its assessment
  but the echoed scenario, so no output is rounded or left out;
* ``render_sweep`` in every format, and the ``repr`` of every point, of
  sweeps of both packaged fixtures whose values repeat between failing
  points, one of them over baselines so large that the capacity deficit
  stays 0.0, so a row's cells are reused across runs and gaps;
* both packaged fixtures under every method and convention, in every format
  and digit setting;
* ``render_scenario``, and ``render_sweep`` in every format of
  ``sweep(s, s.sweep_spec)``, of scenarios on either fleet basis with a
  ``[sweep]`` section: values as numbers and quantities, progressions, and
  every invalid shape, which stores its error instead;
* the error of texts with several problems at once, an unknown chemistry or
  dataset among them, and of texts whose dataset is missing, unknown,
  malformed, a broken inline one beside other bad sections, or an inline
  one without its ``[dataset]`` or ``[mix]`` section, and of one text with a
  value of the wrong kind at each check that quotes the text written;
* ``render_comparisons`` of every target alone and of all targets together,
  in every format;
* ``render_comparisons`` in every format of hand-built results, each alone,
  all together, and none: cells whose label, anchor or note holds a quote, a
  backslash, control characters or non-ASCII text, with and without a note,
  computed as a number, an infinity or a NaN; results with and without notes,
  and one with no cells; and, apart, one cell whose label holds a lone
  carriage return and whose anchor a NUL;
* ``render_sweep`` in every format, and the ``repr`` of every point, of
  ``paper-2005`` under every method and convention with a zero baseline
  generation or a zero per-EV energy, so the base fails to assess and each
  point is assessed in full, and with a zero fuel share, so the fleet
  energy is zero; each swept over the strategy paths or ``ev.per_ev_energy``;
* ``render_sweep`` in every format of hand-built point lists: failed points
  whose errors hold commas, quotes, line breaks or nothing, an evaluated
  point that carries an error, NaN, infinite and -0.0 conversion fractions,
  and int and quantity swept values, each list alone and all of them in one;
* ``render`` in every format of ``paper-2005`` with the water fuels
  ``co<NUL>al``, ``cr<CR>gas`` and ``q"x,y``, and with an int conversion
  fraction of 0, ``render_sweep`` json of one point of it, and
  ``render_sweep`` in every format of a conversion fraction of 1.0 and then 1;
* the ``repr`` of ``parse_document``, or its error with line and column, of
  the pool texts above, the packaged fixtures, every ``tests/**/*.scn`` file,
  and 800 texts made from those files by changing one to three of their
  lines with characters drawn by a seeded generator;
* the number gates of the API, each output or error stored whatever its
  class: ``render``, ``render_comparisons`` and ``format_quantity`` with
  digits that are not an ``int``, ``apply_override`` with a value that is
  not a number or a quantity or is an int too large for a float, progression
  bounds too large for a float, and a sweep that reaches such an int;
* ``render_scenario`` of scenarios no file can hold (a changed built-in
  chemistry, inline water pairs that differ from the dataset's, a count
  quantity among the sweep values), and ``render_dataset`` of a dataset
  with 1e25 gallons;
* ``render_scenario`` of scenarios whose sweep values are infinite, a NaN,
  or an int a float does not hold (``2**1100``, ``2**53 + 1``), and of one
  whose custom chemistry is named ``my pack``, which is not an identifier;
* write-back of names and labels a file would not read back: ``render_dataset``
  of a mix source ``gas wet``, ``render_scenario`` of a built-in scenario
  with the water fuel ``coal x``, and of a custom chemistry with its own
  display name, its own notes, or both as the loader gives them;
* write-back of what the loader refuses: a built-in scenario's water fuel
  ``wind``, ``coal`` twice, or an intensity in ``kWh``; an inline water fuel
  ``wind``; a mix share of 1.5, shares that sum to 0.9, a source twice;
  ``batteries_per_ev`` 0.5, ``fleet.total_energy`` in ``t``, a per-EV energy
  in ``kW``, ``renewable_share`` in ``TWh`` or bare, ``co2_total`` in
  ``TWh``; and a sweep over ``fleet.gallons`` on the shares basis;
* ``render_dataset`` with a header comment of two lines, one of which is not
  a comment, and of three, which write a ``[fleet]`` section;
* digits other than ASCII ``0-9`` (Arabic-Indic one and three, fullwidth
  one) in a file value, a list item and a quantity literal, and through
  ``parse_quantity`` and ``scnformat.number``, which reads the sweep flags;
* figures with no digits: ``format_quantity`` at every digit count of a mass
  that overflows in ``kg``, ``_format_sig`` of a NaN and of both infinities,
  and ``render`` text of assessments whose conversion fraction or ratio to
  the baseline is a NaN or an infinity;
* ``format_quantity`` at every digit count from 1 to 17 of magnitudes at
  the edges of the plain range: 1e-4, 1e15 and 1e16, the floats beside
  them and values just below them that round up to them, the two printed
  figures on a rounding tie, ``5e-324`` and the largest float;
* the exit code, stdout and stderr of in-process ``cli.main`` calls, help
  wrapped to 80 columns: well-formed command lines with options before or
  after the positional and repeated, and the forms only argparse reads,
  ``--opt=value``, an abbreviation, ``--``, a value starting with ``-``,
  targets split by an option and ``-h``, beside usage errors of each kind;
* hand-built ``paper-2005`` records whose fields have the wrong type (a bare
  float for a quantity, an energy for the renewable share, None for a record
  or for a record its dataset holds, a str for the battery count or for the
  method or convention, None for the name), and two that pass (an int count,
  no water pairs), each through ``assess``, the first point of
  ``iter_sweep``, ``render_scenario`` and ``render`` in every format of the
  fixture's assessment holding it; and ``render_comparisons`` in every
  format of cells whose computed figure is a bool, an int or a ``Fraction``,
  and of two ``Fraction`` cells, one under the ``round2sig`` rule and one
  whose expected figure is a ``Fraction`` too.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

SEEDS = range(1, 6)
N_VALID, N_INVALID, N_SWEPT = 36, 30, 10
FORMATS = ("text", "csv", "json")
DIGITS = (None, 3, 17)
EXTREMES = (float("nan"), float("inf"), 1e300, 1e-300, 1e308, -1.0, 0.0)
FIXTURES = ("paper-2005", "paper-2001")
SWEEP_HEADS = {"shares": "[meta]\ndataset = us2005\n",
               "gallons": "[meta]\ndataset = us2001\n[fleet]\nbasis = gallons\n"}
RENEWABLE = "path = strategy.renewable_share\n"
SWEEP_SECTIONS = (
    # values, as numbers and quantities; some fail their points inline
    RENEWABLE + "values = 0.1, 0.2, 0.3",
    RENEWABLE + "values = 0.5, 30 %, 1.5, 1 kWh",
    "path = strategy.baseline_generation\nvalues = 4055 TWh, 3e15, 1e300 Wh, 0 Wh",
    "path = battery.batteries_per_ev\nvalues = 1, 2.5, 4, 1e400, 0.5",
    "path = ev.per_ev_energy\nvalues = 115 kWh, 1e-300 Wh, 20000",
    "path = fleet.total_energy\nvalues = 29000 TWh, 1e308",
    "path = fleet.gallons\nvalues = 113.1e9 gal, 1",
    "path = fleet.btu_to_wh\nvalues = 0.2929, 0.293071 Wh/Btu",
    # progressions
    RENEWABLE + "from = 0.1\nto = 0.3\nstep = 0.1",
    RENEWABLE + "from = 0\nto = 1\nstep = 0.05",
    RENEWABLE + "from = 0.5\nto = 0.5\nstep = 1",
    "path = battery.batteries_per_ev\nfrom = 4\nto = 1\nstep = -0.5",
    "path = ev.per_ev_energy\nfrom = 1e3\nto = 1e5\nstep = 1e4",
    "path = fleet.fuel_share\nfrom = 0.3\nto = 0.9\nstep = 0.15",
    "path = fleet.heat_content\nfrom = 100000\nto = 130000\nstep = 7500",
    "path = strategy.baseline_generation\nfrom = 1e15\nto = 5e15\nstep = 1e15",
    # every invalid shape
    RENEWABLE + "values = 0.1\nfrom = 0\nto = 1\nstep = 0.5",
    RENEWABLE + "values = 0.1\nfrom = 0",
    RENEWABLE + "from = 0\nto = 1",
    RENEWABLE,
    "values = 0.1",
    'path = "strategy.renewable_share"\nvalues = 0.1',
    "path = strategy.cloudiness\nvalues = 0.5",
    "path = strategy.cloudiness\nfrom = 0\nto = 1e6\nstep = 1",
    RENEWABLE + 'values = "x"',
    RENEWABLE + 'values = y, "x"',
    RENEWABLE + "values = 0.5, y",
    RENEWABLE + "values = 0.5,",
    RENEWABLE + 'from = "0"\nto = 1\nstep = 0.5',
    RENEWABLE + "from = nan\nto = 1\nstep = 0.5",
    RENEWABLE + "from = 0\nto = 1e400\nstep = 1",
    RENEWABLE + "from = 0\nto = 1\nstep = 0",
    RENEWABLE + "from = 1\nto = 0\nstep = 0.1",
    RENEWABLE + "from = 0\nto = 1e6\nstep = 1",
    RENEWABLE + "values = 0.1\ncolour = 1",
)
NAN = float("nan")
# values that repeat between failing points; a baseline above the fleet's
# total keeps the capacity deficit at 0.0 while the other columns move
REPEATS = (
    ("strategy.renewable_share", (0.3, 0.3, -1.0, 0.3, NAN, 0.5, 0.5)),
    ("strategy.baseline_generation", (1e17, 1e17, 2e17, -1.0, 2e17, NAN, 4055e12, 1e17)),
    ("battery.batteries_per_ev", (4.0, 4.0, 0.5, 4.0, 2.0, 2.0, 1e400, 2.0)),
    ("ev.per_ev_energy", (25000.0, 25000.0, 0.0, 25000.0, -1.0, 25000.0)),
    ("fleet.fuel_share", (0.6, 0.6, 1.5, 0.6, 0.0, 0.0, 0.6)),
)
# (name, override that makes the base, sweeps of it): a zero baseline or
# per-EV energy fails the base, a zero fuel share zeroes the fleet energy
EDGE_BASES = (
    ("zero baseline", "strategy.baseline_generation", 0.0,
     (("strategy.baseline_generation", (0.0, 4055e12)),
      ("strategy.renewable_share", (0.0, 0.3, 1.0)))),
    ("zero per-EV energy", "ev.per_ev_energy", 0.0,
     (("ev.per_ev_energy", (0.0, 25000.0)),)),
    ("zero fleet", "fleet.fuel_share", 0.0,
     (("strategy.renewable_share", (0.0, 0.3, 1.0)),
      ("strategy.baseline_generation", (0.0, 4055e12)),
      ("ev.per_ev_energy", (0.0, 25000.0)))),
)
# what a changed line is made of: whitespace a line may hold (and \x0c and \r,
# which end one), quotes, comments, list and entry syntax, names, numbers and units
MUTATIONS = (" ", "\t", "\xa0", "\u3000", "\x1f", "\x0c", "\r", '"', "#", ",", "=", "[", "]",
             "[a]", "k", "é", "\u0663", "1", "0.5", "e3", "E-2", ".", "-", "_", "nan",
             "TWh", "%", "gal/MWh", "count", "furlong")
N_MUTATED = 800
# errors a csv sweep quotes or leaves bare, under one interpreter or another
HAND_ERRORS = ("a,b", "cr\rlf", "lf\nonly", "", 'say "no"', "\r", "\r\n", "tab\tx\x00")
# several problems at once, an unknown chemistry or dataset among them
PROBLEM_TEXTS = (
    "[meta]\ndataset = us2005\ncolour = 1\n[battery]\nchemistry = unobtainium\n",
    "[meta]\ndataset = us1999\ncolour = 1\n[bogus]\nx = 1\n",
    "[meta]\ndataset = us2005\n[battery]\nchemistry = unobtainium\nmethod = c\n"
    "[sweep]\npath = strategy.cloudiness\nvalues = 1\n",
    "[meta]\ndataset = us1999\n[sweep]\npath = strategy.renewable_share\nfrom = 0\n",
    "[meta]\nname = 3\ndataset = us2005\n[fleet]\nbasis = coal\n[strategy]\n"
    "renewable_share = 1 kWh\n[turbines]\ncount = 5\n",
    # a missing, malformed or broken dataset hides no other problem
    "[strategy]\nrenewable_shard = 3 %\n",
    '[meta]\ndataset = "us2005"\n',
    "[dataset]\nid = custom\ntotal_generation = 1 kg\n[mix]\ncoal = 2\n"
    "[ev]\npower = 100 kWh\nrange = 100 mi\n"
    "[battery]\nchemistry = custom\npack_capacity = 1 kg\n",
    # no chemistry key names the built-in nimh, which takes no pack fields
    "[meta]\ndataset = us2005\n[battery]\npack_capacity = 30 kWh\n",
    # an inline dataset without its [dataset] or its [mix] section
    "[mix]\ncoal = x\n[water]\ncoal = 3 kWh\n",
    "[dataset]\ntotal_generation = 1 kg\ncolour = 1\n[water]\ncoal = 3 kWh\n",
    # a value of the wrong kind at each site that quotes the text written
    '[meta]\nname = 5\ndataset = "us2005"\n[fleet]\nbasis = gallons\nbtu_to_wh = approx\n'
    '[ev]\nper_ev_energy = 115\n[battery]\nchemistry = "nimh"\nbatteries_per_ev = 4 kWh\n'
    'method = c\n[sweep]\npath = strategy.renewable_share\nvalues = 0.1, "x"\nfrom = "0"\n',
)
# text a JSON string escapes: a quote, a backslash, control characters, non-ASCII
ODD_TEXTS = ('say "no"', "back\\slash", "tab\there\x00\x1f\x7f", "é ☃ \U0001f600", "")
# the API's number gates: digits that are not an int, override values that
# are not a number or a quantity, and ints too large for a float
GATE_DIGITS = (3.5, 2.0, 4.0, "3", True, 0, 18)
GATE_OVERRIDES = (("battery.batteries_per_ev", None), ("battery.batteries_per_ev", "4"),
                  ("battery.batteries_per_ev", True), ("strategy.renewable_share", "0.5"),
                  ("strategy.baseline_generation", 2**1100),
                  ("battery.batteries_per_ev", 2**1100), ("battery.batteries_per_ev", -2**1100))
GATE_BOUNDS = ((0, 2**1100, 1), (-10**308, 10**308, 1), (10**308, -10**308, 1))
GATE_SWEEPS = (("strategy.baseline_generation", (1e15, 2**1100)),
               ("battery.batteries_per_ev", (4, 2**1100)))
# magnitudes at the edges of the plain range, the floats beside them, and values
# that round up to them at k digits; the two figures on a rounding tie; the extremes
SIG_MAGNITUDES = sorted(
    {v for edge in (1e-4, 1e15, 1e16)
     for v in (edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf),
               *(edge * (1 - 5 * 10.0**-k) for k in range(1, 18)))}
    | {2899.3250000000003, 172.47750000000005, 5e-324, sys.float_info.max})

RENEWABLE_FLAG = ("--path", "strategy.renewable_share")
# command lines for cli.main
CLI_ARGVS = (
    ("run", "paper-2005", "--format", "json"),
    ("run", "paper-2005", "--format=json"),
    ("run", "paper-2005", "--form", "json"),
    ("run", "--format", "csv", "paper-2001"),
    ("run", "paper-2005", "--format", "csv", "--format", "text", "--sig-digits", "3"),
    ("run", "--", "paper-2005"),
    ("run", "paper-2005", "--sig-digits", "0"),
    ("run", "paper-2005", "--sig-digits", "x"),
    ("run", "paper-2005", "--format", "xml"),
    ("run", "paper-2005", "--format"),
    ("run",),
    ("run", "paper-2005", "paper-2001"),
    ("run", "missing.scn"),
    ("validate", "paper-2001"),
    ("validate", "paper-2005", "--format", "json"),
    ("reproduce", "--all"),
    ("reproduce", "--all", "--format", "csv"),
    ("reproduce", "table3", "sec6-co2", "--format", "json"),
    ("reproduce", "table3", "--all", "sec6-co2"),
    ("reproduce",),
    ("reproduce", "no-such-target"),
    ("export-dataset", "us2005", "-"),
    ("export-dataset", "us1999", "-"),
    ("sweep", "paper-2005", *RENEWABLE_FLAG, "--values", "0.1,0.5"),
    ("sweep", "--path=strategy.renewable_share", "paper-2005", "--from", "0", "--to", "1",
     "--step", "0.25"),
    ("sweep", "paper-2005", *RENEWABLE_FLAG, "--from", "-1", "--to", "1", "--step", "1"),
    ("sweep", "paper-2005", *RENEWABLE_FLAG, "--values", "x"),
    ("sweep", "paper-2005", "--from", "1"),
    (),
    ("bogus",),
    ("-h",),
    ("--help",),
    ("run", "-h"),
    ("reproduce", "-h"),
    ("validate", "--help"),
    ("sweep", "-h"),
    ("export-dataset", "-h"),
)


def _cli_outputs() -> dict[str, str]:
    """The exit code, stdout and stderr of ``cli.main`` on each of ``CLI_ARGVS``."""
    from evdemand.cli import main

    out = {}
    for argv in CLI_ARGVS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(stdout), \
                redirect_stderr(stderr):
            code = main(argv)
        out[f"cli {' '.join(argv)}"] = (f"exit {code}\n--- stdout\n{stdout.getvalue()}"
                                        f"--- stderr\n{stderr.getvalue()}")
    return out


def _outputs(evdemand, gen) -> dict[str, str]:
    from evdemand.errors import EvDemandError
    from evdemand.quantities import Dimension, Quantity, _format_sig, parse_quantity, quantity
    from evdemand.report import TARGET_IDS, CellResult, ComparisonResult
    from evdemand.scenario import (
        BUILTIN_SCENARIOS,
        Convention,
        ExplicitPerEv,
        Method,
        SweepPoint,
        SweepSpec,
        apply_override,
        assess,
        builtin_scenario_text,
        iter_sweep,
        load_builtin_scenario,
        parse_scenario,
        render_dataset,
        render_scenario,
        sweep,
    )
    from evdemand.scnformat import number, parse_document

    out: dict[str, str] = {}

    def record(key: str, call, catch=EvDemandError) -> None:
        try:
            out[key] = call()
        except catch as exc:
            out[key] = f"{type(exc).__name__}: {exc}"

    def renders(key: str, scenario) -> None:
        for fmt in FORMATS:
            for digits in DIGITS:
                record(f"{key} render {fmt} {digits}",
                       lambda: evdemand.render(assess(scenario), fmt, digits))

    def parsed(key: str, text: str):
        """The scenario ``text`` gives, or None once its error is recorded."""
        try:
            return parse_scenario(text)
        except EvDemandError as exc:
            out[key] = f"{type(exc).__name__}: {exc}"
            return None

    def swept(key: str, scenario, spec):
        """Every point of the sweep, its ``repr`` recorded under ``key``."""
        points = sweep(scenario, spec)
        out[key] = "\n".join(repr(p._replace(assessment=p.assessment._replace(scenario=None)))
                             if p.assessment else repr(p) for p in points)
        return points

    def sweeps(key: str, scenario) -> None:
        for path, (lo, hi) in gen.SWEEP_PATHS.items():
            spec = SweepSpec.from_values(path, [*EXTREMES, lo, (lo + hi) / 2, hi])
            points = swept(f"{key} sweep {path} points", scenario, spec)
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
            if (scenario := parsed(key, g.text)) is None:
                continue
            renders(key, scenario)
            record(f"{key} render_scenario", lambda: render_scenario(scenario))
            record(f"{key} render_dataset", lambda: render_dataset(scenario.dataset))
            if k < N_SWEPT:
                sweeps(key, scenario)
        for k, g in enumerate(invalid):
            record(f"seed {seed} invalid {k}", lambda: repr(parse_scenario(g.text)))

    for basis, head in SWEEP_HEADS.items():
        for k, section in enumerate(SWEEP_SECTIONS):
            key = f"[sweep] {basis} {k}"
            if (scenario := parsed(key, f"{head}[sweep]\n{section}\n")) is None:
                continue
            spec = scenario.sweep_spec
            record(f"{key} render_scenario", lambda: render_scenario(scenario))
            points = swept(f"{key} points", scenario, spec)
            for fmt in FORMATS:
                record(f"{key} {fmt}", lambda: evdemand.render_sweep(spec.path, points, fmt))
    for k, text in enumerate(PROBLEM_TEXTS):
        record(f"problems {k}", lambda: repr(parse_scenario(text)))

    for name in FIXTURES:
        fixture = load_builtin_scenario(name)
        for k, (path, values) in enumerate(REPEATS):
            key = f"{name} repeats {k} {path}"
            points = swept(f"{key} points", fixture, SweepSpec.from_values(path, values))
            for fmt in FORMATS:
                record(f"{key} {fmt}", lambda: evdemand.render_sweep(path, points, fmt))

    for targets in [[t] for t in TARGET_IDS] + [None]:
        for fmt in FORMATS:
            record(f"comparisons {targets or 'all'} {fmt}",
                   lambda: evdemand.render_comparisons(evdemand.reproduce(targets), fmt))

    odd = ODD_TEXTS
    hand_results = {
        "odd": ComparisonResult("odd", 'title "\xe9"', tuple(
            CellResult(label, 1.5, 2.0, "TWh", rule, 0.1, anchor, note)
            for label, anchor, note in zip(odd, reversed(odd), odd[2:] + odd[:2])
            for rule in ("rel", "erratum")), ("a note", *odd)),
        "non-finite": ComparisonResult("non-finite", "T", tuple(
            CellResult("x", computed, 2.0, "TWh", "rel", 0.1, "y")
            for computed in (math.inf, -math.inf, math.nan))),
        "no notes": ComparisonResult("no-notes", "T", (
            CellResult("x", 0.0, 0.0, "frac", "exact", 0.0, "y"),)),
        "no cells": ComparisonResult("no-cells", "", (), ("n",)),
    }
    for name, results in ({k: [r] for k, r in hand_results.items()}
                          | {"all": [*hand_results.values()], "none": []}).items():
        for fmt in FORMATS:
            record(f"comparisons hand-built {name} {fmt}",
                   lambda: evdemand.render_comparisons(results, fmt), Exception)
    cr = [ComparisonResult("cr", "T", (CellResult("cr\rlf", 1.5, 2.0, "TWh", "rel", 0.1,
                                                  "nul\x00"),))]
    for fmt in FORMATS:
        record(f"comparisons hand-built cr {fmt}",
               lambda: evdemand.render_comparisons(cr, fmt), Exception)

    fixture = load_builtin_scenario("paper-2005")
    for name, base_path, base_value, edge_sweeps in EDGE_BASES:
        for method in Method:
            for convention in Convention:
                base = apply_override(fixture, base_path, base_value)._replace(
                    method=method, convention=convention)
                for path, values in edge_sweeps:
                    key = f"edge {name} {method.value} {convention.value} {path}"
                    points = swept(f"{key} points", base, SweepSpec.from_values(path, values))
                    for fmt in FORMATS:
                        record(f"{key} {fmt}", lambda: evdemand.render_sweep(path, points, fmt))

    a, inf = assess(fixture), float("inf")
    hand_built = {
        "failed": [SweepPoint(0.5, None, e) for e in HAND_ERRORS],
        "evaluated with error": [SweepPoint(0.5, a, "x"), SweepPoint(0.5, a, "a,b\r"),
                                 SweepPoint(0.5, a)],
        "fractions": [SweepPoint(0.5, a._replace(conversion_fraction=f))
                      for f in (NAN, inf, -inf, -0.0, 0.0, -0.0, NAN)],
        "values": [SweepPoint(3, a), SweepPoint(0, None, "x"), SweepPoint(quantity(30, "TWh"), a),
                   SweepPoint(quantity(0.5, "frac"), None, "y"), SweepPoint(2**53, a)],
    }
    hand_built["all"] = [p for points in hand_built.values() for p in points]
    for name, points in hand_built.items():
        for fmt in FORMATS:
            record(f"hand-built {name} {fmt}",
                   lambda: evdemand.render_sweep("strategy.renewable_share", points, fmt))
    odd_fuels = a._replace(water=tuple((fuel, a.water[0][1])
                                       for fuel in ("co\x00al", "cr\rgas", 'q"x,y')))
    for fmt in FORMATS:
        record(f"render hand-built odd fuels {fmt}", lambda: evdemand.render(odd_fuels, fmt),
               Exception)
    int_figure = a._replace(conversion_fraction=0)
    int_after_float = [SweepPoint(0.5, a._replace(conversion_fraction=f)) for f in (1.0, 1)]
    for fmt in FORMATS:
        record(f"int figure render {fmt}", lambda: evdemand.render(int_figure, fmt))
        record(f"int after float sweep {fmt}",
               lambda: evdemand.render_sweep("strategy.renewable_share", int_after_float, fmt))
    record("int column sweep json", lambda: evdemand.render_sweep(
        "strategy.renewable_share", [SweepPoint(0.5, int_figure)], "json"))

    tests = Path(__file__).resolve().parents[1] / "tests"
    files = {name: builtin_scenario_text(name) for name in BUILTIN_SCENARIOS}
    files |= {str(p.relative_to(tests)): p.read_text(encoding="utf-8")
              for p in sorted(tests.rglob("*.scn"))}
    documents = {f"seed {seed} {kind} {k}": g.text for seed in SEEDS
                 for kind, pool in zip(("valid", "invalid"), gen.scenario_pool(
                     random.Random(seed), N_VALID, N_INVALID)) for k, g in enumerate(pool)}
    documents |= files
    texts, rng = list(files.values()), random.Random(0)
    for k in range(N_MUTATED):
        lines = rng.choice(texts).splitlines()
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines))
            piece = "".join(rng.choices(MUTATIONS, k=rng.randint(1, 4)))
            at = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:at] + piece + lines[i][at + rng.randint(0, 3):]
        documents[f"mutated {k}"] = "\n".join(lines)
    for key, text in documents.items():
        record(f"document {key}", lambda: repr(parse_document(text)))

    def probe(key: str, call) -> None:
        """``record``, but an error of any class is stored."""
        record(key, call, Exception)

    results, q = evdemand.reproduce(None), quantity(1, "TWh")
    for digits in GATE_DIGITS:
        probe(f"gate render {digits!r}", lambda: evdemand.render(a, "text", digits))
        probe(f"gate comparisons {digits!r}",
              lambda: evdemand.render_comparisons(results, "text", digits))
        probe(f"gate format_quantity {digits!r}",
              lambda: evdemand.format_quantity(q, "TWh", digits))
    for path, value in GATE_OVERRIDES:
        probe(f"gate override {path} {value!r}",
              lambda: repr(apply_override(fixture, path, value)))
    for bounds in GATE_BOUNDS:
        probe(f"gate progression {bounds!r}",
              lambda: repr(SweepSpec("strategy.renewable_share", None, *bounds)))
    for path, values in GATE_SWEEPS:
        probe(f"gate sweep {path} {values!r}", lambda: "\n".join(
            repr(p.error) for p in sweep(fixture, SweepSpec(path, values))))
    ds = fixture.dataset
    unwritable = {
        "changed nimh": fixture._replace(chemistry=fixture.chemistry._replace(
            manufacture_energy=quantity(1, "kWh"))),
        "inline water": fixture._replace(dataset=ds._replace(id="mine"),
                                         water=(("coal", quantity(1, "gal/MWh")),)),
        "count sweep value": fixture._replace(sweep_spec=SweepSpec(
            "battery.batteries_per_ev", [2.0, Quantity(3.0, Dimension.COUNT)])),
    }
    for name, scenario in unwritable.items():
        probe(f"unwritable {name}", lambda: render_scenario(scenario))
    probe("render_dataset 1e25 gal", lambda: render_dataset(ds._replace(
        id="mine", household_gasoline=quantity(1e25, "gal"))))
    for name, value in (("inf", inf), ("-inf", -inf), ("nan", NAN), ("2**1100", 2**1100),
                        ("2**53 + 1", 2**53 + 1)):
        probe(f"write-back sweep value {name}", lambda: render_scenario(fixture._replace(
            sweep_spec=SweepSpec("battery.batteries_per_ev", [2.0, value]))))
    probe("write-back chemistry my pack", lambda: render_scenario(fixture._replace(
        chemistry=fixture.chemistry._replace(name="my pack", display_name="my pack"))))
    mix = ds.mix._replace(entries=(("gas wet", ds.mix.entries[0][1]), *ds.mix.entries[1:]))
    probe("write-back mix source gas wet", lambda: render_dataset(ds._replace(id="mine", mix=mix)))
    probe("write-back water fuel coal x", lambda: render_scenario(fixture._replace(
        water=(("coal x", quantity(1, "gal/MWh")),))))
    mine = fixture.chemistry._replace(name="mine", display_name="mine",
                                      emissions_note="user supplied",
                                      recycling_note="user supplied")
    for name, chemistry in (("as loaded", mine),
                            ("display name", mine._replace(display_name="My pack")),
                            ("notes", mine._replace(recycling_note="recycled"))):
        probe(f"write-back chemistry labels {name}",
              lambda: render_scenario(fixture._replace(chemistry=chemistry)))
    inline, shares = ds._replace(id="mine"), ds.mix.entries

    def with_mix(*entries):
        return inline._replace(mix=ds.mix._replace(entries=entries))

    refused = {
        "water fuel wind": fixture._replace(water=(("wind", quantity(1, "gal/MWh")),)),
        "water fuel coal twice": fixture._replace(water=(("coal", quantity(1, "gal/MWh")),) * 2),
        "inline water fuel wind": inline._replace(
            water_intensity={"wind": quantity(1, "gal/MWh")}),
        "water intensity in kWh": fixture._replace(water=(("coal", quantity(1, "kWh")),)),
        "mix share 1.5": with_mix((shares[0][0], 1.5), *shares[1:]),
        "mix sums to 0.9": with_mix((shares[0][0], shares[0][1] - 0.1), *shares[1:]),
        "mix source twice": with_mix(*shares, shares[0]),
        "batteries_per_ev 0.5": fixture._replace(batteries_per_ev=0.5),
        "fleet.total_energy in t": fixture._replace(fleet_basis=fixture.fleet_basis._replace(
            total_energy=quantity(1, "t"))),
        "per-EV energy in kW": fixture._replace(ev_reference=ExplicitPerEv(quantity(1, "kW"))),
        "renewable_share in TWh": fixture._replace(renewable_share=quantity(1, "TWh")),
        "renewable_share bare": fixture._replace(renewable_share=0.3),
        "co2_total in TWh": inline._replace(co2_total=quantity(1, "TWh")),
        "sweep fleet.gallons on shares": fixture._replace(
            sweep_spec=SweepSpec("fleet.gallons", [1e9])),
    }
    for name, obj in refused.items():
        render = render_scenario if type(obj) is type(fixture) else render_dataset
        probe(f"write-back refused {name}", lambda: render(obj))
    for name, comment in (("not a comment", "x\nnot a comment"),
                          ("fleet section", "x\n[fleet]\nbasis = gallons")):
        probe(f"write-back comment {name}", lambda: render_dataset(ds, comments=[comment]))
    for digit in ("\u0661", "\u0663", "\uff11"):
        for value in (digit, f"1, {digit}", f"{digit} TWh"):
            probe(f"ascii digits document {value!r}",
                  lambda: repr(parse_document(f"[a]\nx = {value}\n")))
        probe(f"ascii digits parse_quantity {digit!r}",
              lambda: repr(parse_quantity(f"{digit} TWh")))
        probe(f"ascii digits number {digit!r}", lambda: repr(number(digit)))
    probe("no digits format_quantity 1e308 t in kg", lambda: "\n".join(
        evdemand.format_quantity(Quantity(1e308, Dimension.MASS), "kg", digits)
        for digits in range(1, 18)))
    for x in (NAN, inf, -inf):
        probe(f"no digits _format_sig {x!r}", lambda: "\n".join(
            _format_sig(x, digits) for digits in range(1, 18)))
        for name, hand in (("conversion_fraction", a._replace(conversion_fraction=x)),
                           ("ratio_to_baseline", a._replace(
                               deficit=a.deficit._replace(ratio_to_baseline=x)))):
            for digits in DIGITS:
                probe(f"no digits render {name} {x!r} {digits}",
                      lambda: evdemand.render(hand, "text", digits))
    for m in SIG_MAGNITUDES:
        probe(f"format_quantity {m!r}", lambda: "\n".join(
            evdemand.format_quantity(Quantity(m, Dimension.ENERGY), "Wh", digits)
            for digits in range(1, 18)))
    hand_records = {
        "renewable_share 0.5": {"renewable_share": 0.5},
        "baseline_generation 4055.0": {"baseline_generation": 4055.0},
        **{f"{field} None": {field: None} for field in (
            "fleet_basis", "chemistry", "dataset", "water", "ev_reference", "name")},
        "batteries_per_ev '4'": {"batteries_per_ev": "4"},
        "batteries_per_ev 4": {"batteries_per_ev": 4},
        "water ()": {"water": ()},
        "renewable_share in TWh": {"renewable_share": quantity(1, "TWh")},
        **{f"dataset.{field} None": {"dataset": fixture.dataset._replace(**{field: None})}
           for field in ("mix", "water_intensity")},
        "dataset.mix.entries None": {"dataset": fixture.dataset._replace(
            mix=fixture.dataset.mix._replace(entries=None))},
        "method 'both'": {"method": "both"},
        "convention 'published'": {"convention": "published"},
    }
    first_point = SweepSpec("battery.batteries_per_ev", [2.0])
    for name, change in hand_records.items():
        hand = fixture._replace(**change)
        key = f"odd types record {name}"
        probe(f"{key} assess", lambda: repr(assess(hand)._replace(scenario=None)))
        probe(f"{key} iter_sweep", lambda: repr(next(iter_sweep(hand, first_point))._replace(
            assessment=None)))
        probe(f"{key} render_scenario", lambda: render_scenario(hand))
        for fmt in FORMATS:
            probe(f"{key} render {fmt}", lambda: evdemand.render(a._replace(scenario=hand), fmt))
    for kind, values in (("bool", (True, False)), ("int", (0, 3)),
                         ("Fraction", (Fraction(1, 4),))):
        cells = [ComparisonResult(kind, "T", tuple(
            CellResult("x", v, 1.0, "frac", "rel", 0.1, "y") for v in values))]
        for fmt in FORMATS:
            probe(f"odd types cell {kind} {fmt}",
                  lambda: evdemand.render_comparisons(cells, fmt))
    cells = [ComparisonResult("Fraction rules", "T", (
        CellResult("x", Fraction(1, 4), 0.25, "frac", "round2sig", 0.0, "y"),
        CellResult("z", Fraction(1, 3), Fraction(1, 4), "frac", "rel", 0.1, "y")))]
    for fmt in FORMATS:
        probe(f"odd types cell Fraction rules {fmt}",
              lambda: evdemand.render_comparisons(cells, fmt))
    return out | _cli_outputs()


def diff(a_path: str, b_path: str) -> int:
    """Print each key whose output differs between two output files, or that
    one of them lacks; 1 if there is any, else 0."""
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (a_path, b_path))
    both = a.keys() & b.keys()
    differ = sorted(k for k in a.keys() | b.keys() if k not in both or a[k] != b[k])
    for key in differ:
        where = "differs" if key in both else f"only in {a_path if key in a else b_path}"
        print(f"{where}: {key}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} keys differ")
    return 1 if differ else 0


DIGEST = Path(__file__).with_name("bytecheck.sha256")


def group_digests(outputs: dict[str, str]) -> dict[str, str]:
    """The sha256 of each key group's keys and outputs, in key order."""
    groups: dict[str, dict[str, str]] = {}
    for key in sorted(outputs):
        groups.setdefault(" ".join(key.split()[:2]), {})[key] = outputs[key]
    return {group: hashlib.sha256(json.dumps(members).encode()).hexdigest()
            for group, members in groups.items()}


def read_digests(path: Path = DIGEST) -> dict[str, str]:
    """Group -> sha256, from lines ``<sha256>  <group>`` as ``--digest`` writes them."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return {group: digest for digest, _, group in (line.partition("  ") for line in lines)}


def moved_groups(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Each group whose digest in ``got`` differs from ``want``'s, or that
    only one of them has: ``differs: <group>``, ``added: <group>`` (only in
    ``got``) or ``gone: <group>``, each kind in group order."""
    moved = [f"differs: {g}" for g in sorted(want.keys() & got.keys()) if want[g] != got[g]]
    moved += [f"added: {g}" for g in sorted(got.keys() - want.keys())]
    return moved + [f"gone: {g}" for g in sorted(want.keys() - got.keys())]


def _import(src_dir: str | Path):
    """The ``evdemand`` package of ``src_dir``, and ``perfbench.gen`` beside this script."""
    sys.path[:0] = [str(Path(src_dir).resolve()), str(Path(__file__).resolve().parents[1])]
    import evdemand
    from perfbench import gen

    return evdemand, gen


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(argv[1], argv[2])
    if argv == ["--digest"]:
        digests = group_digests(_outputs(*_import(DIGEST.parents[1] / "src")))
        DIGEST.write_text("".join(f"{digests[g]}  {g}\n" for g in sorted(digests)),
                          encoding="utf-8")
        print(f"{len(digests)} group digests written to {DIGEST}")
        return 0
    if len(argv) != 2 or argv[0].startswith("-"):
        print("usage: python tools/bytecheck.py <src-dir> <out.json>\n"
              "       python tools/bytecheck.py --diff <a.json> <b.json>\n"
              "       python tools/bytecheck.py --digest", file=sys.stderr)
        return 2
    src_dir, out_path = argv
    evdemand, gen = _import(src_dir)
    outputs = _outputs(evdemand, gen)
    Path(out_path).write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"{len(outputs)} outputs from {Path(evdemand.__file__).parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
