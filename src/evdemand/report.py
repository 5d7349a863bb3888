"""Deterministic rendering of assessments, sweeps, and reproduction reports.

Text output is column-aligned; CSV quotes each cell by one rule, ``_csv``,
and ends lines with LF; JSON is two-space indented with sorted keys and
shortest round-trip numbers. Rendering the same inputs twice yields
identical bytes.

The reproduction report compares the pipeline's computed values against the
published study's printed figures, cell by cell, at fixed tolerances. Every
target is declared once, in ``_TARGETS``: its title, its notes and its
cells. One cell (natural-gas freshwater) is a documented expected mismatch:
the printed figure cannot be derived from the study's own stated share and
intensity, so the cell passes by carrying the erratum flag rather than by
matching.
"""

import io
import math
import operator
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from . import engine
from .errors import DimensionMismatch, InvalidRenderOption, UnknownTarget, ValidationError
from .quantities import CATALOG, Dimension, Quantity, check_sig_digits
from .quantities import _format_sig as _sig  # shared deterministic digit renderer
from .refdata import builtin_chemistry, builtin_ev_catalog, catalog_stats, source_group_energy
from .scenario import (Assessment, SweepPoint, _bad_field, assess, load_builtin_scenario,
                       scenario_echo)

__all__ = [
    "CellResult",
    "ComparisonResult",
    "TARGET_IDS",
    "render",
    "render_sweep",
    "write_sweep",
    "render_comparisons",
    "reproduce",
]

FORMATS = ("text", "csv", "json")


def _unknown_format(fmt: str) -> InvalidRenderOption:
    return InvalidRenderOption(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _csv(cell: str) -> str:
    """``cell`` as one csv field, by RFC 4180's rule as Python 3.11's ``csv.writer``
    applies it: quoted, each ``"`` doubled, if it holds ``"``, ``,`` or a line
    feed, else as is. A lone ``"\\r"`` stays unquoted on purpose, to keep 3.11's
    bytes on every Python (3.13's writer quotes it, 3.10's refuses a NUL), so a
    row holding one does not read back through ``csv.reader``."""
    if '"' in cell or "," in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


# display suffix of a row's unit; any other unit follows the digits after a space
_SUFFIX = {"1e9": "e9", "1e12 gal": "e12 gal", "frac": "", "ratio": ""}
# significant digits when none are asked for: a row's by its unit ("other" for
# any unit not named) and a comparison cell's; the fewest that keep every
# published figure distinguishable
_DIGITS = {"1e9": 4, "frac": 3, "other": 5, "compare": 6}
# report unit -> (dimension, divisor of the canonical magnitude, as in_unit divides):
# every unit of the unit table that is not inverse, and the pseudo-units 1e9 and 1e12 gal
_REPORT_UNITS: dict[str, tuple[Dimension, float]] = {
    **{u.name: (u.dimension, u.scale) for u in CATALOG.units.values() if not u.inverse},
    "1e9": (Dimension.COUNT, 1e9), "1e12 gal": (Dimension.VOLUME, 1e12)}


def _scaled(value: Quantity | float, unit: str) -> float:
    """``value`` in report unit ``unit``; a bare float is already in it."""
    if not isinstance(value, Quantity):
        return value
    dimension, divisor = _REPORT_UNITS[unit]
    if value.dimension is not dimension:
        raise DimensionMismatch(
            f"unit {unit!r} is {dimension.value}, quantity is {value.dimension.value}")
    return value.magnitude / divisor


class _Row(NamedTuple):
    key: str
    label: str
    value: float
    unit: str
    digits: int
    note: str = ""

    @property
    def display(self) -> str:
        return _sig(self.value, self.digits) + _SUFFIX.get(self.unit, " " + self.unit)


def _assessment_rows(a: Assessment, digits: int | None) -> list[_Row]:
    def row(key: str, label: str, value: Quantity | float, unit: str,
            note: str = "") -> _Row:
        n = _DIGITS.get(unit, _DIGITS["other"]) if digits is None else digits
        return _Row(key, label, _scaled(value, unit), unit, n, note)

    rows = [
        row("fleet_energy", "fleet energy", a.fleet_energy, "TWh",
            "zero fleet energy; downstream values are zero"
            if a.fleet_energy.canonical == 0.0 else ""),
        row("per_ev_energy", "per-EV energy", a.per_ev_energy, "kWh"),
    ]
    for demand, tag in ((a.demand_a, "a"), (a.demand_b, "b")):
        if demand is None:
            continue
        label = f"method {demand.method}"
        if demand.ev_count is not None:
            rows.append(row(f"ev_count_{tag}", f"{label} EV count", demand.ev_count, "1e9"))
        rows += [
            row(f"battery_count_{tag}", f"{label} battery count", demand.battery_count, "1e9"),
            row(f"production_consistent_{tag}", f"{label} production energy",
                demand.production_energy, "TWh"),
            row(f"production_published_{tag}", f"{label} published-style",
                engine.printed_style(demand.production_energy), "TWh",
                engine.PRODUCTION_TABLE_NOTE),
        ]
    return [
        *rows,
        row("battery_energy_for_totals", "battery energy for totals",
            a.battery_energy_for_totals, "TWh",
            f"method {a.totals_demand.method}, {a.scenario.convention.value} convention"),
        row("total_additional_energy", "total additional energy",
            a.total_additional_energy, "TWh"),
        row("carbon_intensity", "carbon intensity", a.carbon_intensity, "Mt/TWh"),
        row("additional_co2", "additional CO2", a.additional_co2, "Mt"),
        *(row(f"water_{fuel}", f"freshwater, {fuel}", volume, "1e12 gal",
              engine.WATER_CONVENTION_NOTE) for fuel, volume in a.water),
        row("renewable_supply", "renewable supply", a.renewable_supply, "TWh"),
        row("conversion_fraction", "sustainable conversion fraction",
            min(a.conversion_fraction, 1.0), "frac",
            "full conversion: renewable supply covers the whole fleet"
            if a.full_conversion else ""),
        row("baseline_generation", "baseline generation", a.scenario.baseline_generation,
            "TWh"),
        row("total_vs_baseline_ratio", "total vs baseline ratio",
            a.deficit.ratio_to_baseline, "ratio"),
        row("capacity_deficit", "capacity deficit", a.deficit.deficit, "TWh"),
    ]


def render(a: Assessment, fmt: str = "text", digits: int | None = None) -> str:
    """Render one assessment as text, csv, or json; text values take
    ``digits`` significant digits, or their unit's default when it is None."""
    if (problem := _bad_field(a.scenario)) is not None:
        raise ValidationError([problem])
    rows = _assessment_rows(a, digits if digits is None else check_sig_digits(digits))
    if fmt == "text":
        s = a.scenario
        lines = [f"scenario {s.name}  (dataset {s.dataset.id}, year {s.dataset.year})", "",
                 *(f"  {row.label:<32}{row.display}" for row in rows)]
        note_rows = [r for r in rows if r.note]
        if note_rows:
            lines += ["", "  notes:", *(f"    {row.key}: {row.note}" for row in note_rows)]
        lines.append("")
        return "\n".join(lines)
    if fmt == "csv":
        return "key,value,unit,note\n" + "".join(
            f"{_csv(key)},{value!r},{unit},{_csv(note)}\n"
            for key, _, value, unit, _, note in rows)
    if fmt == "json":
        # the bytes json.dumps(..., indent=2, sort_keys=True) writes for the echo
        # and one object per key (the last row of a key wins); a unit needs no escape
        from json.encoder import encode_basestring_ascii as quote
        echo = _json_value(scenario_echo(a.scenario), quote, "  ")
        values = ",\n".join(
            f"    {quote(key)}: {{\n"
            + (f'      "note": {quote(note)},\n' if note else "")
            + f'      "unit": "{unit}",\n      "value": {_json_number(value)}\n    }}'
            for key, (_, _, value, unit, _, note) in sorted({r.key: r for r in rows}.items()))
        return ('{\n  "scenario": ' + echo
                + ',\n  "values": {\n' + values + "\n  }\n}\n")
    raise _unknown_format(fmt)


# --- sweeps -----------------------------------------------------------------

# sweep column -> (attribute path on an assessment, report unit)
_SWEEP_COLUMNS = {
    "fleet_energy_twh": ("fleet_energy", "TWh"),
    "per_ev_energy_kwh": ("per_ev_energy", "kWh"),
    "battery_count_e9": ("totals_demand.battery_count", "1e9"),
    "battery_energy_twh": ("battery_energy_for_totals", "TWh"),
    "total_additional_twh": ("total_additional_energy", "TWh"),
    "additional_co2_mt": ("additional_co2", "Mt"),
    "conversion_fraction": ("conversion_fraction", "frac"),
    "total_vs_baseline_ratio": ("deficit.ratio_to_baseline", "ratio"),
    "capacity_deficit_twh": ("deficit.deficit", "TWh"),
}
_SWEEP_HEADER = ("index", "value", *_SWEEP_COLUMNS, "error")
_SWEEP_VALUES = operator.attrgetter(*(path for path, _ in _SWEEP_COLUMNS.values()))
_SWEEP_UNITS = tuple(unit for _, unit in _SWEEP_COLUMNS.values())
_FAILED_VALUES = ("",) * len(_SWEEP_COLUMNS)


def _sweep_cells(points: Iterable[SweepPoint],
                 number: Callable[[float], str]) -> Iterator[list[str]]:
    """Each point's row as text: index, swept value, one cell per column ("" for
    a failed point), error. A column keeps its text while its value is the
    previous evaluated point's very object (a sweep point shares with its base
    every output it does not rerun); else ``number`` spells it scaled."""
    values, texts = _FAILED_VALUES, _FAILED_VALUES
    for i, p in enumerate(points):
        a, value = p.assessment, p.value
        if a is not None:
            new = _SWEEP_VALUES(a)
            texts = [text if v is old else number(_scaled(v, unit))
                     for v, old, text, unit in zip(new, values, texts, _SWEEP_UNITS)]
            values = new
        yield [str(i), number(value.canonical if isinstance(value, Quantity) else value),
               *(_FAILED_VALUES if a is None else texts), p.error or ""]


def _json_number(x: float) -> str:
    """``x`` as ``json.dumps`` spells it: a bool as ``true`` or ``false``, an
    int as an int, anything else as the float it converts to."""
    if type(x) is not float:
        if isinstance(x, int):
            return int.__repr__(x) if type(x) is not bool else "true" if x else "false"
        x = float(x)
    if math.isfinite(x):
        return repr(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_value(x, quote: Callable[[str], str], indent: str = "") -> str:
    """``x`` as ``json.dumps(x, indent=2, sort_keys=True)`` writes it, each line
    after the first indented by ``indent``: a str, which ``quote`` spells, None,
    a dict, list or tuple of values nested to any depth, or any other value,
    which ``_json_number`` spells (a number or a bool)."""
    if isinstance(x, str):
        return quote(x)
    if x is None:
        return "null"
    if not isinstance(x, (dict, list, tuple)):
        return _json_number(x)
    inner = indent + "  "
    if isinstance(x, dict):
        items = [f"{quote(k)}: {_json_value(v, quote, inner)}" for k, v in sorted(x.items())]
    else:
        items = [_json_value(v, quote, inner) for v in x]
    start, end = "{}" if isinstance(x, dict) else "[]"
    if not items:
        return start + end
    return f"{start}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{end}"


# a point as json.dumps(..., indent=2, sort_keys=True) writes it at depth 2, what
# picks its slots from a row's cells in sorted key order, and a failed point's columns
_JSON_POINT = ("    {\n" + ",\n".join(f'      "{k}": %s' for k in sorted(_SWEEP_HEADER))
               + "\n    }")
_JSON_PICK = operator.itemgetter(*map(_SWEEP_HEADER.index, sorted(_SWEEP_HEADER)))
_JSON_FAILED_VALUES = ('""',) * len(_SWEEP_COLUMNS)


def write_sweep(out: TextIO, path: str, points: Iterable[SweepPoint],
                fmt: str = "text") -> None:
    """Write sweep results to ``out`` in evaluation order. csv and json write
    each row as its point arrives; text keeps the formatted cells until the
    end, since its column widths need every row. In csv no cell but the error
    can need quoting."""
    if fmt not in FORMATS:
        raise _unknown_format(fmt)
    if fmt == "csv":
        out.write(",".join(_SWEEP_HEADER) + "\n")
        for cells in _sweep_cells(points, repr):
            cells[-1] = _csv(cells[-1])
            out.write(",".join(cells) + "\n")
    elif fmt == "json":
        from json.encoder import encode_basestring_ascii as quote
        out.write(f'{{\n  "path": {quote(path)},\n  "points": [')
        sep, tail = "\n", "]\n}\n"  # no points: "[]"
        for cells in _sweep_cells(points, _json_number):
            cells[-1] = quote(cells[-1])
            if not cells[2]:
                cells[2:-1] = _JSON_FAILED_VALUES
            out.write(sep + _JSON_POINT % _JSON_PICK(cells))
            sep, tail = ",\n", "\n  ]\n}\n"
        out.write(tail)
    else:
        rows = [_SWEEP_HEADER, *_sweep_cells(points, repr)]
        line = "  ".join(f"%-{max(map(len, column))}s" for column in zip(*rows))
        out.write(f"sweep over {path}\n\n")
        out.writelines((line % tuple(row)).rstrip() + "\n" for row in rows)


def render_sweep(path: str, points: list[SweepPoint], fmt: str = "text") -> str:
    """Render sweep results as one string, the text ``write_sweep`` writes."""
    buf = io.StringIO()
    write_sweep(buf, path, points, fmt)
    return buf.getvalue()


# --- reproduction targets -----------------------------------------------------

def _rel_err(computed: float, expected: float) -> float:
    return abs(computed - expected) / abs(expected) if expected != 0 else abs(computed)


# rule -> whether the computed value matches the published one at the tolerance
_RULES: dict[str, Callable[[float, float, float], bool]] = {
    "rel": lambda c, e, tol: _rel_err(c, e) <= tol,
    "abs": lambda c, e, tol: abs(c - e) <= tol,
    "exact": lambda c, e, tol: c == e,
    "round2sig": lambda c, e, tol: float(f"{float(c):.1e}") == e,
    # documented expected mismatch: passes by carrying the flag
    "erratum": lambda c, e, tol: True,
}


class CellResult(NamedTuple):
    """One published figure beside the computed one, and the rule that
    compares them (a key of ``_RULES``)."""

    label: str
    computed: float
    expected: float
    unit: str
    rule: str
    tolerance: float
    anchor: str
    note: str = ""

    @property
    def rel_err(self) -> float:
        return float(_rel_err(self.computed, self.expected))

    @property
    def passed(self) -> bool:
        return _RULES[self.rule](self.computed, self.expected, self.tolerance)

    @property
    def flagged(self) -> bool:
        return self.rule == "erratum"

    @property
    def status(self) -> str:
        return "erratum" if self.flagged else ("ok" if self.passed else "FAIL")


class ComparisonResult(NamedTuple):
    target_id: str
    title: str
    cells: tuple[CellResult, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)


def _cell(label: str, value: Quantity | float, expected: float, unit: str, rule: str,
          tolerance: float, anchor: str, note: str = "") -> CellResult:
    """A cell of ``value`` in ``unit``; the label gains a ``[unit]`` suffix
    unless the unit is a bare fraction or ratio."""
    if unit not in ("frac", "ratio"):
        label = f"{label} [{unit}]"
    return CellResult(label, _scaled(value, unit), expected, unit, rule, tolerance,
                      anchor, note)


def _table2_cells() -> list[CellResult]:
    catalog = builtin_ev_catalog()
    anchor = "study table 2, mean/median rows"
    cells = []
    for field, unit, mean_exp, median_exp in (
            ("power", "kW", 118.7, 112.0),
            ("max_speed", "mph", 90.0, 97.5),
            ("range", "mi", 91.0, 100.0)):
        stats = catalog_stats(catalog, field)
        cells += [_cell(f"{field} mean", stats.mean, mean_exp, unit, "abs", 1.0, anchor,
                        note="printed means carry unreconstructible rounding; "
                             "tolerance is 1 printed unit"),
                  _cell(f"{field} median", stats.median, median_exp, unit, "exact", 0.0,
                        anchor)]
    return cells


# (method, year, chemistry) -> printed production energy, TWh
_TABLE3_EXPECTED = {
    ("A", "2005", "pb_acid"): 591.0, ("A", "2001", "pb_acid"): 451.0,
    ("B", "2005", "pb_acid"): 679.55, ("B", "2001", "pb_acid"): 518.34,
    ("A", "2005", "nimh"): 1236.45, ("A", "2001", "nimh"): 943.55,
    ("B", "2005", "nimh"): 1421.71, ("B", "2001", "nimh"): 1084.44,
}


def _table3_cells(a05: Assessment, a01: Assessment) -> list[CellResult]:
    cells = []
    for (method, year, chem_name), expected in _TABLE3_EXPECTED.items():
        a, chem = {"2005": a05, "2001": a01}[year], builtin_chemistry(chem_name)
        demand = (engine.battery_demand_method_a(a.fleet_energy, a.per_ev_energy,
                                                 a.scenario.batteries_per_ev, chem)
                  if method == "A" else engine.battery_demand_method_b(a.fleet_energy, chem))
        where = f"method {method}, {year}, {chem.display_name}"
        cells.append(_cell(where, engine.printed_style(demand.production_energy), expected,
                           "TWh", "rel", 0.002, f"study table 3, {where}"))
    return cells


# (count, method, printed 2005 figure, printed 2001 figure), in 1e9
_COUNTS_EXPECTED = (
    ("EV count", "A", 43.07, 32.85),
    ("battery count, method A", "A", 172.28, 131.4),
    ("battery count, method B", "B", 198.12, 151.12),
)


def _counts_cells(a05: Assessment, a01: Assessment) -> list[CellResult]:
    cells = []
    for what, method, *printed in _COUNTS_EXPECTED:
        for (year, a), expected in zip((("2005", a05), ("2001", a01)), printed):
            demand = a.demand_a if method == "A" else a.demand_b
            count = demand.ev_count if what == "EV count" else demand.battery_count
            cells.append(_cell(f"{what}, {year}", count, expected, "1e9", "rel", 0.002,
                               f"study sec. V, method {method}, {year}"))
    return cells


class _Target(NamedTuple):
    title: str
    cells: Callable[[Assessment, Assessment], list[CellResult]]  # from the 2005, 2001 runs
    notes: tuple[str, ...] = ()


#: Every reproduction target in report order: its title, cells and notes.
_TARGETS: dict[str, _Target] = {
    "table2-stats": _Target("EV catalog statistics", lambda a05, a01: _table2_cells()),
    "table3": _Target("battery production energy table", _table3_cells,
                      (engine.PRODUCTION_TABLE_NOTE,)),
    "sec3-shares": _Target("generation shares", lambda a05, a01: [
        _cell("fossil generation", source_group_energy(a05.scenario.dataset.mix,
                                                       ["coal", "natural_gas", "oil"]),
              2895.0, "TWh", "rel", 0.005, "study sec. III, fossil total"),
        _cell("nuclear generation", source_group_energy(a05.scenario.dataset.mix, ["nuclear"]),
              783.0, "TWh", "rel", 0.001, "study sec. III, nuclear total"),
    ], ("per-source shares are a documented reconstruction; only the "
        "fossil and nuclear totals are published",)),
    "sec4-energies": _Target("gasoline fleet energy", lambda a05, a01: [
        _cell("fleet energy, shares basis", a05.fleet_energy, 4953.0, "TWh", "rel", 0.0005,
              "study sec. IV, 2005 consumption-share product"),
        _cell("fleet energy, gallons basis", a01.fleet_energy, 3778.0, "TWh", "rel", 0.001,
              "study sec. IV, 2001 gasoline-volume conversion"),
    ]),
    "sec5-counts": _Target("EV and battery counts", _counts_cells),
    "sec6-co2": _Target("CO2 emissions", lambda a05, a01: [
        _cell("carbon intensity", a05.carbon_intensity, 0.61159, "Mt/TWh", "rel", 1e-4,
              "derived: study sec. VI CO2 total over generation total"),
        _cell("additional CO2", a05.additional_co2, 3900.0, "Mt", "rel", 0.005,
              "study sec. VI, additional CO2"),
    ]),
    "sec6-water": _Target("freshwater consumption", lambda a05, a01: [
        _cell("freshwater, coal", dict(a05.water)["coal"], 1181.58, "1e12 gal", "rel", 0.005,
              "study sec. VI, coal freshwater"),
        _cell("freshwater, natural gas", dict(a05.water)["natural_gas"], 336.11, "1e12 gal",
              "erratum", 0.0, "study sec. VI, gas freshwater",
              note="published figure is about twice the stated share x "
                   "intensity product; irreproducible from stated inputs, "
                   "flagged rather than matched"),
    ], (engine.WATER_CONVENTION_NOTE,)),
    "sec7-strategy": _Target("renewable conversion strategy", lambda a05, a01: [
        _cell("renewable supply", a05.renewable_supply, 1216.0, "TWh", "rel", 0.001,
              "study sec. VII, 30% of baseline"),
        _cell("conversion fraction", a05.conversion_fraction, 0.25, "frac", "round2sig", 0.0,
              "study sec. VII, printed 25%",
              note="compared after rounding to 2 significant digits, "
                   "the study's own rounding rule"),
    ]),
    "sec8-deficit": _Target("capacity deficit", lambda a05, a01: [
        _cell("total additional energy", a05.total_additional_energy, 6374.17, "TWh",
              "rel", 0.002, "study sec. VI, total additional"),
        _cell("total vs baseline ratio", a05.deficit.ratio_to_baseline, 1.572, "ratio",
              "rel", 0.002, "derived: study total additional over the 4055 TWh baseline"),
    ], ("the study's summary quotes the 2005-column battery energy for "
        "the 2001 case; the production table's own 2001 figure is used here",)),
}

TARGET_IDS = tuple(_TARGETS)


def reproduce(target_ids: list[str] | None = None) -> list[ComparisonResult]:
    """Compare computed values against the published figures, per target.

    Runs the canonical 2005 and 2001 scenarios and builds every requested
    target; output order is the canonical registry order regardless of the
    requested order. The first unknown id, in request order, is an error.
    """
    requested = TARGET_IDS if target_ids is None else tuple(target_ids)
    for target_id in requested:
        if target_id not in _TARGETS:
            raise UnknownTarget(
                f"unknown target {target_id!r}; known: {', '.join(TARGET_IDS)}")
    a05 = assess(load_builtin_scenario("paper-2005"))
    a01 = assess(load_builtin_scenario("paper-2001"))
    return [ComparisonResult(target_id, t.title, tuple(t.cells(a05, a01)), t.notes)
            for target_id, t in _TARGETS.items() if target_id in requested]


def render_comparisons(results: list[ComparisonResult], fmt: str = "text",
                       digits: int | None = None) -> str:
    """Render reproduction results; erratum cells stay visibly flagged. Text
    figures take ``digits`` significant digits, 6 when it is None. json is one
    ``_json_value`` call over a list of one dict per result, each holding one
    dict per cell: the bytes ``json.dumps(..., indent=2, sort_keys=True)``
    writes."""
    digits = _DIGITS["compare"] if digits is None else check_sig_digits(digits)
    if fmt == "json":
        from json.encoder import encode_basestring_ascii as quote
        return _json_value([
            {"cells": [{"anchor": c.anchor, "computed": c.computed, "expected": c.expected,
                        "label": c.label, **({"note": c.note} if c.note else {}),
                        "rel_err": c.rel_err, "status": c.status, "unit": c.unit}
                       for c in r.cells],
             "notes": r.notes, "passed": r.passed, "target": r.target_id, "title": r.title}
            for r in results], quote) + "\n"
    if fmt == "csv":
        return "target,cell,computed,expected,unit,rel_err,status,anchor\n" + "".join(
            f"{_csv(r.target_id)},{_csv(c.label)},{c.computed!s},{c.expected!s},"
            f"{_csv(c.unit)},{c.rel_err:.3e},{c.status},{_csv(c.anchor)}\n"
            for r in results for c in r.cells)
    if fmt == "text":
        lines: list[str] = []
        total = passed = 0
        for r in results:
            k = sum(1 for c in r.cells if c.passed)
            total, passed = total + len(r.cells), passed + k
            lines.append(f"{r.target_id}: {k}/{len(r.cells)} within tolerance")
            lines += [f"  note: {note}" for note in r.notes]
            label_w = max((len(c.label) for c in r.cells), default=0)
            for c in r.cells:
                computed = _sig(float(c.computed), digits)
                expected = _sig(float(c.expected), digits)
                lines.append(f"  {c.label.ljust(label_w)}  "
                             f"computed {computed:>12}  expected {expected:>12}  "
                             f"rel err {c.rel_err:.3e}  {c.status}")
                if c.note:
                    lines.append(f"  {' ' * label_w}  ^ {c.note}")
            lines.append("")
        lines += [f"targets passed: {sum(1 for r in results if r.passed)}"
                  f"/{len(results)}; cells within tolerance: {passed}/{total}", ""]
        return "\n".join(lines)
    raise _unknown_format(fmt)
