"""Streaming sweeps: ``iter_sweep`` yields points as they are evaluated,
``write_sweep`` writes csv and json rows as they arrive with the bytes
``json.dumps(..., indent=2)`` gives, memory stays flat as the point count
grows, and the CLI survives a reader that closes stdout early. A sweep row's
cells, read through the report-unit table, equal the ones ``in_unit`` gives,
and the table keeps every dimension check. A row reuses a column's text only
while its value is the previous evaluated point's very object, and writes the
bytes of a writer that reuses nothing. A
csv sweep quotes an error, and every csv writer its cells, as Python 3.11's
csv module does, under every interpreter."""

import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import _interpreter

from evdemand import report
from evdemand.cli import main
from evdemand.errors import DimensionMismatch, InvalidRenderOption
from evdemand.quantities import Dimension, Quantity, quantity
from evdemand.report import (
    _REPORT_UNITS,
    _SWEEP_HEADER,
    _SWEEP_UNITS,
    _SWEEP_VALUES,
    _scaled,
    _sweep_cells,
    render_sweep,
    write_sweep,
)
from evdemand.scenario import (
    MAX_SWEEP_POINTS,
    OVERRIDE_PATHS,
    Convention,
    Method,
    SweepPoint,
    SweepSpec,
    assess,
    iter_sweep,
    load_builtin_scenario,
    sweep,
)

SRC = Path(__file__).parent.parent / "src"
PAPER_2005 = load_builtin_scenario("paper-2005")
ASSESSMENTS = [assess(PAPER_2005), assess(load_builtin_scenario("paper-2001")),
               assess(PAPER_2005._replace(renewable_share=quantity(1.0, "frac")))]


def _row(i, p):
    """Index, swept value, one number per column ("" for a failed point) and
    error, every column scaled on its own: the rows of a writer that reuses
    nothing."""
    a = p.assessment
    return [i, p.value.canonical if isinstance(p.value, Quantity) else p.value,
            *(("",) * len(_SWEEP_UNITS) if a is None
              else map(_scaled, _SWEEP_VALUES(a), _SWEEP_UNITS)),
            p.error or ""]


def _json_as_dumps(path, points):
    """The sweep JSON as one ``json.dumps(..., indent=2)`` call writes it."""
    rows = [_row(i, p) for i, p in enumerate(points)]
    payload = [dict(zip(_SWEEP_HEADER, row)) for row in rows]
    return json.dumps({"path": path, "points": payload}, indent=2, sort_keys=True) + "\n"


swept_values = st.one_of(
    st.floats(),  # NaN and both infinities included
    st.integers(-2**53, 2**53),
    st.builds(quantity, st.floats(0, 1e30), st.sampled_from(["TWh", "kWh", "gal"])),
    st.builds(quantity, st.floats(0, 1), st.just("frac")),
)
# assessments, some with a NaN, infinite or int column
assessments = st.builds(lambda a, f: a if f is None else a._replace(conversion_fraction=f),
                        st.sampled_from(ASSESSMENTS), st.none() | st.floats() | st.integers())
# errors with commas, quotes, backslashes, line breaks, control and non-ASCII
# characters, and the empty error
ERRORS = ['say "no"', "back\\slash", "tab\tnew\nline\x00\x1f", "é ☃ 𝄞",
          "a,b", "cr\rlf", "lf\nonly", ""]
# failed points, and evaluated points that carry an error all the same
points = st.one_of(
    st.builds(SweepPoint, swept_values, assessments),
    st.builds(SweepPoint, swept_values, st.none(),
              st.text(st.characters(blacklist_categories=("Cs",))) | st.sampled_from(ERRORS)),
    st.builds(SweepPoint, swept_values, assessments, st.sampled_from(ERRORS[:-1])),
)


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(sorted(OVERRIDE_PATHS)) | st.text(), pts=st.lists(points, max_size=6))
def test_json_layout_matches_indented_dumps(path, pts):
    assert render_sweep(path, pts, "json") == _json_as_dumps(path, pts)


def _text_reference(path, points):
    """The sweep text with each cell spelled by ``repr`` and padded by ``ljust``."""
    cells = [[c if isinstance(c, str) else repr(c) for c in _row(i, p)]
             for i, p in enumerate(points)]
    widths = [max(map(len, column)) for column in zip(_SWEEP_HEADER, *cells)]
    return f"sweep over {path}\n\n" + "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
        for row in (_SWEEP_HEADER, *cells))


def _csv_cell(cell):
    """A cell as Python 3.11's ``csv.writer(lineterminator="\\n")`` writes it:
    quoted, each ``"`` doubled, when it holds ``"``, ``,`` or a line feed."""
    cell = str(cell)
    return '"' + cell.replace('"', '""') + '"' if any(c in cell for c in '",\n') else cell


def _csv_reference(points):
    rows = [_SWEEP_HEADER, *(_row(i, p) for i, p in enumerate(points))]
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)


# runs of one assessment, failed points between them, and conversion fractions
# that equal the previous one's without sharing its text: 0.0 after -0.0, NaN,
# 1 after 1.0
fractions = st.sampled_from([0.0, -0.0, math.nan, 0.25, 1.0, 1, 0]) | st.floats()
repeating = st.lists(st.one_of(
    st.builds(SweepPoint, swept_values,
              st.builds(lambda a, f: a if f is None else a._replace(conversion_fraction=f),
                        st.sampled_from(ASSESSMENTS), st.none() | fractions)),
    st.builds(SweepPoint, swept_values, st.none(), st.sampled_from(["x", *ERRORS])),
    st.builds(SweepPoint, swept_values, st.sampled_from(ASSESSMENTS), st.sampled_from(ERRORS[:-1])),
).flatmap(lambda p: st.lists(st.just(p), min_size=1, max_size=3)), max_size=8).map(
    lambda runs: [p for run in runs for p in run])


@settings(max_examples=200, deadline=None)
@given(pts=repeating)
@example(pts=[SweepPoint(0.5, ASSESSMENTS[0]._replace(conversion_fraction=f)) for f in (1.0, 1)])
def test_reused_cells_write_what_a_writer_that_reuses_nothing_writes(pts):
    path = "strategy.renewable_share"
    assert render_sweep(path, pts, "text") == _text_reference(path, pts)
    assert render_sweep(path, pts, "csv") == _csv_reference(pts)
    assert render_sweep(path, pts, "json") == _json_as_dumps(path, pts)


# Failed points whose errors need quoting, or hold a "\r", a tab or a NUL, and
# the bytes Python 3.11.7's csv.writer(lineterminator="\n") writes for them.
# Under 3.13 that writer also quotes a lone "\r", and under 3.10 it raises on
# the NUL; the sweep writes these bytes under every interpreter. So do render,
# for paper-2005 with odd water fuels, and render_comparisons, for a cell whose
# label holds a "\r" and whose anchor holds a NUL.
CSV_ERRORS = ("a,b", "cr\rlf", "\r\n", 'say "no"', "tab\tx\x00")
CSV_BYTES = (
    "index,value,fleet_energy_twh,per_ev_energy_kwh,battery_count_e9,battery_energy_twh,"
    "total_additional_twh,additional_co2_mt,conversion_fraction,total_vs_baseline_ratio,"
    "capacity_deficit_twh,error\n"
    '0,0.5,,,,,,,,,,"a,b"\n'
    "1,0.5,,,,,,,,,,cr\rlf\n"
    '2,0.5,,,,,,,,,,"\r\n"\n'
    '3,0.5,,,,,,,,,,"say ""no"""\n'
    "4,0.5,,,,,,,,,,tab\tx\x00\n")
CSV_FUELS = ("co\x00al", "cr\rgas", 'q"x,y')
_PUBLISHED = ("TWh,printed-table convention: published production energies equal the "
              "unit-consistent values divided by 10^3\n")
_WATER = (',1181.6353920000001,1e12 gal,"published water accounting treats 1 TWh as 10^9 MWh '
          '(strictly 10^6), so volumes exceed strict unit algebra by 10^3"\n')
CSV_RENDER_BYTES = (
    "key,value,unit,note\n"
    "fleet_energy,4953.200000000001,TWh,\n"
    "per_ev_energy,114.87179487179486,kWh,\n"
    "ev_count_a,43.11937500000001,1e9,\n"
    "battery_count_a,172.47750000000005,1e9,\n"
    "production_consistent_a,1237698.5400000005,TWh,\n"
    "production_published_a,1237.6985400000005," + _PUBLISHED
    + "battery_count_b,198.12800000000004,1e9,\n"
    "production_consistent_b,1421766.5280000002,TWh,\n"
    "production_published_b,1421.7665280000003," + _PUBLISHED
    + 'battery_energy_for_totals,1421.7665280000003,TWh,"method B, published convention"\n'
    "total_additional_energy,6374.966528000001,TWh,\n"
    "carbon_intensity,0.6115906288532675,Mt/TWh,\n"
    "additional_co2,3898.869787778052,Mt,\n"
    "water_co\x00al" + _WATER + "water_cr\rgas" + _WATER + '"water_q""x,y"' + _WATER
    + "renewable_supply,1216.5,TWh,\n"
    "conversion_fraction,0.2455988048130501,frac,\n"
    "baseline_generation,4055.0,TWh,\n"
    "total_vs_baseline_ratio,1.572124914426634,ratio,\n"
    "capacity_deficit,2319.966528000001,TWh,\n")
CSV_CELL = ("cr\rlf", 1.5, 2.0, "TWh", "rel", 0.1, "nul\x00")
CSV_COMPARISON_BYTES = ("target,cell,computed,expected,unit,rel_err,status,anchor\n"
                        "t,cr\rlf,1.5,2.0,TWh,2.500e-01,FAIL,nul\x00\n")
CSV_CHECK = f"""
from evdemand.report import (CellResult, ComparisonResult, render, render_comparisons,
                             render_sweep)
from evdemand.scenario import SweepPoint, assess, load_builtin_scenario
points = [SweepPoint(0.5, None, e) for e in {CSV_ERRORS!r}]
assert render_sweep("strategy.renewable_share", points, "csv") == {CSV_BYTES!r}
a = assess(load_builtin_scenario("paper-2005"))
a = a._replace(water=tuple((fuel, a.water[0][1]) for fuel in {CSV_FUELS!r}))
assert render(a, "csv") == {CSV_RENDER_BYTES!r}
results = [ComparisonResult("t", "T", (CellResult(*{CSV_CELL!r}),))]
assert render_comparisons(results, "csv") == {CSV_COMPARISON_BYTES!r}
"""


def test_csv_errors_are_quoted_as_python_3_11_quotes_them():
    exec(CSV_CHECK, {})


@pytest.mark.parametrize("minor", [10, 12, 13])
def test_csv_errors_are_quoted_alike_under_other_interpreters(minor):
    exe = _interpreter(minor)
    if exe is None:
        pytest.skip(f"no python3.{minor} starts here")
    proc = subprocess.run([exe, "-B", "-c", CSV_CHECK], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout + proc.stderr == ""  # a traceback, the assertion's among them
    assert proc.returncode == 0


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_one_path_sweep_scales_only_the_cells_that_change(monkeypatch, fmt):
    calls = []

    def counting(value, unit):
        calls.append(unit)
        return _scaled(value, unit)

    monkeypatch.setattr(report, "_scaled", counting)
    spec = SweepSpec.from_values("strategy.renewable_share", [k / 100 for k in range(100)])
    render_sweep(spec.path, sweep(PAPER_2005, spec), fmt)
    # every column of the first point, then the conversion fraction of the other 99
    assert len(calls) == 108
    assert calls[9:] == ["frac"] * 99


def test_empty_sweep_json_is_an_empty_list():
    out = render_sweep("strategy.renewable_share", [], "json")
    assert out == _json_as_dumps("strategy.renewable_share", [])
    assert json.loads(out) == {"path": "strategy.renewable_share", "points": []}


def test_sweep_is_every_point_of_iter_sweep():
    spec = SweepSpec.from_values("strategy.renewable_share", [0.3, 1.5, 0.1])
    assert sweep(PAPER_2005, spec) == list(iter_sweep(PAPER_2005, spec))


def test_iter_sweep_yields_before_evaluating_the_rest():
    spec = SweepSpec("strategy.renewable_share", start=0.0, stop=1.0,
                     step=1.0 / (MAX_SWEEP_POINTS - 1))
    first = next(iter_sweep(PAPER_2005, spec))
    assert first.value == 0.0 and first.assessment is not None


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_write_sweep_writes_what_render_sweep_returns(fmt):
    spec = SweepSpec.from_values("strategy.renewable_share", [0.3, 1.5, 0.1])
    out = io.StringIO()
    write_sweep(out, spec.path, iter_sweep(PAPER_2005, spec), fmt)
    assert out.getvalue() == render_sweep(spec.path, sweep(PAPER_2005, spec), fmt)


def test_unknown_format_writes_nothing():
    out = io.StringIO()
    with pytest.raises(InvalidRenderOption):
        write_sweep(out, "strategy.renewable_share", [], "xml")
    assert out.getvalue() == ""


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def _traced_from(points, start):
    """``points``, with tracemalloc tracing from the ``start``-th on."""
    for i, p in enumerate(points):
        if i == start:
            tracemalloc.start()
        yield p


# 20,001 points: the 19,000 below zero fail inline and the last 1,001, 0 to 1,
# evaluate. Tracing every allocation slows the JSON encoder about tenfold, so
# only the last 3,001 points are traced: a design that holds even the ~3 KB an
# evaluated point takes would pass 1 MB within them.
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_sweep_memory_stays_flat(fmt):
    spec = SweepSpec("strategy.renewable_share", start=-19.0, stop=1.0, step=0.001)
    assert sum(1 for _ in spec.points()) == 20_001
    try:
        write_sweep(_Discard(), spec.path,
                    _traced_from(iter_sweep(PAPER_2005, spec), 17_000), fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_every_point_failed_prints_all_rows_and_exits_one(capsys):
    code = main(["sweep", "paper-2005", "--path", "strategy.renewable_share",
                 "--values", "1.5,2.5,-1", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.splitlines()) == 4
    assert captured.err == "evdemand: every sweep point failed\n"


def test_reader_closing_stdout_early_ends_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "evdemand", "sweep", "paper-2005",
         "--path", "strategy.renewable_share", "--from", "0", "--to", "1",
         "--step", "0.0001", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout.read(100).startswith(b"index,value,")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1


def test_reader_closing_stdout_after_the_header_is_a_write_failure():
    # 10,001 rows fill the pipe long before the last, so a write meets the closed reader
    proc = subprocess.Popen(
        [sys.executable, "-m", "evdemand", "sweep", "paper-2005",
         "--path", "strategy.renewable_share", "--from", "0", "--to", "1",
         "--step", "0.0001", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout.readline().startswith(b"index,value,")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "evdemand: cannot write output: [Errno 32] Broken pipe\n"


# --- the report-unit table ----------------------------------------------------

# each sweep column built per cell the long way, through in_unit or the pseudo-unit scale
REFERENCE_COLUMNS = {
    "fleet_energy_twh": lambda a: a.fleet_energy.in_unit("TWh"),
    "per_ev_energy_kwh": lambda a: a.per_ev_energy.in_unit("kWh"),
    "battery_count_e9": lambda a: a.totals_demand.battery_count.canonical / 1e9,
    "battery_energy_twh": lambda a: a.battery_energy_for_totals.in_unit("TWh"),
    "total_additional_twh": lambda a: a.total_additional_energy.in_unit("TWh"),
    "additional_co2_mt": lambda a: a.additional_co2.in_unit("Mt"),
    "conversion_fraction": lambda a: a.conversion_fraction,
    "total_vs_baseline_ratio": lambda a: a.deficit.ratio_to_baseline,
    "capacity_deficit_twh": lambda a: a.deficit.deficit.in_unit("TWh"),
}
PSEUDO_SCALES = {"1e9": 1e9, "1e12 gal": 1e12}
VARIANTS = [assess(load_builtin_scenario(name)._replace(method=method, convention=convention))
            for name in ("paper-2005", "paper-2001")
            for method in Method for convention in Convention]


def _reference(q, unit):
    return q.canonical / PSEUDO_SCALES[unit] if unit in PSEUDO_SCALES else q.in_unit(unit)


@pytest.mark.parametrize("a", VARIANTS, ids=lambda a: (
    f"{a.scenario.name}-{a.scenario.method.value}-{a.scenario.convention.value}"))
def test_sweep_row_matches_a_per_cell_reference(a):
    assert tuple(REFERENCE_COLUMNS) == _SWEEP_HEADER[2:-1]
    expected = [repr(0.25), *(repr(get(a)) for get in REFERENCE_COLUMNS.values()), ""]
    # the row alone, and after the other variants' rows, whose texts it may reuse
    alone = [SweepPoint(0.25, a)]
    after = [SweepPoint(0.5, b) for b in VARIANTS if b is not a] + alone
    for pts in (alone, after):
        *_, row = _sweep_cells(pts, repr)
        assert row == [str(len(pts) - 1), *expected]


@given(unit=st.sampled_from(sorted(_REPORT_UNITS)), fraction=st.floats(0, 1))
def test_scaled_divides_as_in_unit_does(unit, fraction):
    dimension = _REPORT_UNITS[unit][0]
    q = Quantity(fraction if dimension is Dimension.FRACTION else fraction * 1e18, dimension)
    assert repr(_scaled(q, unit)) == repr(_reference(q, unit))


def test_every_report_unit_of_a_quantity_is_in_the_table(monkeypatch):
    seen = set()

    def recording(value, unit):
        seen.add((isinstance(value, Quantity), unit))
        return _scaled(value, unit)

    monkeypatch.setattr(report, "_scaled", recording)
    for a in VARIANTS:
        report.render(a, "csv")
        list(report._sweep_cells([SweepPoint(0.25, a)], repr))
    report.reproduce()
    assert {unit for is_quantity, unit in seen if is_quantity} <= set(_REPORT_UNITS)
    assert {unit for _, unit in seen} - set(_REPORT_UNITS) == {"ratio"}
    assert set(_SWEEP_UNITS) <= {unit for _, unit in seen}
    assert {"1e9", "1e12 gal"} <= {unit for is_quantity, unit in seen if is_quantity}


@pytest.mark.parametrize("unit", sorted(_REPORT_UNITS))
def test_scaled_rejects_a_quantity_of_another_dimension(unit):
    dimension = _REPORT_UNITS[unit][0]
    other = next(d for d in Dimension if d is not dimension)
    with pytest.raises(DimensionMismatch) as exc:
        _scaled(Quantity(0.5, other), unit)
    assert str(exc.value) == f"unit {unit!r} is {dimension.value}, quantity is {other.value}"
    if unit not in PSEUDO_SCALES:  # the message in_unit gives
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(str(exc.value))}$"):
            Quantity(0.5, other).in_unit(unit)
