import csv
import io
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_assess_floats import drawn_scenario

from evdemand.errors import EvDemandError, NonFiniteMagnitude, UnknownTarget
from evdemand.quantities import quantity
from evdemand.report import (
    TARGET_IDS,
    CellResult,
    ComparisonResult,
    _assessment_rows,
    render,
    render_comparisons,
    render_sweep,
    reproduce,
)
from evdemand.scenario import (
    Convention,
    Method,
    SweepPoint,
    SweepSpec,
    assess,
    load_builtin_scenario,
    parse_scenario,
    scenario_echo,
    sweep,
)


@pytest.fixture(scope="module")
def a2005():
    return assess(load_builtin_scenario("paper-2005"))


@pytest.fixture(scope="module")
def all_results():
    return reproduce()


class TestRenderAssessment:
    def test_text_contains_fleet_energy_row(self, a2005):
        text = render(a2005, "text")
        assert any("fleet energy" in line and "4953.2 TWh" in line
                   for line in text.splitlines())

    def test_text_flags_conventions(self, a2005):
        text = render(a2005, "text")
        assert "notes:" in text
        assert "10^3" in text

    def test_rerender_byte_identical(self, a2005):
        for fmt in ("text", "csv", "json"):
            assert render(a2005, fmt).encode() == render(a2005, fmt).encode()

    def test_csv_shape(self, a2005):
        rows = list(csv.reader(io.StringIO(render(a2005, "csv"))))
        assert rows[0] == ["key", "value", "unit", "note"]
        keys = [r[0] for r in rows[1:]]
        assert "fleet_energy" in keys
        assert "total_additional_energy" in keys
        assert "water_coal" in keys

    def test_csv_uses_lf_endings(self, a2005):
        out = render(a2005, "csv")
        assert "\r" not in out

    def test_json_sorted_keys_and_units(self, a2005):
        payload = json.loads(render(a2005, "json"))
        keys = list(payload["values"].keys())
        assert keys == sorted(keys)
        assert payload["values"]["fleet_energy"]["unit"] == "TWh"
        assert payload["values"]["fleet_energy"]["value"] == pytest.approx(
            4953.2, rel=1e-12)
        assert payload["scenario"]["dataset"] == "us2005"

    def test_json_numbers_round_trip(self, a2005):
        payload = json.loads(render(a2005, "json"))
        assert payload["values"]["fleet_energy"]["value"] == \
            a2005.fleet_energy.in_unit("TWh")

    def test_distinct_assessments_render_differently(self, a2005):
        other = assess(load_builtin_scenario("paper-2001"))
        assert render(a2005, "text") != render(other, "text")

    def test_sig_digit_override(self, a2005):
        text = render(a2005, "text", 8)
        assert "4953.2000 TWh" in text or "4953.2 TWh" in text

    def test_unknown_format(self, a2005):
        with pytest.raises(ValueError):
            render(a2005, "yaml")


    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_text_refuses_a_figure_with_no_digits(self, a2005, x):
        hand_built = [a2005._replace(deficit=a2005.deficit._replace(ratio_to_baseline=x))]
        if x != math.inf:  # the conversion row prints min(fraction, 1)
            hand_built.append(a2005._replace(conversion_fraction=x))
        for a in hand_built:
            for digits in (None, *range(1, 18)):
                with pytest.raises(NonFiniteMagnitude, match=f"cannot print {x!r}"):
                    render(a, "text", digits)


class TestRenderSweep:
    def test_empty_sweep_csv_is_header_only(self):
        out = render_sweep("strategy.renewable_share", [], "csv")
        assert out.count("\n") == 1
        assert out.startswith("index,value,")

    def test_rows_in_sweep_order(self):
        s = load_builtin_scenario("paper-2005")
        points = sweep(s, SweepSpec.from_values("strategy.renewable_share",
                                                [0.3, 0.1, 0.2]))
        rows = list(csv.reader(io.StringIO(
            render_sweep("strategy.renewable_share", points, "csv"))))
        assert [row[1] for row in rows[1:]] == ["0.3", "0.1", "0.2"]

    def test_error_points_inline(self):
        s = load_builtin_scenario("paper-2005")
        points = sweep(s, SweepSpec.from_values("strategy.renewable_share",
                                                [0.2, 1.7]))
        rows = list(csv.reader(io.StringIO(
            render_sweep("strategy.renewable_share", points, "csv"))))
        assert rows[1][-1] == ""
        assert rows[2][-1] != ""

    def test_json_points(self):
        s = load_builtin_scenario("paper-2005")
        points = sweep(s, SweepSpec.from_values("strategy.renewable_share", [0.3]))
        payload = json.loads(render_sweep("strategy.renewable_share", points, "json"))
        assert payload["path"] == "strategy.renewable_share"
        assert payload["points"][0]["conversion_fraction"] == pytest.approx(
            0.2456, rel=1e-3)


class TestReproduce:
    def test_all_targets_present_in_order(self, all_results):
        assert tuple(r.target_id for r in all_results) == TARGET_IDS

    def test_all_pass(self, all_results):
        assert all(r.passed for r in all_results)

    def test_table3_has_eight_cells(self, all_results):
        table3 = next(r for r in all_results if r.target_id == "table3")
        assert len(table3.cells) == 8
        assert all(c.status == "ok" for c in table3.cells)

    def test_gas_water_cell_is_flagged_erratum(self, all_results):
        water = next(r for r in all_results if r.target_id == "sec6-water")
        gas = next(c for c in water.cells if "natural gas" in c.label)
        assert gas.flagged
        assert gas.status == "erratum"
        assert gas.passed  # passes by carrying the flag, not by matching
        assert gas.rel_err > 0.4
        coal = next(c for c in water.cells if "coal" in c.label)
        assert not coal.flagged and coal.passed

    def test_strategy_rounding_rule(self, all_results):
        strategy = next(r for r in all_results if r.target_id == "sec7-strategy")
        fraction = next(c for c in strategy.cells if "fraction" in c.label)
        assert fraction.passed
        assert fraction.computed == pytest.approx(0.2456, rel=1e-3)
        assert fraction.expected == 0.25

    def test_subset_and_order_independence(self):
        a = reproduce(["sec6-water", "table3"])
        b = reproduce(["table3", "sec6-water"])
        assert a == b
        assert [r.target_id for r in a] == ["table3", "sec6-water"]

    def test_idempotent(self):
        assert reproduce(["sec3-shares"]) == reproduce(["sec3-shares"])

    def test_unknown_target(self):
        with pytest.raises(UnknownTarget):
            reproduce(["table9"])

    def test_every_cell_carries_anchor_in_json(self, all_results):
        payload = json.loads(render_comparisons(all_results, "json"))
        for target in payload:
            for cell in target["cells"]:
                assert cell["anchor"]

    def test_text_summary_lines(self, all_results):
        text = render_comparisons(all_results, "text")
        assert "table3: 8/8 within tolerance" in text
        assert "targets passed: 9/9" in text

    def test_csv_has_header_and_cells(self, all_results):
        rows = list(csv.reader(io.StringIO(render_comparisons(all_results, "csv"))))
        assert rows[0][0] == "target"
        assert len(rows) == 1 + sum(len(r.cells) for r in all_results)

    def test_rerender_byte_identical(self, all_results):
        for fmt in ("text", "csv", "json"):
            assert render_comparisons(all_results, fmt) == \
                render_comparisons(all_results, fmt)


def _json_as_dumps(a):
    """The assessment JSON as one ``json.dumps(..., indent=2)`` call writes it."""
    values = {row.key: {"value": row.value, "unit": row.unit,
                        **({"note": row.note} if row.note else {})}
              for row in _assessment_rows(a, None)}
    payload = {"scenario": scenario_echo(a.scenario), "values": values}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _comparisons_as_dumps(results):
    """The reproduction JSON as one ``json.dumps(..., indent=2)`` call writes it."""
    payload = [{"target": r.target_id, "title": r.title, "passed": r.passed,
                "notes": list(r.notes),
                "cells": [{"label": c.label, "computed": c.computed, "expected": c.expected,
                           "unit": c.unit, "rel_err": c.rel_err, "status": c.status,
                           "anchor": c.anchor, **({"note": c.note} if c.note else {})}
                          for c in r.cells]}
               for r in results]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# text json escapes: a quote, a backslash, control characters, non-ASCII text
_ODD = ('say "no"', "back\\slash", "tab\there\x00\x1f\x7f", "é ☃ \U0001f600", "")
_SYNTHETIC = [
    ComparisonResult("odd", 'title "é"', tuple(
        CellResult(label, computed, 2.0, "TWh", rule, 0.1, anchor, note)
        for label, anchor, note in zip(_ODD, reversed(_ODD), _ODD[2:] + _ODD[:2])
        for computed in (1.5, math.inf, -math.inf, math.nan, True)
        for rule in ("rel", "erratum")), ("a note", *_ODD)),
    ComparisonResult("no-notes", "T", (CellResult("x", 0.0, 0.0, "frac", "exact", 0.0, "y"),)),
    ComparisonResult("no-cells", "", (), ("n",)),
]


@pytest.mark.parametrize("targets", [None, *([t] for t in TARGET_IDS)], ids=["all", *TARGET_IDS])
def test_comparisons_json_is_what_json_dumps_writes(targets):
    results = reproduce(targets)
    assert render_comparisons(results, "json") == _comparisons_as_dumps(results)


@pytest.mark.parametrize("results", [[], _SYNTHETIC, *([r] for r in _SYNTHETIC)],
                         ids=["none", "all", *(r.target_id for r in _SYNTHETIC)])
def test_hand_built_comparisons_json_is_what_json_dumps_writes(results):
    assert render_comparisons(results, "json") == _comparisons_as_dumps(results)


_NO_CELLS_TEXT = "no-cells: 0/0 within tolerance\n  note: n\n"


def test_a_result_with_no_cells_renders_as_text():
    no_cells = _SYNTHETIC[-1]
    assert render_comparisons([no_cells], "text") == (
        _NO_CELLS_TEXT + "\ntargets passed: 1/1; cells within tolerance: 0/0\n")
    # the others but the odd result, whose infinities and NaNs have no digits to print
    assert render_comparisons(_SYNTHETIC[1:], "text").endswith(
        "\n\n" + _NO_CELLS_TEXT + "\ntargets passed: 2/2; cells within tolerance: 1/1\n")


def _csv_as_writer(a):
    """The assessment csv as one ``csv.writer`` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value", "unit", "note"])
    writer.writerows([row.key, row.value, row.unit, row.note]
                     for row in _assessment_rows(a, None))
    return buf.getvalue()


@pytest.mark.parametrize("basis, method, convention, ev", itertools.product(
    ["shares", "gallons"], Method, Convention, ["explicit", "power-range-speed", "catalog"]))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_json_and_csv_layouts_match_the_library_writers(basis, method, convention, ev, data):
    s = data.draw(st.composite(drawn_scenario)(basis, method, convention, ev))
    try:
        a = assess(s)
    except EvDemandError:
        return
    assert render(a, "json") == _json_as_dumps(a)
    assert render(a, "csv") == _csv_as_writer(a)


def _with_fuels(s, *fuels):
    """``s`` with an inline mix of ``fuels`` and a water pair for each, in order."""
    sources = dict.fromkeys(fuels)
    mix = s.dataset.mix._replace(entries=tuple((f, 1 / len(sources)) for f in sources))
    return s._replace(dataset=s.dataset._replace(mix=mix),
                      water=tuple((f, quantity(100 + k, "gal/MWh")) for k, f in enumerate(fuels)))


@pytest.mark.parametrize("fuels", [
    ("coal", "coal"),  # the json keeps the last row of a key
    ('gas, "wet"', "tab\there", "line\nbreak", "é ☃"),  # keys the csv module quotes
], ids=["repeated", "quoted"])
def test_fuel_names_lay_out_as_the_library_writers_do(fuels):
    a = assess(_with_fuels(load_builtin_scenario("paper-2005"), *fuels))
    assert render(a, "json") == _json_as_dumps(a)
    assert render(a, "csv") == _csv_as_writer(a)


@pytest.mark.parametrize("change", [
    {"batteries_per_ev": 4},  # an int echoes as json.dumps writes it, not as 4.0
    {"water": ()},  # an empty list
    {"name": None},  # null
], ids=["int", "no-water", "no-name"])
def test_echo_lays_out_as_json_dumps_does(change):
    a = assess(load_builtin_scenario("paper-2005")._replace(**change))
    assert render(a, "json") == _json_as_dumps(a)


_A2005 = assess(load_builtin_scenario("paper-2005"))


@pytest.mark.parametrize("a", [
    _A2005._replace(conversion_fraction=0),
    _A2005._replace(deficit=_A2005.deficit._replace(ratio_to_baseline=2)),
    _A2005._replace(conversion_fraction=True),
], ids=["fraction", "ratio", "bool"])
def test_int_figures_lay_out_as_the_library_writers_do(a):
    # json.dumps writes an int as an int, 0 and not 0.0, and a bool as true
    assert render(a, "json") == _json_as_dumps(a)
    assert render(a, "csv") == _csv_as_writer(a)


def test_a_sweep_cell_of_another_number_type_is_the_float_it_converts_to():
    # ``_json_number`` writes anything neither an int nor a float as its float
    a = _A2005._replace(conversion_fraction=Fraction(1, 4))
    out = render_sweep("strategy.renewable_share", [SweepPoint(0.5, a)], "json")
    assert '"conversion_fraction": 0.25,' in out
    assert json.loads(out)["points"][0]["conversion_fraction"] == 0.25
    cell = CellResult("x", Fraction(1, 4), 1.0, "frac", "rel", 0.1, "y")
    out = render_comparisons([ComparisonResult("t", "T", (cell,))], "json")
    assert '"computed": 0.25,' in out and '"rel_err": 0.75,' in out


@pytest.mark.parametrize("fmt, rel_err", [("text", "rel err 3.333e-01"), ("csv", ",3.333e-01,"),
                                           ("json", '"rel_err": 0.3333333333333333,')])
def test_fraction_cells_under_round2sig_and_with_a_fraction_rel_err_are_written(fmt, rel_err):
    # a Fraction's own format spec takes no "e" before CPython 3.12
    cells = (CellResult("x", Fraction(1, 4), 0.25, "frac", "round2sig", 0.0, "y"),
             CellResult("z", Fraction(1, 3), Fraction(1, 4), "frac", "rel", 0.1, "y"))
    assert [c.status for c in cells] == ["ok", "FAIL"]
    assert type(cells[1].rel_err) is float
    assert rel_err in render_comparisons([ComparisonResult("t", "T", cells)], fmt)
