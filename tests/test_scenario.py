import json
import re
from collections import Counter
from pathlib import Path

import pytest

from evdemand import scenario
from evdemand.engine import (
    PRODUCTION_TABLE_NOTE,
    WATER_CONVENTION_NOTE,
    GallonsBasis,
    SharesBasis,
)
from evdemand.errors import (
    DimensionMismatch,
    InvalidSweep,
    ParseError,
    UnknownParameter,
    UnknownScenario,
    UnwritableScenario,
    ValidationError,
)
from evdemand.quantities import (
    BTU_TO_WH_EXACT,
    BTU_TO_WH_PAPER,
    Dimension,
    Quantity,
    UnitCatalog,
    quantity,
)
from evdemand.refdata import builtin_dataset
from evdemand.report import render, reproduce
from evdemand.scnformat import parse_document
from evdemand.scenario import (
    BUILTIN_SCENARIOS,
    CatalogMedian,
    Convention,
    ExplicitPerEv,
    Method,
    PowerRangeSpeed,
    Scenario,
    SweepSpec,
    apply_override,
    assess,
    builtin_scenario_text,
    iter_sweep,
    load_builtin_scenario,
    load_scenario,
    parse_scenario,
    render_scenario,
    sweep,
)

DATA = Path(__file__).parent / "data"

MINIMAL = """
[meta]
dataset = us2005
"""


def _scn(extra: str, base: str = MINIMAL) -> Scenario:
    return parse_scenario(base + extra)


def _row_notes(a) -> dict[str, str]:
    """The note of each rendered row that carries one, by row key."""
    values = json.loads(render(a, "json"))["values"]
    return {key: v["note"] for key, v in values.items() if "note" in v}


class TestLoading:
    def test_paper_2005_fixture(self):
        s = load_builtin_scenario("paper-2005")
        assert s.name == "paper-2005"
        assert s.dataset.id == "us2005"
        assert isinstance(s.fleet_basis, SharesBasis)
        assert s.fleet_basis.total_energy.in_unit("TWh") == 29000.0
        assert s.fleet_basis.transport_share.magnitude == 0.28
        assert s.fleet_basis.fuel_share.magnitude == 0.61
        assert s.chemistry.name == "nimh"
        assert s.batteries_per_ev == 4.0
        assert s.method is Method.BOTH
        assert s.convention is Convention.PUBLISHED
        assert isinstance(s.ev_reference, CatalogMedian)

    def test_paper_2001_fixture(self):
        s = load_builtin_scenario("paper-2001")
        assert isinstance(s.fleet_basis, GallonsBasis)
        assert s.fleet_basis.gallons.magnitude == 113.1e9
        assert s.fleet_basis.heat_content.magnitude == 114000.0
        assert s.fleet_basis.btu_to_wh.magnitude == BTU_TO_WH_EXACT

    def test_empty_text_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_scenario("")

    def test_defaults_from_dataset(self):
        s = parse_scenario(MINIMAL)
        assert s.name == "us2005"
        assert isinstance(s.fleet_basis, SharesBasis)
        assert s.fleet_basis.total_energy == builtin_dataset("us2005").total_energy_consumption
        assert isinstance(s.ev_reference, CatalogMedian)
        assert s.chemistry.name == "nimh"
        assert s.batteries_per_ev == 4.0
        assert s.method is Method.BOTH
        assert s.convention is Convention.PUBLISHED
        assert s.renewable_share.magnitude == 0.30
        assert s.baseline_generation.in_unit("TWh") == 4055.0
        assert dict(s.water)["coal"].magnitude == 480.0

    def test_renewable_share_percent_override(self):
        s = _scn("\n[strategy]\nrenewable_share = 30 %\n")
        assert s.renewable_share.magnitude == 0.30

    def test_unknown_dataset(self):
        with pytest.raises(ValidationError,
                           match=r"^unknown dataset 'us2030'; built-ins: us2001, us2005$"):
            parse_scenario("[meta]\ndataset = us2030\n")

    def test_unknown_chemistry(self):
        with pytest.raises(ValidationError, match=(
                r"^unknown chemistry 'li_ion'; built-ins: nimh, pb_acid \(or supply "
                r"pack_capacity, manufacture_energy, energy_density, pack_mass\)$")):
            _scn("\n[battery]\nchemistry = li_ion\n")

    @pytest.mark.parametrize("extra, problem", [
        ("\n[fleet]\nbasis = shares\ntotal_energy = 29000\n",
         "line 7: total_energy must be an energy quantity literal, got '29000'"),
        ("\n[battery]\nchemistry = mine\npack_capacity = 25 kWh\nmanufacture_energy = 1 MWh"
         "\nenergy_density = 50\npack_mass = 500 kg\n",
         "line 9: energy_density must be an energy_density quantity literal, got '50'"),
        ("\n[ev]\npower = 5\nrange = 100 mi\nspeed = 50 mph\n",
         "line 6: power must be a power quantity literal, got '5'"),
    ], ids=["energy", "energy_density", "power"])
    def test_a_bare_number_for_a_quantity_takes_the_article_of_its_dimension(self, extra,
                                                                              problem):
        with pytest.raises(ValidationError) as exc:
            _scn(extra)
        assert exc.value.problems == [problem]

    def test_unknown_key_is_error(self):
        with pytest.raises(ValidationError) as exc:
            _scn("\n[strategy]\nrenewable_shard = 30 %\n")
        assert any("renewable_shard" in p for p in exc.value.problems)

    def test_unknown_section_is_error(self):
        with pytest.raises(ValidationError):
            _scn("\n[turbines]\ncount = 5\n")

    def test_missing_dataset_is_error(self):
        with pytest.raises(ValidationError):
            parse_scenario("[fleet]\nbasis = shares\n")

    def test_ev_sources_are_mutually_exclusive(self):
        with pytest.raises(ValidationError):
            _scn("\n[ev]\nper_ev_energy = 115 kWh\nsource = catalog-median\n")

    def test_ev_triple_requires_all_three(self):
        with pytest.raises(ValidationError):
            _scn("\n[ev]\npower = 112 kW\nrange = 100 mi\n")

    def test_explicit_per_ev(self):
        s = _scn("\n[ev]\nper_ev_energy = 115 kWh\n")
        assert isinstance(s.ev_reference, ExplicitPerEv)
        assert s.ev_reference.per_ev.in_unit("kWh") == 115.0
        a = assess(s)
        assert a.per_ev_energy == s.ev_reference.per_ev
        assert a.demand_a.ev_count.magnitude == a.fleet_energy.canonical / 115e3

    def test_power_range_speed(self):
        s = _scn("\n[ev]\npower = 112 kW\nrange = 100 mi\nspeed = 97.5 mph\n")
        assert isinstance(s.ev_reference, PowerRangeSpeed)

    def test_wrong_dimension_is_error(self):
        with pytest.raises(ValidationError) as exc:
            _scn("\n[strategy]\nbaseline_generation = 4055 gal\n")
        assert any("energy" in p for p in exc.value.problems)

    def test_batteries_per_ev_must_be_at_least_one(self):
        with pytest.raises(ValidationError):
            _scn("\n[battery]\nbatteries_per_ev = 0.5\n")

    def test_water_fuel_must_be_in_mix(self):
        with pytest.raises(ValidationError):
            _scn("\n[water]\ngeothermal = 10 gal/MWh\n")

    def test_bad_mix_fixture_reports_sum_violation(self):
        with pytest.raises(ValidationError) as exc:
            parse_scenario(builtin_scenario_text("bad-mix"))
        assert any("sum" in p for p in exc.value.problems)

    def test_btu_token_paper(self):
        s = _scn("", base="[meta]\ndataset = us2001\n[fleet]\nbasis = gallons\n"
                          "btu_to_wh = paper\n")
        assert s.fleet_basis.btu_to_wh.magnitude == BTU_TO_WH_PAPER

    def test_custom_chemistry_requires_pack_fields(self):
        with pytest.raises(ValidationError):
            _scn("\n[battery]\nchemistry = li_ion\npack_capacity = 25 kWh\n")

    def test_custom_chemistry(self):
        s = _scn("\n[battery]\nchemistry = li_ion\npack_capacity = 25 kWh\n"
                 "manufacture_energy = 5000 kWh\nenergy_density = 125 Wh/kg\n"
                 "pack_mass = 200 kg\n")
        assert s.chemistry.name == "li_ion"
        assert s.chemistry.manufacture_energy.in_unit("kWh") == 5000.0

    def test_reproduce_parses_each_fixture_once(self, monkeypatch):
        parsed = Counter()
        parse = scenario.parse_scenario

        def counting(text, *, default_name=None):
            parsed[default_name] += 1
            return parse(text, default_name=default_name)

        monkeypatch.setattr(scenario, "parse_scenario", counting)
        load_builtin_scenario.cache_clear()
        assert reproduce() == reproduce()
        assert parsed == {"paper-2005": 1, "paper-2001": 1}

    def test_unknown_builtin_scenario_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(UnknownScenario):
                load_builtin_scenario("paper-2099")

    def test_load_scenario_from_path(self, tmp_path):
        p = tmp_path / "mini.scn"
        p.write_text(MINIMAL, encoding="utf-8")
        s = load_scenario(p)
        assert s.name == "mini"  # unnamed scenarios take the file stem

    def test_inline_and_reference_conflict(self):
        text = builtin_scenario_text("bad-mix").replace(
            "name = \"bad-mix\"", "name = \"bad-mix\"\ndataset = us2005")
        with pytest.raises(ValidationError) as exc:
            parse_scenario(text)
        assert any("inline" in p for p in exc.value.problems)


class TestAssess:
    def test_paper_2005(self):
        a = assess(load_builtin_scenario("paper-2005"))
        assert a.fleet_energy.in_unit("TWh") == pytest.approx(4953.2, rel=1e-12)
        assert a.per_ev_energy.in_unit("kWh") == pytest.approx(112 * 100 / 97.5,
                                                               rel=1e-12)
        assert a.total_additional_energy.in_unit("TWh") == pytest.approx(6374.17,
                                                                         rel=0.002)
        assert a.additional_co2.in_unit("Mt") == pytest.approx(3898, rel=0.001)
        assert a.totals_demand is a.demand_b

    def test_paper_2001(self):
        a = assess(load_builtin_scenario("paper-2001"))
        assert a.fleet_energy.in_unit("TWh") == pytest.approx(3778.7, rel=1e-4)
        assert a.demand_b.battery_count.magnitude == pytest.approx(151.15e9, rel=1e-4)
        assert a.demand_b.battery_count.magnitude == pytest.approx(151.12e9, rel=0.001)

    def test_zero_transport_share_zeroes_everything(self):
        a = assess(_scn("\n[fleet]\ntransport_share = 0 %\n"))
        assert a.fleet_energy.magnitude == 0.0
        assert a.demand_a.ev_count.magnitude == 0.0
        assert a.demand_b.battery_count.magnitude == 0.0
        assert a.battery_energy_for_totals.magnitude == 0.0
        assert a.total_additional_energy.magnitude == 0.0
        assert a.additional_co2.magnitude == 0.0
        assert all(v.magnitude == 0.0 for _, v in a.water)
        assert a.conversion_fraction == 0.0
        assert a.deficit.deficit.magnitude == 0.0
        assert _row_notes(a)["fleet_energy"] == "zero fleet energy; downstream values are zero"

    def test_method_a_only(self):
        a = assess(_scn("\n[battery]\nmethod = A\n"))
        assert a.demand_b is None
        assert a.totals_demand is a.demand_a

    def test_consistent_convention(self):
        published = assess(load_builtin_scenario("paper-2005"))
        consistent = assess(_scn("\n[battery]\nconvention = consistent\n"))
        assert consistent.battery_energy_for_totals.magnitude == pytest.approx(
            published.battery_energy_for_totals.magnitude * 1e3, rel=1e-12)

    def test_paper_mantissa_token_accepted(self):
        s = _scn("\n[battery]\nconvention = paper-mantissa\n")
        assert s.convention is Convention.PUBLISHED

    def test_referentially_transparent(self):
        s = load_builtin_scenario("paper-2005")
        assert assess(s) == assess(s)

    @pytest.mark.parametrize("name", ["paper-2005", "paper-2001",
                                      *sorted(p.name for p in DATA.glob("*.scn"))])
    def test_no_unit_lookup(self, monkeypatch, name):
        s = load_scenario(DATA / name) if name.endswith(".scn") else load_builtin_scenario(name)
        lookups = []
        real = UnitCatalog.lookup

        def counting(catalog, unit):
            lookups.append(unit)
            return real(catalog, unit)

        monkeypatch.setattr(UnitCatalog, "lookup", counting)
        assess(s)
        assert lookups == []

    def test_notes_mark_documented_conventions(self):
        notes = _row_notes(assess(load_builtin_scenario("paper-2005")))
        assert notes["battery_energy_for_totals"] == "method B, published convention"
        assert notes["production_published_b"] == PRODUCTION_TABLE_NOTE
        assert notes["water_coal"] == notes["water_natural_gas"] == WATER_CONVENTION_NOTE
        assert "fleet_energy" not in notes and "conversion_fraction" not in notes

    def test_full_conversion_flag(self):
        a = assess(_scn("\n[fleet]\ntotal_energy = 100 TWh\n"))
        assert a.conversion_fraction > 1.0
        assert a.full_conversion
        assert _row_notes(a)["conversion_fraction"] == \
            "full conversion: renewable supply covers the whole fleet"

    @pytest.mark.parametrize("change, message", [
        ({"dataset": None}, "dataset must be ReferenceDataset, got None"),
        ({"fleet_basis": None}, "fleet_basis must be SharesBasis or GallonsBasis, got None"),
        ({"ev_reference": None},
         "ev_reference must be ExplicitPerEv or PowerRangeSpeed or CatalogMedian, got None"),
        ({"batteries_per_ev": "4"}, "batteries_per_ev must be int or float, got '4'"),
        ({"batteries_per_ev": True}, "batteries_per_ev must be int or float, got True"),
        ({"chemistry": None}, "chemistry must be BatteryChemistry, got None"),
        ({"method": "both"},
         "method must be one of Method.A, Method.B, Method.BOTH, got 'both'"),
        ({"method": None}, "method must be one of Method.A, Method.B, Method.BOTH, got None"),
        ({"convention": "published"}, "convention must be one of Convention.CONSISTENT, "
                                      "Convention.PUBLISHED, got 'published'"),
        ({"water": None}, "water must be tuple, got None"),
        ({"sweep_spec": "x"}, "sweep_spec must be SweepSpec or None, got 'x'"),
    ], ids=["dataset", "fleet_basis", "ev_reference", "batteries_per_ev", "bool-count",
            "chemistry", "method", "method-None", "convention", "water", "sweep_spec"])
    def test_a_field_of_another_type_is_a_typed_error(self, change, message):
        """The loader builds only members of each type; a record built by hand
        may hold any value. It is refused before any stage runs, so a string
        "published" does not pass for the consistent convention, nor an
        ``ev_reference`` of None for the catalog median."""
        s = load_builtin_scenario("paper-2005")._replace(**change)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            assess(s)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            next(iter_sweep(s, SweepSpec("strategy.renewable_share", [0.1])))
        with pytest.raises(UnwritableScenario, match=f"^{re.escape(message)}$"):
            render_scenario(s)
        a = assess(load_builtin_scenario("paper-2005"))._replace(scenario=s)
        for fmt in ("text", "csv", "json"):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                render(a, fmt)

    @pytest.mark.parametrize("change, message", [
        ({"renewable_share": 0.5}, "renewable share must be fraction, got 0.5"),
        ({"baseline_generation": 4055.0}, "baseline generation must be energy, got 4055.0"),
        ({"fleet_basis": SharesBasis(4953.0, quantity(0.28, "frac"), quantity(0.61, "frac"))},
         "total energy must be energy, got 4953.0"),
        ({"fleet_basis": GallonsBasis(quantity(1e9, "gal"), None, None)},
         "heat content must be heat_content, got None"),
        ({"ev_reference": ExplicitPerEv(115.0)}, "per-EV energy must be energy, got 115.0"),
        ({"ev_reference": PowerRangeSpeed(quantity(100, "kW"), "100 mi", None)},
         "range must be distance, got '100 mi'"),
        ({"water": (("coal", 0.5),)}, "water intensity must be water_intensity, got 0.5"),
    ], ids=["renewable_share", "baseline_generation", "shares", "gallons", "per-ev",
            "power-range-speed", "water"])
    def test_a_bare_value_in_a_quantity_slot_is_a_typed_error(self, change, message):
        """Each slot is checked where a stage reads it, so a sweep point that
        does not replace it carries the error inline, as a full assess of it
        raises it."""
        s = load_builtin_scenario("paper-2005")._replace(**change)
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            assess(s)
        [point] = iter_sweep(s, SweepSpec("battery.batteries_per_ev", [2.0]))
        assert point == (2.0, None, message)

    @pytest.mark.parametrize("change, message", [
        ({"renewable_share": 0.5}, "strategy.renewable_share must be fraction, got 0.5"),
        ({"baseline_generation": 4055.0},
         "strategy.baseline_generation must be energy, got 4055.0"),
        ({"fleet_basis": SharesBasis(quantity(29000, "TWh"), 0.28, quantity(0.61, "frac"))},
         "fleet.transport_share must be fraction, got 0.28"),
    ], ids=["renewable_share", "baseline_generation", "fleet-basis"])
    def test_the_json_echo_of_a_bare_value_in_a_quantity_slot_is_a_typed_error(self, change,
                                                                               message):
        """``render`` checks no quantity up front: the json echo names the
        field it cannot write, and text and csv, which echo no input, write
        the report."""
        a = assess(load_builtin_scenario("paper-2005"))
        hand = a._replace(scenario=a.scenario._replace(**change))
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            render(hand, "json")
        for fmt in ("text", "csv"):
            assert render(hand, fmt) == render(a, fmt)

    @pytest.mark.parametrize("change, message", [
        ({"renewable_share": Quantity(1.0, Dimension.ENERGY)},
         "strategy.renewable_share must be fraction, got energy"),
        ({"fleet_basis": SharesBasis(quantity(29000, "TWh"), quantity(0.28, "frac"),
                                     Quantity(0.61, Dimension.ENERGY))},
         "fleet.fuel_share must be fraction, got energy"),
    ], ids=["renewable_share", "fleet-basis"])
    def test_the_json_echo_of_a_quantity_of_another_dimension_is_a_typed_error(self, change,
                                                                               message):
        """A field the json echo writes in its canonical unit is checked for
        its dimension as one in an echo unit is, not written as its magnitude."""
        a = assess(load_builtin_scenario("paper-2005"))
        hand = a._replace(scenario=a.scenario._replace(**change))
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            render(hand, "json")

    @pytest.mark.parametrize("change, message", [
        ({"mix": None}, "dataset.mix must be GridMix, got None"),
        ({"water_intensity": None}, "dataset.water_intensity must be Mapping, got None"),
        ({"water_intensity": True}, "dataset.water_intensity must be Mapping, got True"),
        ({"mix": builtin_dataset("us2005").mix._replace(entries=None)},
         "dataset.mix.entries must be tuple, got None"),
    ], ids=["mix", "water_intensity", "water_intensity-bool", "entries"])
    def test_a_nested_field_of_another_type_is_a_typed_error(self, change, message):
        """The records a field holds are checked by their own annotations, at
        any depth, through every entry point, and the error names the dotted path."""
        dataset = load_builtin_scenario("paper-2005").dataset._replace(**change)
        self.test_a_field_of_another_type_is_a_typed_error({"dataset": dataset}, message)

    def test_a_dataset_may_hold_any_mapping_of_water_intensities(self):
        s = load_builtin_scenario("paper-2005")
        hand = s._replace(dataset=s.dataset._replace(water_intensity=dict(
            s.dataset.water_intensity)))
        assert assess(hand) == assess(s)._replace(scenario=hand)


class TestSweep:
    def test_renewable_share_points(self):
        s = load_builtin_scenario("paper-2005")
        spec = SweepSpec.from_values("strategy.renewable_share", [0.1, 0.2, 0.3])
        points = sweep(s, spec)
        fleet = 29000e12 * 0.28 * 0.61
        got = [p.assessment.conversion_fraction for p in points]
        expected = [4055e12 * share / fleet for share in (0.1, 0.2, 0.3)]
        assert got == pytest.approx(expected, rel=1e-12)
        assert [round(f, 4) for f in got] == [0.0819, 0.1637, 0.2456]

    def test_single_value_sweep_matches_assess(self):
        s = load_builtin_scenario("paper-2005")
        [point] = sweep(s, SweepSpec.from_values("strategy.renewable_share", [0.3]))
        direct = assess(apply_override(s, "strategy.renewable_share", 0.3))
        assert point.assessment == direct

    def test_batteries_per_ev_scaling(self):
        s = load_builtin_scenario("paper-2005")
        points = sweep(s, SweepSpec.from_values("battery.batteries_per_ev",
                                                [1.0, 2.0, 4.0]))
        counts = [p.assessment.demand_a.battery_count.magnitude for p in points]
        assert counts[1] == pytest.approx(2 * counts[0], rel=1e-12)
        assert counts[2] == pytest.approx(4 * counts[0], rel=1e-12)
        assert counts[2] == pytest.approx(172.28e9, rel=0.002)

    def test_every_point_matches_assess(self):
        s = load_builtin_scenario("paper-2005")
        spec = SweepSpec("strategy.renewable_share", start=0.05, stop=0.45, step=0.1)
        for point in sweep(s, spec):
            assert point.assessment == assess(
                apply_override(s, "strategy.renewable_share", point.value))

    def test_progression_counter_has_no_drift(self):
        spec = SweepSpec("strategy.renewable_share", start=0.1, stop=0.3, step=0.1)
        points = list(spec.points())
        assert len(points) == 3
        assert points[2] == 0.1 + 2 * 0.1

    def test_invalid_progressions(self):
        with pytest.raises(ValueError):
            SweepSpec("p", start=0.1, stop=0.3, step=0.0)
        with pytest.raises(ValueError):
            SweepSpec("p", start=0.3, stop=0.1, step=0.1)

    @pytest.mark.parametrize("args", [
        (5,), ([None, "x"],), (["0.5"],), ([0.5, True],), (None, "a", 1, 1), (None, 0.0, 1.0, False),
    ], ids=["values-not-a-list", "none-and-text", "numeric-text", "bool", "text-bound", "bool-bound"])
    def test_sweep_spec_rejects_what_is_not_a_number_or_quantity(self, args):
        with pytest.raises(InvalidSweep):
            SweepSpec("strategy.renewable_share", *args)

    def test_unknown_parameter(self):
        s = load_builtin_scenario("paper-2005")
        with pytest.raises(UnknownParameter):
            sweep(s, SweepSpec.from_values("strategy.cloudiness", [0.1]))

    @pytest.mark.parametrize("path", [["strategy.renewable_share"], {"a": 1}])
    def test_an_unhashable_path_is_an_unknown_parameter(self, path):
        """Spelled as for any other path that names no field, ``None`` or ``3``."""
        message = f"unknown parameter path {path!r}; known: battery.batteries_per_ev, "
        s = load_builtin_scenario("paper-2005")
        with pytest.raises(UnknownParameter, match=f"^{re.escape(message)}"):
            SweepSpec(path, [1.0])
        with pytest.raises(UnknownParameter, match=f"^{re.escape(message)}"):
            apply_override(s, path, 1.0)

    def test_per_point_failure_recorded_inline(self):
        s = load_builtin_scenario("paper-2005")
        points = sweep(s, SweepSpec.from_values("strategy.renewable_share",
                                                [0.5, 1.5]))
        assert points[0].assessment is not None
        assert points[1].assessment is None
        assert "fraction" in points[1].error

    def test_quantity_valued_points(self):
        s = load_builtin_scenario("paper-2005")
        points = sweep(s, SweepSpec.from_values(
            "strategy.baseline_generation", [quantity(4055, "TWh")]))
        assert points[0].assessment is not None

    def test_shares_path_rejected_on_gallons_basis(self):
        s = load_builtin_scenario("paper-2001")
        with pytest.raises(UnknownParameter):
            apply_override(s, "fleet.transport_share", 0.3)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["paper-2005", "paper-2001"])
    def test_fixture_round_trip(self, name):
        s = load_builtin_scenario(name)
        assert parse_scenario(render_scenario(s)) == s

    def test_round_trip_with_sweep_section(self):
        s = _scn("\n[sweep]\npath = strategy.renewable_share\nvalues = 0.1, 0.2, 0.3\n")
        assert s.sweep_spec is not None
        assert parse_scenario(render_scenario(s)) == s

    def test_round_trip_with_progression(self):
        s = _scn("\n[sweep]\npath = battery.batteries_per_ev\nfrom = 1\nto = 4\nstep = 1\n")
        assert tuple(s.sweep_spec.points()) == (1.0, 2.0, 3.0, 4.0)
        assert parse_scenario(render_scenario(s)) == s

    def test_round_trip_explicit_ev_and_overrides(self):
        s = _scn("\n[ev]\nper_ev_energy = 115 kWh\n[battery]\nchemistry = pb_acid\n"
                 "batteries_per_ev = 2\nmethod = B\nconvention = consistent\n")
        assert parse_scenario(render_scenario(s)) == s

    def test_round_trip_gallons_paper_constant(self):
        s = parse_scenario("[meta]\ndataset = us2001\n[fleet]\nbasis = gallons\n"
                           "btu_to_wh = paper\n")
        assert parse_scenario(render_scenario(s)) == s

    def test_round_trip_custom_chemistry(self):
        s = _scn("\n[battery]\nchemistry = li_ion\npack_capacity = 25 kWh\n"
                 "manufacture_energy = 5000 kWh\nenergy_density = 125 Wh/kg\n"
                 "pack_mass = 200 kg\n")
        assert parse_scenario(render_scenario(s)) == s

    def test_round_trip_equality_is_fieldwise(self):
        s = load_builtin_scenario("paper-2005")
        s2 = parse_scenario(render_scenario(s))
        for name in Scenario._fields:
            assert getattr(s, name) == getattr(s2, name), name


class TestScnFormatDetails:
    def test_comment_inside_string_preserved(self):
        s = parse_scenario('[meta]\nname = "a # b"\ndataset = us2005\n')
        assert s.name == "a # b"

    def test_trailing_comment_stripped(self):
        s = parse_scenario("[meta]\ndataset = us2005  # the 2005 baseline\n")
        assert s.dataset.id == "us2005"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("[meta]\ndataset = us2005\ndataset = us2001\n")
        assert exc.value.line == 3

    def test_entry_before_section_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario("dataset = us2005\n")

    def test_garbled_line_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("[meta]\ndataset us2005\n")
        assert exc.value.line == 2

    def test_bad_value_column_is_past_the_key(self):
        # the key "a1e" holds the value text "1e" at column 2
        with pytest.raises(ParseError) as exc:
            parse_document("[meta]\na1e = 1e")
        assert (exc.value.line, exc.value.column) == (2, 7)
        assert str(exc.value).endswith("(line 2, column 7)")

    def test_list_item_column_is_the_item(self):
        with pytest.raises(ParseError) as exc:
            parse_document("[sweep]\nvalues = 0.1,   1 furlong")
        assert exc.value.column == 17
        [section] = parse_document("[s]\nk = a,  b").sections
        assert [item.column for item in section.get("k").payload] == [5, 9]
        with pytest.raises(ParseError) as exc:  # an empty item keeps its column
            parse_document("[s]\nk = a,  ,b")
        assert exc.value.column == 7

    def test_value_column_is_past_the_key(self):
        [section] = parse_document("[meta]\nab = b").sections
        [entry] = section.entries
        assert (entry.value.text, entry.value.line, entry.value.column) == ("b", 2, 6)
