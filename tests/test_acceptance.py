"""Acceptance suite: one test per numbered criterion, each at its stated
tolerance, printing one pass line per criterion (visible with pytest -s or
in the captured-output report).
"""

import random
import statistics
from pathlib import Path

import pytest

from evdemand import engine
from evdemand.engine import GallonsBasis, SharesBasis
from evdemand.quantities import (
    BTU_TO_WH_EXACT,
    BTU_TO_WH_PAPER,
    Dimension,
    Quantity,
    format_quantity,
    parse_quantity,
    quantity,
)
from evdemand.refdata import (
    EvModel,
    builtin_chemistry,
    builtin_dataset,
    builtin_ev_catalog,
    catalog_stats,
    source_group_energy,
)
from evdemand.report import render, render_comparisons, reproduce
from evdemand.scenario import (
    SweepSpec,
    apply_override,
    assess,
    load_builtin_scenario,
    parse_scenario,
    render_scenario,
    sweep,
)
from evdemand.cli import main

GOLDEN = Path(__file__).parent / "golden" / "reproduce_all.txt"

F = Dimension.FRACTION


def _ok(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


def _rel(computed: float, expected: float) -> float:
    return abs(computed - expected) / abs(expected)


def test_c01_shares_pipeline():
    fleet = engine.fleet_energy(SharesBasis(
        total_energy=quantity(29000, "TWh"),
        transport_share=Quantity(0.28, F),
        fuel_share=Quantity(0.61, F)))
    assert fleet.in_unit("TWh") == pytest.approx(4953.2, rel=1e-9)
    assert _rel(fleet.in_unit("TWh"), 4953) <= 0.0005
    _ok("criterion 01, fleet energy from shares")


def test_c02_gallons_pipeline():
    def fleet(btu):
        return engine.fleet_energy(GallonsBasis(
            gallons=quantity(113.1e9, "gal"),
            heat_content=quantity(114000, "Btu/gal"),
            btu_to_wh=Quantity(btu, Dimension.BTU_CONVERSION))).in_unit("TWh")

    assert _rel(fleet(BTU_TO_WH_EXACT), 3778) <= 0.001
    assert _rel(fleet(BTU_TO_WH_PAPER), 3776.4) <= 0.0005
    _ok("criterion 02, fleet energy from gallons (both Btu factors)")


def test_c03_per_ev_energy():
    q = engine.per_ev_energy(quantity(112, "kW"), quantity(100, "mi"),
                             quantity(97.5, "mph"))
    assert q.in_unit("kWh") == pytest.approx(114.87, abs=0.005)
    assert _rel(q.in_unit("kWh"), 115) <= 0.005
    _ok("criterion 03, per-EV energy")


def test_c04_battery_counts():
    nimh = builtin_chemistry("nimh")
    per_ev = quantity(115, "kWh")
    a05 = engine.battery_demand_method_a(quantity(4953, "TWh"), per_ev, 4, nimh)
    assert _rel(a05.ev_count.magnitude, 43.07e9) <= 0.001
    assert _rel(a05.battery_count.magnitude, 172.28e9) <= 0.001
    a01 = engine.battery_demand_method_a(quantity(3778, "TWh"), per_ev, 4, nimh)
    assert _rel(a01.battery_count.magnitude, 131.4e9) <= 0.002
    b05 = engine.battery_demand_method_b(quantity(4953, "TWh"), nimh)
    assert _rel(b05.battery_count.magnitude, 198.12e9) <= 0.001
    b01 = engine.battery_demand_method_b(quantity(3778, "TWh"), nimh)
    assert _rel(b01.battery_count.magnitude, 151.12e9) <= 0.001
    _ok("criterion 04, methods A and B battery counts")


def test_c05_production_table():
    expected = {
        ("A", 4953, "pb_acid"): 591.0,
        ("A", 3778, "pb_acid"): 451.0,
        ("B", 4953, "pb_acid"): 679.55,
        ("B", 3778, "pb_acid"): 518.34,
        ("A", 4953, "nimh"): 1236.45,
        ("A", 3778, "nimh"): 943.55,
        ("B", 4953, "nimh"): 1421.71,
        ("B", 3778, "nimh"): 1084.44,
    }
    for (method, fleet_twh, chem_name), printed_expected in expected.items():
        chem = builtin_chemistry(chem_name)
        fleet = quantity(fleet_twh, "TWh")
        if method == "A":
            demand = engine.battery_demand_method_a(fleet, quantity(115, "kWh"),
                                                    4, chem)
        else:
            demand = engine.battery_demand_method_b(fleet, chem)
        consistent = demand.production_energy
        printed = engine.printed_style(consistent)
        assert _rel(printed.in_unit("TWh"), printed_expected) <= 0.002
        # erratum closure must be exact, not approximate
        assert printed.magnitude * 1e3 == consistent.magnitude
    _ok("criterion 05, production table cells and x1000 closure")


def test_c06_catalog_statistics():
    catalog = builtin_ev_catalog()
    power = catalog_stats(catalog, "power")
    speed = catalog_stats(catalog, "max_speed")
    rng = catalog_stats(catalog, "range")
    assert power.median.in_unit("kW") == 112.0
    assert speed.median.magnitude == 97.5
    assert rng.median.magnitude == 100.0
    assert abs(power.mean.in_unit("kW") - 118.7) <= 1.0
    assert abs(speed.mean.magnitude - 90) <= 1.0
    assert abs(rng.mean.magnitude - 91) <= 1.0
    assert power.mean.in_unit("kW") == pytest.approx(118.71, abs=0.005)
    assert speed.mean.magnitude == pytest.approx(89.375, abs=1e-9)
    assert rng.mean.magnitude == pytest.approx(90.67, abs=0.005)
    _ok("criterion 06, catalog means and medians")


def test_c07_generation_shares():
    mix = builtin_dataset("us2005").mix
    fossil = source_group_energy(mix, ["coal", "natural_gas", "oil"]).in_unit("TWh")
    nuclear = source_group_energy(mix, ["nuclear"]).in_unit("TWh")
    assert fossil == pytest.approx(2899.3, abs=0.05)
    assert _rel(fossil, 2895) <= 0.005
    assert nuclear == pytest.approx(782.6, abs=0.05)
    assert _rel(nuclear, 783) <= 0.001
    _ok("criterion 07, fossil and nuclear generation")


def test_c08_co2():
    intensity = engine.carbon_intensity(quantity(2480, "Mt"), quantity(4055, "TWh"))
    assert intensity.magnitude == pytest.approx(0.61159, abs=5e-6)
    co2 = assess(load_builtin_scenario("paper-2005")).additional_co2
    assert _rel(co2.in_unit("Mt"), 3900) <= 0.005
    # calibration closure, exact
    assert engine._additional_co2(quantity(4055, "TWh").canonical,
                                  intensity.canonical).in_unit("Mt") == 2480.0
    _ok("criterion 08, CO2 intensity, additional CO2, exact closure")


def test_c09_water():
    a = assess(load_builtin_scenario("paper-2005"))
    water = dict(a.water)
    assert _rel(water["coal"].magnitude, 1181.58e12) <= 0.005
    assert water["natural_gas"].magnitude == pytest.approx(167.6e12, rel=0.001)
    results = reproduce(["sec6-water"])
    gas_cell = next(c for r in results for c in r.cells if "natural gas" in c.label)
    assert gas_cell.flagged and gas_cell.status == "erratum"
    assert "irreproducible" in gas_cell.note
    _ok("criterion 09, coal water matched, gas water flagged erratum")


def test_c10_strategy():
    supply = 4055 * 0.30
    assert _rel(supply, 1216) <= 0.001
    fraction = assess(load_builtin_scenario("paper-2005")).conversion_fraction
    assert fraction == pytest.approx(0.2456, abs=5e-5)
    assert float(f"{fraction:.1e}") == 0.25
    _ok("criterion 10, renewable strategy fraction")


def test_c11_deficit():
    a = assess(load_builtin_scenario("paper-2005"))
    assert _rel(a.total_additional_energy.in_unit("TWh"), 6374.17) <= 0.002
    assert _rel(a.deficit.ratio_to_baseline, 1.572) <= 0.002
    _ok("criterion 11, total additional energy and baseline ratio")


def test_c12_property_suites():
    # unit round trips at 1e-12 relative
    for unit, value in (("TWh", 4055.0), ("kWh", 25.0), ("MWh", 3.3), ("Wh", 1.0),
                        ("kW", 112.0), ("Mt", 2480.0), ("kg", 500.0),
                        ("gal", 113.1e9), ("%", 61.0)):
        q = quantity(value, unit)
        back = quantity(q.in_unit(unit), unit)
        assert back.magnitude == pytest.approx(q.canonical, rel=1e-12)
        reparsed = parse_quantity(format_quantity(q, unit, 17))
        assert reparsed.canonical == pytest.approx(q.canonical, rel=1e-12)

    # degree-1 homogeneity of the engine ops in their energy argument
    nimh = builtin_chemistry("nimh")
    intensity = engine.carbon_intensity(quantity(2480, "Mt"), quantity(4055, "TWh"))
    for k in (0.0, 0.25, 1.0, 3.0, 17.5):
        e1, ek = quantity(100, "TWh"), quantity(k * 100, "TWh")
        assert engine.fleet_energy(
            SharesBasis(ek, Quantity(0.28, F), Quantity(0.61, F))).magnitude == \
            pytest.approx(k * engine.fleet_energy(
                SharesBasis(e1, Quantity(0.28, F), Quantity(0.61, F))).magnitude,
                rel=1e-12, abs=1e-6)
        assert engine.battery_demand_method_b(ek, nimh).battery_count.magnitude == \
            pytest.approx(k * engine.battery_demand_method_b(
                e1, nimh).battery_count.magnitude, rel=1e-12, abs=1e-6)
        assert engine._additional_co2(ek.canonical, intensity.canonical).magnitude == \
            pytest.approx(k * engine._additional_co2(e1.canonical,
                                                     intensity.canonical).magnitude,
                          rel=1e-12, abs=1e-6)
        assert engine.water_use(ek, Quantity(0.497, F),
                                quantity(480, "gal/MWh")).magnitude == \
            pytest.approx(k * engine.water_use(e1, Quantity(0.497, F),
                                               quantity(480, "gal/MWh")).magnitude,
                          rel=1e-12, abs=1e-6)

    # method A / method B count ratio with the published parameters
    fleet = quantity(4953, "TWh")
    ratio = (engine.battery_demand_method_a(fleet, quantity(115, "kWh"), 4, nimh)
             .battery_count.magnitude /
             engine.battery_demand_method_b(fleet, nimh).battery_count.magnitude)
    assert abs(ratio - 0.8696) <= 1e-3 * 0.8696 + 5e-5
    assert ratio == pytest.approx(172.28 / 198.12, rel=1e-3)

    # median oracle equivalence over 500 random catalogs
    rng = random.Random(12345)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 50)
        values = []
        models = []
        for i in range(n):
            if rng.random() < 0.3:
                models.append(EvModel(name=f"m{i}"))
            else:
                kw = rng.uniform(10, 400)
                models.append(EvModel(name=f"m{i}", power=quantity(kw, "kW")))
                values.append(kw * 1e3)
        if not values:
            continue
        stats = catalog_stats(tuple(models), "power")
        assert stats.median.magnitude == pytest.approx(statistics.median(values),
                                                       rel=1e-12)
        checked += 1

    # sweep points equal direct assessments, exactly
    scenario = load_builtin_scenario("paper-2005")
    spec = SweepSpec.from_values("strategy.renewable_share", [0.1, 0.2, 0.3])
    for point in sweep(scenario, spec):
        assert point.assessment == assess(
            apply_override(scenario, "strategy.renewable_share", point.value))

    # byte-identical re-renders
    a = assess(scenario)
    for fmt in ("text", "csv", "json"):
        assert render(a, fmt).encode() == render(a, fmt).encode()
    results = reproduce()
    assert render_comparisons(results, "text").encode() == \
        render_comparisons(results, "text").encode()

    # scenario serialization round trip
    for name in ("paper-2005", "paper-2001"):
        s = load_builtin_scenario(name)
        assert parse_scenario(render_scenario(s)) == s

    _ok("criterion 12, property suites")


def test_c13_golden_file(capsys):
    code = main(["reproduce", "--all", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == GOLDEN.read_bytes()
    _ok("criterion 13, golden reproduce output byte-identical")
