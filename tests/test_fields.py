"""The scenario field table: file values and sweep values pass the same
checks, and the write-back round-trips what it renders."""

import math

import pytest

from evdemand import engine
from evdemand.errors import BelowMinimum, UnknownParameter, ValidationError
from evdemand.quantities import Dimension, Quantity, quantity
from evdemand.refdata import builtin_chemistry
from evdemand.scenario import (
    FIELDS,
    OVERRIDE_PATHS,
    SweepSpec,
    apply_override,
    load_builtin_scenario,
    parse_scenario,
    render_dataset,
    render_scenario,
    sweep,
)

INLINE = """
[meta]
name = "quoted id"

[dataset]
id = "my data"
year = "2005"
total_generation = 4055 TWh
total_energy_consumption = 29000 TWh
transport_share = 28 %
gasoline_share = 61 %
household_gasoline = 113.1e9 gal
co2_total = 2480 Mt

[mix]
coal = 70 %
natural_gas = 30 %
"""


def test_override_paths_are_the_ten_sweepable_fields():
    assert list(OVERRIDE_PATHS) == [
        "fleet.total_energy", "fleet.transport_share", "fleet.fuel_share",
        "fleet.gallons", "fleet.heat_content", "fleet.btu_to_wh",
        "ev.per_ev_energy", "battery.batteries_per_ev",
        "strategy.renewable_share", "strategy.baseline_generation",
    ]
    assert list(OVERRIDE_PATHS.values()) == [f for f in FIELDS if f.path in OVERRIDE_PATHS]


def test_each_path_is_declared_once():
    paths = [f.path for f in FIELDS]
    assert len(paths) == len(set(paths))


@pytest.mark.parametrize("method", ["A", "B", "both"])
def test_batteries_per_ev_floor_fails_inline_on_every_method(method):
    s = parse_scenario(f"[meta]\ndataset = us2005\n[battery]\nmethod = {method}\n")
    points = sweep(s, SweepSpec.from_values("battery.batteries_per_ev",
                                            [0.5, math.nan, -3.0, 2.0]))
    assert [p.assessment is None for p in points] == [True, True, True, False]
    assert all(">= 1" in p.error for p in points[:3])
    assert points[3].assessment.scenario.batteries_per_ev == 2.0


def test_file_and_sweep_share_the_floor():
    with pytest.raises(ValidationError) as exc:
        parse_scenario("[meta]\ndataset = us2005\n[battery]\nbatteries_per_ev = 0.5\n")
    [problem] = exc.value.problems
    with pytest.raises(BelowMinimum) as direct:
        apply_override(load_builtin_scenario("paper-2005"), "battery.batteries_per_ev", 0.5)
    assert problem.endswith(str(direct.value))


@pytest.mark.parametrize("path", list(OVERRIDE_PATHS))
def test_nan_fails_inline_on_every_path(path):
    basis = "paper-2001" if path in ("fleet.gallons", "fleet.heat_content",
                                     "fleet.btu_to_wh") else "paper-2005"
    [point] = sweep(load_builtin_scenario(basis), SweepSpec.from_values(path, [math.nan]))
    assert point.assessment is None and point.error


def test_sweep_quantity_of_wrong_dimension_names_the_path():
    with pytest.raises(UnknownParameter, match="fleet.gallons takes volume, got energy"):
        apply_override(load_builtin_scenario("paper-2001"), "fleet.gallons",
                       quantity(4055, "TWh"))


def test_a_count_quantity_sets_the_bare_count():
    s = apply_override(load_builtin_scenario("paper-2005"), "battery.batteries_per_ev",
                       Quantity(3.0, Dimension.COUNT))
    assert type(s.batteries_per_ev) is float and s.batteries_per_ev == 3.0


def test_engine_rejects_nan_packs_with_a_typed_error():
    nimh = builtin_chemistry("nimh")
    for packs in (0.5, math.nan):
        with pytest.raises(BelowMinimum):
            engine.battery_demand_method_a(quantity(4953, "TWh"), quantity(115, "kWh"),
                                           packs, nimh)


def test_quoted_dataset_id_round_trips():
    s = parse_scenario(INLINE)
    assert s.dataset.id == "my data"
    text = render_scenario(s)
    assert 'id = "my data"' in text
    assert parse_scenario(text) == s
    assert parse_scenario(render_dataset(s.dataset)).dataset == s.dataset


def test_identifier_dataset_id_stays_bare():
    s = parse_scenario(INLINE.replace('"my data"', "region-7"))
    assert "id = region-7\n" in render_dataset(s.dataset)
