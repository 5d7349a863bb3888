"""Bounded inputs and typed errors: progression sweeps are finite and capped,
bare counts are finite, and the pack, catalog and sweep checks raise
``EvDemandError`` subclasses that are also ``ValueError``s."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdemand.errors import (
    EvDemandError,
    InvalidReferenceData,
    InvalidSweep,
    NonFiniteMagnitude,
    UnknownCatalogField,
)
from evdemand.quantities import quantity
from evdemand.refdata import BatteryChemistry, EvModel, builtin_ev_catalog, catalog_stats
from evdemand.scenario import (
    MAX_SWEEP_POINTS,
    SweepSpec,
    apply_override,
    load_builtin_scenario,
    parse_scenario,
    sweep,
)

PATH = "strategy.renewable_share"


def test_progression_over_the_cap_is_rejected_before_building():
    # 0, 1, ..., 1_000_000 is one point more than the cap allows
    with pytest.raises(InvalidSweep, match="more than 1000000 points"):
        SweepSpec.from_progression(PATH, 0.0, float(MAX_SWEEP_POINTS), 1.0)


@pytest.mark.parametrize("start, stop, step", [
    (0.0, math.inf, 1.0), (-math.inf, 1.0, 0.5), (0.0, 1.0, math.nan),
    (math.nan, 1.0, 0.5), (0.0, 1e308, 1e-308), (-1e308, 1e308, 1.0)])
def test_unbounded_progressions_are_typed_errors(start, stop, step):
    with pytest.raises(InvalidSweep):
        SweepSpec.from_progression(PATH, start, stop, step)


def test_progression_below_the_cap_keeps_its_points():
    spec = SweepSpec.from_progression(PATH, 0.0, 99.0, 1.0)
    assert tuple(spec.points()) == tuple(float(k) for k in range(100))


def test_a_parsed_progression_holds_its_bounds_not_its_points():
    text = ("[meta]\ndataset = us2005\n[sweep]\npath = strategy.renewable_share\n"
            "from = 0\nto = 1\nstep = 0.0000011\n")
    tracemalloc.start()
    try:
        s = parse_scenario(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(1 for _ in s.sweep_spec.points()) == 909_091
    assert peak < 1_000_000


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-1e6, 1e6),
       step=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
       n=st.integers(0, 300), fraction=st.floats(0.0, 0.999))
def test_progression_points_come_from_an_integer_counter(start, step, n, fraction):
    stop = start + (n + fraction) * step
    spec = SweepSpec.from_progression(PATH, start, stop, step)
    last = int((stop - start) / step + 1e-9)  # the span as the cap check rounds it
    assert list(map(repr, spec.points())) == [repr(start + k * step)
                                               for k in range(last + 1)]


def _pack(**overrides):
    fields = dict(name="x", display_name="x", energy_density=quantity(50, "Wh/kg"),
                  pack_mass=quantity(500, "kg"), pack_capacity=quantity(25, "kWh"),
                  manufacture_energy=quantity(1000, "kWh"),
                  emissions_note="", recycling_note="")
    return BatteryChemistry(**{**fields, **overrides})


@pytest.mark.parametrize("make, error", [
    (lambda: _pack(pack_mass=quantity(100, "kg")), InvalidReferenceData),
    (lambda: _pack(manufacture_energy=quantity(0, "kWh")), InvalidReferenceData),
    (lambda: EvModel(name="x", range_mi=(50.0, 40.0)), InvalidReferenceData),
    (lambda: catalog_stats(builtin_ev_catalog(), "price"), UnknownCatalogField),
    (lambda: SweepSpec.from_values(PATH, []), InvalidSweep),
    (lambda: SweepSpec.from_progression(PATH, 0.1, 0.3, 0.0), InvalidSweep),
])
def test_checks_raise_typed_errors_that_are_value_errors(make, error):
    with pytest.raises(error) as exc:
        make()
    assert isinstance(exc.value, EvDemandError) and isinstance(exc.value, ValueError)


def test_infinite_bare_count_is_rejected_like_a_file_value():
    s = load_builtin_scenario("paper-2005")
    with pytest.raises(NonFiniteMagnitude, match="batteries_per_ev must be finite"):
        apply_override(s, "battery.batteries_per_ev", math.inf)
    [point] = sweep(s, SweepSpec.from_values("battery.batteries_per_ev", [math.inf]))
    assert point.assessment is None
    assert point.error == "battery.batteries_per_ev must be finite, got inf"
