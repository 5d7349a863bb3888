"""Bounded inputs and typed errors: progression sweeps are finite and capped,
bare counts are finite, the pack, catalog and sweep checks raise
``EvDemandError`` subclasses that are also ``ValueError``s, and a number of
the wrong type, or an int too large for a float, is a typed error at every
gate of the API, a ``Quantity``'s magnitude among them."""

import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdemand.errors import (
    BelowMinimum,
    EvDemandError,
    InvalidReferenceData,
    InvalidRenderOption,
    InvalidSweep,
    NonFiniteMagnitude,
    NonNumericMagnitude,
    UnknownCatalogField,
    UnknownParameter,
)
from evdemand.quantities import Dimension, Quantity, format_quantity, quantity
from evdemand.refdata import BatteryChemistry, EvModel, builtin_ev_catalog, catalog_stats
from evdemand.scenario import (
    MAX_SWEEP_POINTS,
    SweepSpec,
    apply_override,
    assess,
    iter_sweep,
    load_builtin_scenario,
    parse_scenario,
    sweep,
)
from evdemand.report import render, render_comparisons, reproduce

PATH = "strategy.renewable_share"


def test_progression_over_the_cap_is_rejected_before_building():
    # 0, 1, ..., 1_000_000 is one point more than the cap allows
    with pytest.raises(InvalidSweep, match="more than 1000000 points"):
        SweepSpec(PATH, start=0.0, stop=float(MAX_SWEEP_POINTS), step=1.0)


@pytest.mark.parametrize("start, stop, step", [
    (0.0, math.inf, 1.0), (-math.inf, 1.0, 0.5), (0.0, 1.0, math.nan),
    (math.nan, 1.0, 0.5), (0.0, 1e308, 1e-308), (-1e308, 1e308, 1.0)])
def test_unbounded_progressions_are_typed_errors(start, stop, step):
    with pytest.raises(InvalidSweep):
        SweepSpec(PATH, start=start, stop=stop, step=step)


def test_progression_below_the_cap_keeps_its_points():
    spec = SweepSpec(PATH, start=0.0, stop=99.0, step=1.0)
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
    spec = SweepSpec(PATH, start=start, stop=stop, step=step)
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
    (lambda: SweepSpec(PATH, start=0.1, stop=0.3, step=0.0), InvalidSweep),
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


@pytest.mark.parametrize("call, digits", [
    (lambda d: render(assess(load_builtin_scenario("paper-2005")), "text", d), 3.5),
    (lambda d: render_comparisons(reproduce(["table2-stats"]), "text", d), 2.0),
    (lambda d: format_quantity(quantity(1, "TWh"), "TWh", d), 4.0),
    (lambda d: render(assess(load_builtin_scenario("paper-2005")), "text", d), "3"),
    (lambda d: render(assess(load_builtin_scenario("paper-2005")), "csv", d), True),
], ids=["render-float", "comparisons-float", "format-float", "render-text", "render-bool"])
def test_sig_digits_take_only_an_int(call, digits):
    with pytest.raises(InvalidRenderOption,
                       match=f"^sig_digits must be from 1 to 17, got {digits!r}$"):
        call(digits)


@pytest.mark.parametrize("path, value", [
    ("battery.batteries_per_ev", None), ("battery.batteries_per_ev", "4"),
    ("battery.batteries_per_ev", True), (PATH, "0.5"),
], ids=["none", "numeric-text", "bool", "fraction-text"])
def test_an_override_takes_what_a_sweep_spec_takes(path, value):
    s = load_builtin_scenario("paper-2005")
    with pytest.raises(UnknownParameter,
                       match=f"^{path} takes a number or a quantity, got {value!r}$"):
        apply_override(s, path, value)
    with pytest.raises(InvalidSweep, match="is not a number or a quantity"):
        SweepSpec(path, [value])


@pytest.mark.parametrize("start, stop, step, message", [
    (0, 2**1100, 1, "sweep from/to/step must be finite"),
    (-(10**308), 10**308, 1, "has more than 1000000 points"),
    (10**308, -(10**308), 1, "never reaches"),
], ids=["bound", "span", "span-backwards"])
def test_int_bounds_too_large_for_a_float_are_invalid_sweeps(start, stop, step, message):
    with pytest.raises(InvalidSweep, match=message):
        SweepSpec(PATH, start=start, stop=stop, step=step)


@pytest.mark.parametrize("path, ok, big, error, message", [
    ("strategy.baseline_generation", 1e15, 2**1100, NonFiniteMagnitude,
     "non-finite magnitude inf for energy"),
    ("battery.batteries_per_ev", 4, 2**1100, NonFiniteMagnitude,
     "battery.batteries_per_ev must be finite, got inf"),
    ("battery.batteries_per_ev", 4, -(2**1100), BelowMinimum,
     "battery.batteries_per_ev must be >= 1, got -inf"),
], ids=["energy", "count", "negative-count"])
def test_an_int_too_large_for_a_float_fails_its_point_inline(path, ok, big, error, message):
    s = load_builtin_scenario("paper-2005")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        apply_override(s, path, big)
    first, last = iter_sweep(s, SweepSpec(path, [ok, big]))
    assert first.assessment == assess(apply_override(s, path, ok))
    assert (last.value, last.assessment, last.error) == (big, None, message)


ENERGY = Dimension.ENERGY


@pytest.mark.parametrize("make, error, message", [
    (lambda: Quantity("5", ENERGY), NonNumericMagnitude,
     "magnitude '5' for energy is not an int or a float"),
    (lambda: Quantity(True, ENERGY), NonNumericMagnitude,
     "magnitude True for energy is not an int or a float"),
    (lambda: Quantity(None, Dimension.FRACTION), NonNumericMagnitude,
     "magnitude None for fraction is not an int or a float"),
    (lambda: Quantity(1.0, ENERGY)._replace(magnitude="1"), NonNumericMagnitude,
     "magnitude '1' for energy is not an int or a float"),
    (lambda: quantity("5", "TWh"), NonNumericMagnitude,
     "magnitude '5' for energy is not an int or a float"),
    (lambda: quantity(False, "%"), NonNumericMagnitude,
     "magnitude False for fraction is not an int or a float"),
    (lambda: Quantity(10**400, ENERGY), NonFiniteMagnitude, "non-finite magnitude inf for energy"),
    (lambda: Quantity(-(10**400), ENERGY), NonFiniteMagnitude,
     "non-finite magnitude -inf for energy"),
    (lambda: quantity(10**400, "kg"), NonFiniteMagnitude, "non-finite magnitude inf for mass"),
], ids=["text", "bool", "none", "replace", "quantity-text", "quantity-bool", "huge-int",
        "huge-negative-int", "quantity-huge-int"])
def test_a_magnitude_is_an_int_or_a_float(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        make()
    assert isinstance(exc.value, EvDemandError)
    assert error is not NonNumericMagnitude or isinstance(exc.value, TypeError)


def test_an_int_magnitude_is_its_float():
    assert Quantity(5, ENERGY) == Quantity(5.0, ENERGY)
    assert type(Quantity(2**53, ENERGY).magnitude) is float
    assert quantity(3, "TWh") == quantity(3.0, "TWh")
