"""``assess`` reads each input once, with its dimension check, and computes
on canonical floats: it must give what the Quantity-level evaluation gave,
result for result and error for error."""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdemand import engine
from evdemand.engine import SharesBasis
from evdemand.errors import DimensionMismatch, EvDemandError
from evdemand.quantities import Dimension, Quantity
from evdemand.scenario import (
    _CATALOG_MEDIAN_PER_EV,
    Assessment,
    CatalogMedian,
    Convention,
    ExplicitPerEv,
    Method,
    PowerRangeSpeed,
    assess,
    load_builtin_scenario,
    load_scenario,
)

D = Dimension
DATA = Path(__file__).parent / "data"
FIXTURES = {"shares": load_builtin_scenario("paper-2005"),
            "gallons": load_builtin_scenario("paper-2001")}


def _reference_per_ev(ref):
    if isinstance(ref, ExplicitPerEv):
        return ref.per_ev
    if isinstance(ref, PowerRangeSpeed):
        return engine.per_ev_energy(ref.power, ref.travel_range, ref.speed)
    return _CATALOG_MEDIAN_PER_EV


def _reference_assess(s):
    """``assess`` as it was written on the public, Quantity-level engine
    functions, each checking its arguments' dimensions; the CO2 and the
    conversion fraction, which have no public function, come from their
    kernels after the same checks."""
    fleet = engine.fleet_energy(s.fleet_basis)
    per_ev = _reference_per_ev(s.ev_reference)

    demand_a = demand_b = None
    if s.method in (Method.A, Method.BOTH):
        demand_a = engine.battery_demand_method_a(fleet, per_ev, s.batteries_per_ev,
                                                  s.chemistry)
    if s.method in (Method.B, Method.BOTH):
        demand_b = engine.battery_demand_method_b(fleet, s.chemistry)

    totals_demand = demand_b if demand_b is not None else demand_a
    battery_energy = totals_demand.production_energy
    if s.convention is Convention.PUBLISHED:
        battery_energy = engine.printed_style(battery_energy)

    total = engine._result(fleet.canonical + battery_energy.canonical,
                           "total additional energy", Dimension.ENERGY)
    intensity = engine.carbon_intensity(s.dataset.co2_total,
                                        s.dataset.mix.total_generation)
    co2 = engine._additional_co2(
        engine._expect(total, Dimension.ENERGY, "additional energy"),
        engine._expect(intensity, Dimension.CARBON_INTENSITY, "carbon intensity"))

    water = tuple(
        (fuel, engine.water_use(fleet, Quantity(s.dataset.mix.share(fuel),
                                                Dimension.FRACTION), wi))
        for fuel, wi in s.water
    )

    renewable_supply = Quantity(
        s.baseline_generation.canonical * s.renewable_share.canonical,
        Dimension.ENERGY)
    engine._expect(s.baseline_generation, Dimension.ENERGY, "baseline generation")
    engine._expect(s.renewable_share, Dimension.FRACTION, "renewable share")
    conversion_fraction = engine._sustainable_conversion_fraction(
        renewable_supply.canonical, engine._expect(fleet, Dimension.ENERGY, "fleet energy"))

    return Assessment(
        scenario=s,
        fleet_energy=fleet,
        per_ev_energy=per_ev,
        demand_a=demand_a,
        demand_b=demand_b,
        totals_demand=totals_demand,
        battery_energy_for_totals=battery_energy,
        total_additional_energy=total,
        carbon_intensity=intensity,
        additional_co2=co2,
        water=water,
        renewable_supply=renewable_supply,
        conversion_fraction=conversion_fraction,
        full_conversion=conversion_fraction >= 1.0,
        deficit=engine.capacity_deficit(fleet, battery_energy, s.baseline_generation),
    )


def _outcome(evaluate, s):
    try:
        return repr(evaluate(s))
    except EvDemandError as exc:
        return f"{type(exc).__name__}: {exc}"


# zero, the smallest and largest doubles, and values that overflow a product
# or a ratio, beside any magnitude
magnitudes = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=1e308))
fractions = st.floats(min_value=0.0, max_value=1.0)


def drawn_scenario(draw, basis, method, convention, ev):
    """A fixture with every magnitude ``assess`` reads drawn: zero, tiny,
    huge and overflowing ones among them."""
    s = FIXTURES[basis]
    if isinstance(s.fleet_basis, SharesBasis):
        fleet_basis = s.fleet_basis._replace(total_energy=Quantity(draw(magnitudes), D.ENERGY),
                                             fuel_share=Quantity(draw(fractions), D.FRACTION))
    else:
        fleet_basis = s.fleet_basis._replace(gallons=Quantity(draw(magnitudes), D.VOLUME),
                                             heat_content=Quantity(draw(magnitudes),
                                                                   D.HEAT_CONTENT))
    if ev == "explicit":
        ev_reference = ExplicitPerEv(Quantity(draw(magnitudes), D.ENERGY))
    elif ev == "power-range-speed":
        ev_reference = PowerRangeSpeed(*(Quantity(draw(magnitudes), dim)
                                         for dim in (D.POWER, D.DISTANCE, D.SPEED)))
    else:
        ev_reference = CatalogMedian()
    mix = s.dataset.mix._replace(total_generation=Quantity(draw(magnitudes), D.ENERGY))
    return s._replace(
        dataset=s.dataset._replace(mix=mix, co2_total=Quantity(draw(magnitudes), D.MASS)),
        fleet_basis=fleet_basis,
        ev_reference=ev_reference,
        batteries_per_ev=draw(st.sampled_from([1.0, 2.5, 4.0, 1e300])),
        method=method,
        convention=convention,
        renewable_share=Quantity(draw(fractions), D.FRACTION),
        baseline_generation=Quantity(draw(magnitudes), D.ENERGY),
    )


@pytest.mark.parametrize("basis, method, convention, ev", itertools.product(
    FIXTURES, Method, Convention, ("explicit", "power-range-speed", "catalog-median")))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_float_assess_matches_the_quantity_level_one(basis, method, convention, ev, data):
    s = drawn_scenario(data.draw, basis, method, convention, ev)
    assert _outcome(assess, s) == _outcome(_reference_assess, s)


@pytest.mark.parametrize("name", ["paper-2005", "paper-2001",
                                  *sorted(p.name for p in DATA.glob("*.scn"))])
def test_quantities_checked_per_assess(monkeypatch, name):
    """Each result is built once, unchecked; only the grid-mix share of each
    water fuel, a dataset figure, passes the Quantity constructor."""
    s = load_scenario(DATA / name) if name.endswith(".scn") else load_builtin_scenario(name)
    built = []
    real = Quantity.__new__

    def counting(cls, magnitude, dimension):
        built.append(dimension)
        return real(cls, magnitude, dimension)

    monkeypatch.setattr(Quantity, "__new__", staticmethod(counting))
    assess(s)
    assert built == [D.FRACTION, D.FRACTION]


def _basis(fixture, **changes):
    s = FIXTURES[fixture]
    return s._replace(fleet_basis=s.fleet_basis._replace(**changes))


SHARES = FIXTURES["shares"]
WRONG = Quantity(1.0, D.COUNT)
PRS = PowerRangeSpeed(Quantity(1e5, D.POWER), Quantity(100.0, D.DISTANCE),
                      Quantity(50.0, D.SPEED))

# every input assess reads, in a dimension no input has
WRONG_INPUTS = {
    "total energy must be energy": _basis("shares", total_energy=WRONG),
    "transport share must be fraction": _basis("shares", transport_share=WRONG),
    "fuel share must be fraction": _basis("shares", fuel_share=WRONG),
    "gasoline volume must be volume": _basis("gallons", gallons=WRONG),
    "heat content must be heat_content": _basis("gallons", heat_content=WRONG),
    "Btu conversion must be btu_conversion": _basis("gallons", btu_to_wh=WRONG),
    "per-EV energy must be energy": SHARES._replace(ev_reference=ExplicitPerEv(WRONG),
                                                    method=Method.B),
    "power must be power": SHARES._replace(ev_reference=PRS._replace(power=WRONG)),
    "range must be distance": SHARES._replace(ev_reference=PRS._replace(travel_range=WRONG)),
    "speed must be speed": SHARES._replace(ev_reference=PRS._replace(speed=WRONG)),
    "emissions must be mass": SHARES._replace(
        dataset=SHARES.dataset._replace(co2_total=WRONG)),
    "generation must be energy": SHARES._replace(dataset=SHARES.dataset._replace(
        mix=SHARES.dataset.mix._replace(total_generation=WRONG))),
    "water intensity must be water_intensity": SHARES._replace(water=(("coal", WRONG),)),
    "baseline generation must be energy": SHARES._replace(baseline_generation=WRONG),
    "renewable share must be fraction": SHARES._replace(renewable_share=WRONG),
}


@pytest.mark.parametrize("message", WRONG_INPUTS)
def test_every_input_is_dimension_checked(message):
    with pytest.raises(DimensionMismatch, match=f"^{message}, got count$"):
        assess(WRONG_INPUTS[message])


def test_renewable_share_is_checked_when_fleet_energy_is_zero():
    s = _basis("shares", fuel_share=Quantity(0.0, D.FRACTION))._replace(
        renewable_share=Quantity(1.0, D.ENERGY))
    with pytest.raises(DimensionMismatch, match="renewable share must be fraction, got energy"):
        assess(s)
