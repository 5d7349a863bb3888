"""Fleet-conversion accounting: the energy, battery, emission and water
arithmetic behind a full gasoline-to-EV conversion scenario.

Every operation is a pure function over immutable quantities; the public
ones check their arguments' dimensions and compute on canonical floats in
kernels (see the note above ``fleet_energy``). Division by zero is a typed
error, and a result that overflows raises
:class:`~evdemand.errors.NonFiniteMagnitude` naming that result, never an
infinity.

Two published accounting conventions are reproduced deliberately rather
than silently corrected:

* Battery production tables print the unit-consistent production energy
  divided by 10^3 (``PRODUCTION_TABLE_DIVISOR``). The engine always computes
  the consistent value; the printed-style figure is derived from it by an
  explicit labeled division.
* Freshwater totals were published with 10^9 MWh per TWh
  (``PUBLISHED_MWH_PER_TWH``) where the strict conversion is 10^6, so the
  published volumes exceed strict unit algebra by the same 10^3.
  :func:`water_use` follows the published convention so the reproduction
  report can match the printed figures; the discrepancy is carried as an
  erratum note wherever the values surface.
"""

from math import isfinite
from typing import NamedTuple

from .errors import (
    BelowMinimum,
    DimensionMismatch,
    NonFiniteMagnitude,
    ZeroBaseline,
    ZeroFleetEnergy,
    ZeroGeneration,
    ZeroPerEvEnergy,
    ZeroSpeed,
)
from .quantities import CATALOG, Dimension, Quantity
from .refdata import BatteryChemistry

__all__ = [
    "SharesBasis",
    "GallonsBasis",
    "BatteryDemand",
    "CapacityDeficit",
    "PRODUCTION_TABLE_DIVISOR",
    "PUBLISHED_MWH_PER_TWH",
    "PRODUCTION_TABLE_NOTE",
    "WATER_CONVENTION_NOTE",
    "fleet_energy",
    "per_ev_energy",
    "battery_demand_method_a",
    "battery_demand_method_b",
    "printed_style",
    "carbon_intensity",
    "additional_co2",
    "water_use",
    "sustainable_conversion_fraction",
    "capacity_deficit",
]

#: Printed battery-production figures equal the consistent energy / 10^3.
PRODUCTION_TABLE_DIVISOR = 1e3

#: MWh per TWh as used by the published freshwater accounting (strictly 1e6).
PUBLISHED_MWH_PER_TWH = 1e9

PRODUCTION_TABLE_NOTE = (
    "printed-table convention: published production energies equal the "
    "unit-consistent values divided by 10^3"
)
WATER_CONVENTION_NOTE = (
    "published water accounting treats 1 TWh as 10^9 MWh (strictly 10^6), "
    "so volumes exceed strict unit algebra by 10^3"
)

# fixed scales of the published per-TWh and Mt figures
_WH_PER_TWH = CATALOG.lookup("TWh").scale
_T_PER_MT = CATALOG.lookup("Mt").scale

# bound once: results are built without their classes' Python-level
# constructors (see ``_result``), about 20 of them an ``assess``
_tuple_new = tuple.__new__


def _expect(q: Quantity, dim: Dimension, what: str) -> float:
    if q.dimension is not dim:
        raise DimensionMismatch(f"{what} must be {dim.value}, got {q.dimension.value}")
    return q.canonical


def _result(value: float, output: str, dim: Dimension | None = None) -> Quantity | float:
    """The result ``output`` as a ``dim`` quantity, or as a bare ratio when
    ``dim`` is None; an overflow raises, naming the output.

    Every result is a product, ratio, sum or ``max(0, ...)`` of finite,
    non-negative operands (canonical magnitudes, batteries per EV, positive
    constants), so a finite one is never negative or -0.0 and the quantity
    is built without the constructor's checks.
    """
    if not isfinite(value):
        raise NonFiniteMagnitude(f"{output} {value!r} is not finite")
    return value if dim is None else _tuple_new(Quantity, (value, dim))


class SharesBasis(NamedTuple):
    """Fleet energy from national totals: energy x transport share x fuel share."""

    total_energy: Quantity
    transport_share: Quantity
    fuel_share: Quantity


class GallonsBasis(NamedTuple):
    """Fleet energy from fuel volume: gallons x heat content x Wh-per-Btu."""

    gallons: Quantity
    heat_content: Quantity
    btu_to_wh: Quantity


class BatteryDemand(NamedTuple):
    """Battery count and production energy for one method and chemistry.

    ``production_energy`` is always the unit-consistent value,
    battery_count x manufacture energy. ``ev_count`` is present for the
    per-vehicle method only.
    """

    method: str
    battery_count: Quantity
    production_energy: Quantity
    ev_count: Quantity | None = None


class CapacityDeficit(NamedTuple):
    ratio_to_baseline: float
    deficit: Quantity


# Each public function checks its arguments' dimensions and hands their
# canonical magnitudes to its kernel, the ``_``-prefixed function of the same
# name, which holds the formula, its zero and minimum guards and its overflow
# check; ``scenario.assess`` reads every input once and calls the kernels.
# ``fleet_energy`` and ``per_ev_energy`` take scenario inputs only, and
# ``printed_style`` takes a result and checks none, so each is its own kernel.
# ``_renewable_supply`` and ``_total_additional_energy`` have no public twin:
# ``assess`` and one public function share each.

def fleet_energy(basis: SharesBasis | GallonsBasis) -> Quantity:
    """Fleet energy as total consumption x transport share x fuel share, or
    as gallons x Btu per gallon x Wh per Btu."""
    if isinstance(basis, SharesBasis):
        a = _expect(basis.total_energy, Dimension.ENERGY, "total energy")
        b = _expect(basis.transport_share, Dimension.FRACTION, "transport share")
        c = _expect(basis.fuel_share, Dimension.FRACTION, "fuel share")
    else:
        a = _expect(basis.gallons, Dimension.VOLUME, "gasoline volume")
        b = _expect(basis.heat_content, Dimension.HEAT_CONTENT, "heat content")
        c = _expect(basis.btu_to_wh, Dimension.BTU_CONVERSION, "Btu conversion")
    return _result(a * b * c, "fleet energy", Dimension.ENERGY)


def per_ev_energy(power: Quantity, travel_range: Quantity, speed: Quantity) -> Quantity:
    """Energy for one vehicle to cover ``travel_range`` at ``speed``.

    With canonical units (W, mi, mi/h) this is W x h = Wh directly.
    """
    p = _expect(power, Dimension.POWER, "power")
    r = _expect(travel_range, Dimension.DISTANCE, "range")
    v = _expect(speed, Dimension.SPEED, "speed")
    if v == 0.0:
        raise ZeroSpeed("reference speed must be positive")
    return _result(p * (r / v), "per-EV energy", Dimension.ENERGY)


def _production(battery_count: Quantity, chem: BatteryChemistry) -> Quantity:
    return _result(battery_count.canonical * chem.manufacture_energy.canonical,
                   "production energy", Dimension.ENERGY)


def battery_demand_method_a(fleet: Quantity, per_ev: Quantity,
                            batteries_per_ev: float,
                            chem: BatteryChemistry) -> BatteryDemand:
    """Battery demand from an equivalent vehicle count.

    EV count = fleet energy / per-vehicle energy; batteries = EVs x packs
    per vehicle.
    """
    return _battery_demand_method_a(_expect(fleet, Dimension.ENERGY, "fleet energy"),
                                    _expect(per_ev, Dimension.ENERGY, "per-EV energy"),
                                    batteries_per_ev, chem)


def _battery_demand_method_a(fleet_wh: float, per_ev_wh: float, batteries_per_ev: float,
                             chem: BatteryChemistry) -> BatteryDemand:
    if per_ev_wh == 0.0:
        raise ZeroPerEvEnergy("per-EV energy must be positive")
    if not batteries_per_ev >= 1:  # written this way round so NaN fails too
        raise BelowMinimum(f"batteries per EV must be >= 1, got {batteries_per_ev!r}")
    ev_count = _result(fleet_wh / per_ev_wh, "EV count", Dimension.COUNT)
    battery_count = _result(ev_count.canonical * batteries_per_ev, "battery count",
                            Dimension.COUNT)
    return _tuple_new(BatteryDemand, ("A", battery_count, _production(battery_count, chem),
                                      ev_count))


def battery_demand_method_b(fleet: Quantity, chem: BatteryChemistry) -> BatteryDemand:
    """Battery demand straight from pack capacity: fleet energy / pack energy."""
    return _battery_demand_method_b(_expect(fleet, Dimension.ENERGY, "fleet energy"), chem)


def _battery_demand_method_b(fleet_wh: float, chem: BatteryChemistry) -> BatteryDemand:
    battery_count = _result(fleet_wh / chem.pack_capacity.canonical, "battery count",
                            Dimension.COUNT)
    return _tuple_new(BatteryDemand, ("B", battery_count, _production(battery_count, chem),
                                      None))


def printed_style(production_energy: Quantity) -> Quantity:
    """The printed-table figure for a consistent production energy."""
    return _result(production_energy.canonical / PRODUCTION_TABLE_DIVISOR,
                   "published-style production energy", Dimension.ENERGY)


def carbon_intensity(total_emissions: Quantity, total_generation: Quantity) -> Quantity:
    """CO2 intensity of generation, in Mt per TWh."""
    return _carbon_intensity(_expect(total_emissions, Dimension.MASS, "emissions"),
                             _expect(total_generation, Dimension.ENERGY, "generation"))


def _carbon_intensity(emissions_t: float, generation_wh: float) -> Quantity:
    generation_twh = generation_wh / _WH_PER_TWH
    if generation_twh == 0.0:  # as is a generation that rounds to 0 TWh
        raise ZeroGeneration("total generation must be positive")
    return _result((emissions_t / _T_PER_MT) / generation_twh,
                   "carbon intensity", Dimension.CARBON_INTENSITY)


def additional_co2(additional_energy: Quantity, intensity: Quantity) -> Quantity:
    """CO2 mass from generating ``additional_energy`` at ``intensity``."""
    return _additional_co2(
        _expect(additional_energy, Dimension.ENERGY, "additional energy"),
        _expect(intensity, Dimension.CARBON_INTENSITY, "carbon intensity"))


def _additional_co2(energy_wh: float, mt_per_twh: float) -> Quantity:
    return _result(energy_wh / _WH_PER_TWH * mt_per_twh * _T_PER_MT, "additional CO2",
                   Dimension.MASS)


def water_use(additional_energy: Quantity, fuel_share: Quantity,
              intensity: Quantity) -> Quantity:
    """Freshwater volume for one fuel's slice of ``additional_energy``.

    Follows the published accounting convention (``PUBLISHED_MWH_PER_TWH``,
    see module docstring): volume = TWh x 10^9 x share x gal/MWh.
    """
    return _water_use(_expect(additional_energy, Dimension.ENERGY, "additional energy"),
                      _expect(fuel_share, Dimension.FRACTION, "fuel share"),
                      _expect(intensity, Dimension.WATER_INTENSITY, "water intensity"))


def _water_use(energy_wh: float, share: float, gal_per_mwh: float) -> Quantity:
    return _result(energy_wh / _WH_PER_TWH * PUBLISHED_MWH_PER_TWH * share * gal_per_mwh,
                   "freshwater", Dimension.VOLUME)


def _renewable_supply(baseline_wh: float, renewable_share: float) -> Quantity:
    """Generation the renewable build-out adds: baseline x renewable share."""
    return _result(baseline_wh * renewable_share, "renewable supply", Dimension.ENERGY)


def sustainable_conversion_fraction(baseline_generation: Quantity,
                                    renewable_share: Quantity,
                                    fleet: Quantity) -> float:
    """Fraction of the fleet convertible on renewable build-out alone.

    Returns the raw ratio (baseline x share) / fleet energy; values above 1
    mean full conversion and are clamped at display time, not here.
    """
    baseline_wh = _expect(baseline_generation, Dimension.ENERGY, "baseline generation")
    share = _expect(renewable_share, Dimension.FRACTION, "renewable share")
    fleet_wh = _expect(fleet, Dimension.ENERGY, "fleet energy")
    return _sustainable_conversion_fraction(_renewable_supply(baseline_wh, share).canonical,
                                            fleet_wh)


def _sustainable_conversion_fraction(supply_wh: float, fleet_wh: float) -> float:
    if fleet_wh == 0.0:
        raise ZeroFleetEnergy("fleet energy must be positive")
    return _result(supply_wh / fleet_wh, "sustainable conversion fraction")


def _total_additional_energy(fleet_wh: float, battery_wh: float) -> Quantity:
    """All the generation a conversion needs: fleet energy + battery energy."""
    return _result(fleet_wh + battery_wh, "total additional energy", Dimension.ENERGY)


def capacity_deficit(fleet: Quantity, battery_energy: Quantity,
                     baseline_generation: Quantity) -> CapacityDeficit:
    """Total additional generation vs the baseline capacity.

    deficit = max(0, fleet + battery - baseline).
    """
    fleet_wh = _expect(fleet, Dimension.ENERGY, "fleet energy")
    battery_wh = _expect(battery_energy, Dimension.ENERGY, "battery energy")
    baseline_wh = _expect(baseline_generation, Dimension.ENERGY, "baseline generation")
    return _capacity_deficit(_total_additional_energy(fleet_wh, battery_wh).canonical,
                             baseline_wh)


def _capacity_deficit(total_wh: float, baseline_wh: float) -> CapacityDeficit:
    if baseline_wh == 0.0:
        raise ZeroBaseline("baseline generation must be positive")
    return _tuple_new(CapacityDeficit, (_result(total_wh / baseline_wh, "total vs baseline ratio"),
                                        _result(max(0.0, total_wh - baseline_wh),
                                                "capacity deficit", Dimension.ENERGY)))
