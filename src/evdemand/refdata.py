"""Built-in reference data: US grid mix, national energy figures, battery
pack properties, and the emerging-EV performance catalog.

All values are the published study's inputs, normalized to canonical units.
The 2005 per-source generation shares are a documented reconstruction: the
study states only the fossil total (71.4%) and the nuclear share (19.3%).
The coal share is backed out of the published coal freshwater total against
the 480 gal/MWh intensity, oil is fixed at the period's reported 3.0%, gas
takes the remainder of the fossil total, and hydro and other renewables
split the non-fossil, non-nuclear residual.
"""

from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import (DimensionMismatch, EmptyField, InvalidReferenceData, UnknownCatalogField,
                     UnknownChemistry, UnknownDataset, UnknownSource)
from .quantities import Dimension, Quantity, quantity

__all__ = [
    "GridMix",
    "BatteryChemistry",
    "EvModel",
    "ReferenceDataset",
    "FieldStats",
    "builtin_dataset",
    "builtin_chemistry",
    "builtin_ev_catalog",
    "dataset_ids",
    "chemistry_names",
    "validate_mix",
    "source_group_energy",
    "catalog_stats",
]

# Pack capacity must agree with density x mass to within this relative slack
# (the NiMH pack: 75 Wh/kg x 330 kg = 24.75 kWh vs the 25 kWh nominal).
_CAPACITY_SLACK = 0.02

_SHARE_SUM_TOL = 1e-9


class GridMix(NamedTuple):
    """Named generation sources with fractional shares of an annual total."""

    year: str
    entries: tuple[tuple[str, float], ...]
    total_generation: Quantity

    def sources(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def share(self, source: str) -> float:
        for name, share in self.entries:
            if name == source:
                return share
        raise UnknownSource(f"source {source!r} not in {self.year} mix")


class _BatteryChemistryFields(NamedTuple):
    name: str
    display_name: str
    energy_density: Quantity      # Wh/kg
    pack_mass: Quantity           # stored in metric tons
    pack_capacity: Quantity       # Wh
    manufacture_energy: Quantity  # Wh per pack
    emissions_note: str
    recycling_note: str


# each quantity of a chemistry and its dimension, in declared order
_CHEMISTRY_DIMENSIONS = {"energy_density": Dimension.ENERGY_DENSITY, "pack_mass": Dimension.MASS,
                         "pack_capacity": Dimension.ENERGY, "manufacture_energy": Dimension.ENERGY}


class BatteryChemistry(_BatteryChemistryFields):
    """One battery pack option: capacity, mass, and manufacturing energy.
    ``_replace`` and ``_make`` check a copy the same way."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field, dim in _CHEMISTRY_DIMENSIONS.items():
            got = getattr(self, field).dimension
            if got is not dim:
                raise DimensionMismatch(f"{self.name}: {field.replace('_', ' ')} must be "
                                        f"{dim.value}, got {got.value}")
        implied_wh = self.energy_density.canonical * self.pack_mass.in_unit("kg")
        nominal_wh = self.pack_capacity.canonical
        if nominal_wh <= 0 or abs(implied_wh - nominal_wh) / nominal_wh > _CAPACITY_SLACK:
            raise InvalidReferenceData(
                f"{self.name}: pack capacity {nominal_wh} Wh disagrees with "
                f"density x mass = {implied_wh} Wh beyond {_CAPACITY_SLACK:.0%}")
        if self.manufacture_energy.canonical <= 0:
            raise InvalidReferenceData(f"{self.name}: manufacture energy must be positive")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))


class _EvModelFields(NamedTuple):
    name: str
    power: Quantity | None = None
    max_speed: Quantity | None = None
    range_mi: tuple[float, float] | None = None


class EvModel(_EvModelFields):
    """One catalog row; missing entries stay None, ranges are closed intervals.
    ``_replace`` and ``_make`` check a copy the same way."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.range_mi is not None:
            lo, hi = self.range_mi
            if not (0 < lo <= hi):
                raise InvalidReferenceData(f"{self.name}: bad range interval {self.range_mi}")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))


class ReferenceDataset(NamedTuple):
    """One year of national figures driving a conversion scenario."""

    id: str
    year: str
    mix: GridMix
    total_energy_consumption: Quantity
    transport_share: Quantity
    gasoline_share: Quantity
    household_gasoline: Quantity
    co2_total: Quantity
    water_intensity: Mapping[str, Quantity]


class FieldStats(NamedTuple):
    mean: Quantity
    median: Quantity
    count_used: int


def _mix_2005() -> GridMix:
    return GridMix(
        year="2005",
        entries=(
            ("coal", 0.497),             # backed out of the coal freshwater total
            ("natural_gas", 0.188),      # remainder of the 71.4% fossil total
            ("oil", 0.030),              # period-reported oil share
            ("nuclear", 0.193),          # published
            ("hydro", 0.065),            # residual split
            ("other_renewables", 0.027),  # residual split
        ),
        total_generation=quantity(4055, "TWh"),
    )


_WATER_INTENSITY_2005: Mapping[str, Quantity] = MappingProxyType({
    "coal": quantity(480, "gal/MWh"),
    "natural_gas": quantity(180, "gal/MWh"),
})


def _build_datasets() -> dict[str, ReferenceDataset]:
    mix = _mix_2005()
    common = dict(
        mix=mix,
        total_energy_consumption=quantity(29000, "TWh"),
        transport_share=quantity(0.28, "frac"),
        gasoline_share=quantity(0.61, "frac"),
        # 2001 household survey figure; the latest the study had for either year
        household_gasoline=quantity(113.1e9, "gal"),
        co2_total=quantity(2480, "Mt"),
        water_intensity=_WATER_INTENSITY_2005,
    )
    return {
        "us2005": ReferenceDataset(id="us2005", year="2005", **common),
        # the 2001 gasoline figure is compared against 2005 grid data throughout
        "us2001": ReferenceDataset(id="us2001", year="2001", **common),
    }


def _build_chemistries() -> dict[str, BatteryChemistry]:
    return {
        "pb_acid": BatteryChemistry(
            name="pb_acid",
            display_name="Pb-acid",
            energy_density=quantity(50, "Wh/kg"),
            pack_mass=quantity(500, "kg"),
            pack_capacity=quantity(25, "kWh"),
            manufacture_energy=quantity(3430, "kWh"),
            emissions_note="lead particulates",
            recycling_note="short pack life; established recycling infrastructure",
        ),
        "nimh": BatteryChemistry(
            name="nimh",
            display_name="NiMH",
            energy_density=quantity(75, "Wh/kg"),
            pack_mass=quantity(330, "kg"),
            pack_capacity=quantity(25, "kWh"),
            manufacture_energy=quantity(7176, "kWh"),
            emissions_note="unknown",
            recycling_note="hydride recycling process unavailable",
        ),
    }


def _build_ev_catalog() -> tuple[EvModel, ...]:
    def ev(name, power_kw, speed_mph, rng):
        return EvModel(
            name=name,
            power=quantity(power_kw, "kW") if power_kw is not None else None,
            max_speed=quantity(speed_mph, "mph") if speed_mph is not None else None,
            range_mi=rng,
        )

    return (
        ev("Chevrolet Volt", 112, 100, (40.0, 40.0)),
        ev("Fisker Karma", 300, 125, (50.0, 50.0)),
        ev("GM Opel Ampera", 112, 100, (37.0, 37.0)),
        ev("Mini E", 150, 95, (100.0, 120.0)),
        ev("Mitsubishi", 47, 80, (100.0, 100.0)),
        ev("Nissan E Car", 80, None, (100.0, 100.0)),
        ev("Tesla Roadster", 215, 125, (227.0, 227.0)),
        ev("Th!nk city", 30, 65, (112.0, 112.0)),
        ev("Toyota Prius PHEV", None, None, None),
        ev("ZENN", 22.4, 25, (30.0, 50.0)),
    )


def validate_mix(mix: GridMix) -> list[str]:
    """Return mix violations (empty list means valid)."""
    problems: list[str] = []
    seen: set[str] = set()
    total = 0.0
    for name, share in mix.entries:
        if name in seen:
            problems.append(f"duplicate source {name!r}")
        seen.add(name)
        if not (0.0 <= share <= 1.0):
            problems.append(f"share for {name!r} out of range: {share!r}")
        total += share
    if abs(total - 1.0) > _SHARE_SUM_TOL:
        problems.append(f"shares sum to {total!r}, expected 1")
    return problems


def source_group_energy(mix: GridMix, group: Iterable[str]) -> Quantity:
    """Annual generation attributable to a group of sources."""
    group_share = 0.0
    for name in group:  # left to right: sum() compensates from Python 3.12 on
        group_share += mix.share(name)
    return Quantity(mix.total_generation.canonical * group_share, Dimension.ENERGY)


_STAT_FIELDS = ("power", "max_speed", "range")


def _field_values(catalog: tuple[EvModel, ...], field: str) -> tuple[list[float], Dimension]:
    if field == "power":
        vals = [m.power.canonical for m in catalog if m.power is not None]
        return vals, Dimension.POWER
    if field == "max_speed":
        vals = [m.max_speed.canonical for m in catalog if m.max_speed is not None]
        return vals, Dimension.SPEED
    if field == "range":
        # midpoint rule: a printed interval contributes (lo + hi) / 2
        vals = [(m.range_mi[0] + m.range_mi[1]) / 2.0
                for m in catalog if m.range_mi is not None]
        return vals, Dimension.DISTANCE
    raise UnknownCatalogField(
        f"unknown catalog field {field!r}; expected one of {_STAT_FIELDS}")


def catalog_stats(catalog: tuple[EvModel, ...], field: str) -> FieldStats:
    """Mean and median over the models that provide ``field``.

    Missing entries are excluded, range intervals contribute their midpoint,
    and an even count takes the mean of the two central values.
    """
    values, dim = _field_values(catalog, field)
    if not values:
        raise EmptyField(f"no model provides {field!r}")
    total = 0.0
    for value in values:  # left to right, as in source_group_energy
        total += value
    mean = total / len(values)
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    return FieldStats(mean=Quantity(mean, dim), median=Quantity(median, dim),
                      count_used=n)


_DATASETS = _build_datasets()
_CHEMISTRIES = _build_chemistries()
_EV_CATALOG = _build_ev_catalog()


def dataset_ids() -> tuple[str, ...]:
    return tuple(sorted(_DATASETS))


def chemistry_names() -> tuple[str, ...]:
    return tuple(sorted(_CHEMISTRIES))


def builtin_dataset(dataset_id: str) -> ReferenceDataset:
    """Look up a built-in dataset by id (``us2005`` or ``us2001``)."""
    try:
        return _DATASETS[dataset_id]
    except KeyError:
        raise UnknownDataset(
            f"unknown dataset {dataset_id!r}; built-ins: {', '.join(dataset_ids())}") from None


def builtin_chemistry(name: str) -> BatteryChemistry:
    """Look up a built-in battery chemistry by name."""
    try:
        return _CHEMISTRIES[name]
    except KeyError:
        raise UnknownChemistry(
            f"unknown chemistry {name!r}; built-ins: {', '.join(chemistry_names())}") from None


def builtin_ev_catalog() -> tuple[EvModel, ...]:
    """The ten-vehicle performance catalog used for median statistics."""
    return _EV_CATALOG
