"""Scenario loading, what-if overrides, assessment, and parameter sweeps.

A scenario file selects a reference dataset (built-in by id, or inline),
chooses how fleet energy is derived (national shares or gasoline gallons),
fixes the per-vehicle energy reference and battery assumptions, and sets
the renewable-strategy parameters. Every omitted field falls back to the
referenced dataset so the resolved scenario is self-contained; the
assessment echoes all resolved inputs.

Each scalar input is declared once, in ``FIELDS``: its ``section.key`` path,
dimension, owning object and attribute, default, accepted tokens, domain
floor and JSON echo key. File parsing and its allowed-key checks, sweep
overrides (``OVERRIDE_PATHS``: the fields of the owners ``apply_override``
replaces), the write-back to file syntax and the JSON ``scenario`` echo all
read that table, so a sweep value passes the same checks as the same value
in a file.
Only what chooses between shapes is written by hand: the fleet basis, the
EV reference, the chemistry, method and convention, ``[water]`` pairs and
``[sweep]``.

Sections and keys (unknown ones are errors):

* ``[meta]``: ``name``, ``dataset``
* ``[dataset]`` + ``[mix]``: an inline dataset (same shape ``export-dataset``
  writes): ``id``, ``year``, ``mix_year`` and the dataset totals
* ``[fleet]``: ``basis = shares | gallons`` plus the basis fields
* ``[ev]``: ``per_ev_energy``, or ``power``/``range``/``speed``, or
  ``source = catalog-median``
* ``[battery]``: ``chemistry``, ``batteries_per_ev``, ``method``,
  ``convention``, plus pack fields for a non-built-in chemistry
* ``[strategy]``: ``renewable_share``, ``baseline_generation``
* ``[water]``: ``fuel = intensity`` pairs
* ``[sweep]``: ``path`` and either ``values`` or ``from``/``to``/``step``
"""

import enum
import functools
import math
from operator import attrgetter, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, NamedTuple

from . import engine
from .engine import (
    BatteryDemand,
    CapacityDeficit,
    GallonsBasis,
    SharesBasis,
)
from .errors import (
    BelowMinimum,
    EvDemandError,
    InvalidSweep,
    NonFiniteMagnitude,
    UnknownDataset,
    UnknownParameter,
    UnknownScenario,
    UnwritableScenario,
    ValidationError,
)
from .quantities import (
    BTU_TO_WH_EXACT,
    BTU_TO_WH_PAPER,
    CANONICAL_UNIT,
    GASOLINE_HEAT_BTU_PER_GAL,
    Dimension,
    Quantity,
    _float,
    quantity,
)
from .refdata import (
    BatteryChemistry,
    GridMix,
    ReferenceDataset,
    builtin_chemistry,
    builtin_dataset,
    builtin_ev_catalog,
    catalog_stats,
    chemistry_names,
    dataset_ids,
    validate_mix,
)
from .scnformat import (RawValue, Section, literal, parse_document, quoted, text_literal,
                        write_document)

__all__ = [
    "Method",
    "Convention",
    "ExplicitPerEv",
    "PowerRangeSpeed",
    "CatalogMedian",
    "SweepSpec",
    "Scenario",
    "Assessment",
    "SweepPoint",
    "FieldSpec",
    "FIELDS",
    "OVERRIDE_PATHS",
    "MAX_SWEEP_POINTS",
    "load_scenario",
    "parse_scenario",
    "assess",
    "iter_sweep",
    "sweep",
    "apply_override",
    "render_scenario",
    "render_dataset",
    "scenario_echo",
]


class Method(enum.Enum):
    A = "A"
    B = "B"
    BOTH = "both"


class Convention(enum.Enum):
    """How battery production energy feeds scenario totals."""

    CONSISTENT = "consistent"
    PUBLISHED = "published"   # printed-table style: consistent / 10^3


# method tokens are read in any case
_METHOD_TOKENS = {m.value.lower(): m for m in Method}

# "paper-mantissa" is an accepted alias for the printed-style convention
_CONVENTION_TOKENS = {**{c.value: c for c in Convention},
                      "paper-mantissa": Convention.PUBLISHED}


class ExplicitPerEv(NamedTuple):
    per_ev: Quantity


class PowerRangeSpeed(NamedTuple):
    power: Quantity
    travel_range: Quantity
    speed: Quantity


class CatalogMedian(NamedTuple):
    """Derive per-EV energy from the catalog's median power, range, speed."""


EvReference = ExplicitPerEv | PowerRangeSpeed | CatalogMedian


#: Most points a progression sweep may have; more is an error.
MAX_SWEEP_POINTS = 1_000_000


#: The types a progression bound may have (a number that is not a bool), and
#: those a sweep or override value may have (also a quantity).
_SWEEP_BOUND_TYPES = frozenset((int, float))
_SWEEP_VALUE_TYPES = _SWEEP_BOUND_TYPES | {Quantity}


class _SweepSpecFields(NamedTuple):
    path: str
    values: tuple[float | Quantity, ...] | None = None
    start: float | None = None
    stop: float | None = None
    step: float | None = None


class SweepSpec(_SweepSpecFields):
    """One path of ``OVERRIDE_PATHS`` and what was written for it: either
    ``values``, or all of ``start``, ``stop`` and ``step`` (None where not
    given). ``points()`` yields the values to evaluate it at, in order.
    ``_replace`` and ``_make`` check a copy the same way."""

    __slots__ = ()

    def __new__(cls, path, values=None, start=None, stop=None, step=None):
        try:
            values = None if values is None else tuple(values)
        except TypeError:
            raise InvalidSweep(f"sweep values must be a list, got {values!r}") from None
        self = super().__new__(cls, path, values, start, stop, step)
        bounds = (start, stop, step)
        if values is not None:
            if bounds != (None, None, None):
                raise InvalidSweep("sweep has both values and from/to/step; pick one")
            if not values:
                raise InvalidSweep("sweep needs at least one value")
            if not set(map(type, values)) <= _SWEEP_VALUE_TYPES:
                bad = next(v for v in values if type(v) not in _SWEEP_VALUE_TYPES)
                raise InvalidSweep(f"sweep value {bad!r} is not a number or a quantity")
        elif None in bounds:
            raise InvalidSweep("sweep needs either values or all of from/to/step")
        else:
            self._last()
        _override_field(path)
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))

    # perfbench builds its sweeps with this; it goes in a change to perfbench
    @classmethod
    def from_values(cls, path: str, values: list[float | Quantity]) -> "SweepSpec":
        return cls(path, values)

    def _last(self) -> int:
        """The progression's last counter, once its bounds are checked: finite
        numbers, reaching ``stop``, and at most ``MAX_SWEEP_POINTS`` points."""
        start, stop, step = bounds = self.start, self.stop, self.step
        try:
            finite = (set(map(type, bounds)) <= _SWEEP_BOUND_TYPES
                      and all(map(math.isfinite, bounds)))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise InvalidSweep(f"sweep from/to/step must be finite, "
                               f"got {start!r}, {stop!r}, {step!r}")
        if step == 0:
            raise InvalidSweep("sweep step must be nonzero")
        try:
            span = (stop - start) / step
        except OverflowError:  # int bounds whose quotient is too large for a float
            span = math.inf if (stop > start) == (step > 0) else -math.inf
        if span < 0:
            raise InvalidSweep(f"step {step!r} never reaches {stop!r} from {start!r}")
        if span + 1e-9 >= MAX_SWEEP_POINTS:  # then n + 1 points exceed the cap
            raise InvalidSweep(f"sweep from {start!r} to {stop!r} by {step!r} has more "
                               f"than {MAX_SWEEP_POINTS} points")
        return int(span + 1e-9)

    def points(self) -> Iterator[float | Quantity]:
        """The values in order; a progression is counted out on demand by an
        integer counter, ``start + k * step``, so no error accumulates."""
        if self.values is not None:
            return iter(self.values)
        return (self.start + k * self.step for k in range(self._last() + 1))


class Scenario(NamedTuple):
    """A fully resolved what-if run; every field is concrete."""

    name: str
    dataset: ReferenceDataset
    fleet_basis: SharesBasis | GallonsBasis
    ev_reference: EvReference
    batteries_per_ev: float
    chemistry: BatteryChemistry
    method: Method
    convention: Convention
    renewable_share: Quantity
    baseline_generation: Quantity
    water: tuple[tuple[str, Quantity], ...]
    sweep_spec: SweepSpec | None = None


class Assessment(NamedTuple):
    """Everything a single scenario evaluation produced, inputs echoed."""

    scenario: Scenario
    fleet_energy: Quantity
    per_ev_energy: Quantity
    demand_a: BatteryDemand | None
    demand_b: BatteryDemand | None
    totals_demand: BatteryDemand  # the demand whose production feeds the totals
    battery_energy_for_totals: Quantity
    total_additional_energy: Quantity
    carbon_intensity: Quantity
    additional_co2: Quantity
    water: tuple[tuple[str, Quantity], ...]
    renewable_supply: Quantity
    conversion_fraction: float
    full_conversion: bool
    deficit: CapacityDeficit


class SweepPoint(NamedTuple):
    value: float | Quantity
    assessment: Assessment | None
    error: str | None = None


# --- the field table -------------------------------------------------------

class _Problems:
    def __init__(self):
        self.items: list[str] = []

    def add(self, message: str, value: RawValue | None = None):
        if value is not None:
            message = f"line {value.line}: {message}"
        self.items.append(message)

    def wrong(self, value: RawValue, key: str, what: str) -> None:
        """Record that ``key`` must be ``what``, quoting the text written."""
        self.add(f"{key} must be {what}, got {value.text!r}", value)


def _want_quantity(value: RawValue, dim: Dimension, key: str,
                   problems: _Problems) -> Quantity | None:
    if value.kind == "quantity":
        q = value.payload
        if q.dimension is not dim:
            problems.add(f"{key} must be {dim.value}, got {q.dimension.value}", value)
            return None
        return q
    if value.kind == "number" and dim is Dimension.FRACTION:
        try:
            return Quantity(value.payload, Dimension.FRACTION)
        except EvDemandError as exc:
            problems.add(f"{key}: {exc}", value)
            return None
    article = "an" if dim.value[0] in "aeiou" else "a"
    return problems.wrong(value, key, f"{article} {dim.value} quantity literal")


class FieldSpec(NamedTuple):
    """One scalar scenario input, at ``section.key``.

    ``dim`` None means a bare count. ``owner.attr`` is where the resolved
    value lives. ``default`` is a getter on the dataset, a constant, or None
    when the key is required. ``tokens`` are identifiers accepted in
    place of a literal. ``floor`` is the least bare count allowed; NaN fails
    it too. ``echo`` is the JSON ``scenario`` key, in ``echo_unit`` (None:
    the canonical unit).
    """

    section: str
    key: str
    dim: Dimension | None
    owner: type
    attr: str
    default: Callable[[ReferenceDataset], Quantity] | float | Quantity | None = None
    tokens: dict[str, float] | None = None
    floor: float | None = None
    echo: str | None = None
    echo_unit: str | None = None

    @property
    def path(self) -> str:
        return f"{self.section}.{self.key}"

    def default_for(self, ds: ReferenceDataset | None) -> float | Quantity | None:
        """The value an omitted key takes; None where it reads an absent dataset."""
        if callable(self.default):
            return None if ds is None else self.default(ds)
        return self.default

    def coerce(self, value: float | Quantity) -> float | Quantity:
        """The checked value from a quantity or a bare number; bare numbers
        are canonical-unit magnitudes. File and sweep values both pass here,
        and it takes what a ``SweepSpec`` value may be."""
        if type(value) not in _SWEEP_VALUE_TYPES:
            raise UnknownParameter(f"{self.path} takes a number or a quantity, got {value!r}")
        if type(value) is Quantity:
            want = self.dim or Dimension.COUNT
            if value.dimension is not want:
                kind = "a bare count" if self.dim is None else self.dim.value
                raise UnknownParameter(f"{self.path} takes {kind}, "
                                       f"got {value.dimension.value}")
            if self.dim is None:
                value = value.canonical
        elif self.dim is None:  # an int too large for a float reads as a file's 1e400 does
            value = _float(value, Dimension.COUNT)
        else:
            value = Quantity(value, self.dim)
        if self.floor is not None and not value >= self.floor:
            raise BelowMinimum(f"{self.path} must be >= {self.floor:g}, got {value!r}")
        if self.dim is None and not math.isfinite(value):  # +inf passes the floor
            raise NonFiniteMagnitude(f"{self.path} must be finite, got {value!r}")
        return value

    def read(self, raw: RawValue, problems: _Problems) -> float | Quantity | None:
        """The value a file gives, or None once the problem is recorded."""
        if self.dim is None:
            if raw.kind != "number":
                return problems.wrong(raw, self.key, "a bare number")
            value = raw.payload
        elif self.tokens and raw.kind == "ident":
            if raw.payload not in self.tokens:
                return problems.wrong(raw, self.key, f"{', '.join(self.tokens)}, or a "
                                      f"{CANONICAL_UNIT[self.dim]} quantity")
            value = self.tokens[raw.payload]
        else:
            value = _want_quantity(raw, self.dim, self.key, problems)
            if value is None:
                return None
        try:
            return self.coerce(value)
        except EvDemandError as exc:
            problems.add(str(exc), raw)
            return None

    def echo_value(self, value: float | Quantity) -> float:
        if self.dim is None:
            return value
        return value.in_unit(self.echo_unit) if self.echo_unit else value.canonical


_D = Dimension
FIELDS: tuple[FieldSpec, ...] = (
    # an inline dataset's totals
    FieldSpec("dataset", "total_generation", _D.ENERGY, GridMix, "total_generation"),
    FieldSpec("dataset", "total_energy_consumption", _D.ENERGY, ReferenceDataset,
              "total_energy_consumption"),
    FieldSpec("dataset", "transport_share", _D.FRACTION, ReferenceDataset,
              "transport_share"),
    FieldSpec("dataset", "gasoline_share", _D.FRACTION, ReferenceDataset, "gasoline_share"),
    FieldSpec("dataset", "household_gasoline", _D.VOLUME, ReferenceDataset,
              "household_gasoline"),
    FieldSpec("dataset", "co2_total", _D.MASS, ReferenceDataset, "co2_total"),
    # fleet energy on the shares basis ...
    FieldSpec("fleet", "total_energy", _D.ENERGY, SharesBasis, "total_energy",
              attrgetter("total_energy_consumption"),
              echo="total_energy_twh", echo_unit="TWh"),
    FieldSpec("fleet", "transport_share", _D.FRACTION, SharesBasis, "transport_share",
              attrgetter("transport_share"), echo="transport_share"),
    FieldSpec("fleet", "fuel_share", _D.FRACTION, SharesBasis, "fuel_share",
              attrgetter("gasoline_share"), echo="fuel_share"),
    # ... or on the gallons basis
    FieldSpec("fleet", "gallons", _D.VOLUME, GallonsBasis, "gallons",
              attrgetter("household_gasoline"), echo="gallons"),
    FieldSpec("fleet", "heat_content", _D.HEAT_CONTENT, GallonsBasis, "heat_content",
              quantity(GASOLINE_HEAT_BTU_PER_GAL, "Btu/gal"),
              echo="heat_content_btu_per_gal"),
    FieldSpec("fleet", "btu_to_wh", _D.BTU_CONVERSION, GallonsBasis, "btu_to_wh",
              Quantity(BTU_TO_WH_EXACT, _D.BTU_CONVERSION),
              tokens={"exact": BTU_TO_WH_EXACT, "paper": BTU_TO_WH_PAPER},
              echo="btu_to_wh"),
    # per-EV energy, given outright or as power x range / speed
    FieldSpec("ev", "per_ev_energy", _D.ENERGY, ExplicitPerEv, "per_ev"),
    FieldSpec("ev", "power", _D.POWER, PowerRangeSpeed, "power"),
    FieldSpec("ev", "range", _D.DISTANCE, PowerRangeSpeed, "travel_range"),
    FieldSpec("ev", "speed", _D.SPEED, PowerRangeSpeed, "speed"),
    # the pack of a chemistry that is not built in
    FieldSpec("battery", "pack_capacity", _D.ENERGY, BatteryChemistry, "pack_capacity"),
    FieldSpec("battery", "manufacture_energy", _D.ENERGY, BatteryChemistry,
              "manufacture_energy"),
    FieldSpec("battery", "energy_density", _D.ENERGY_DENSITY, BatteryChemistry,
              "energy_density"),
    FieldSpec("battery", "pack_mass", _D.MASS, BatteryChemistry, "pack_mass"),
    FieldSpec("battery", "batteries_per_ev", None, Scenario, "batteries_per_ev", 4.0,
              floor=1.0, echo="batteries_per_ev"),
    FieldSpec("strategy", "renewable_share", _D.FRACTION, Scenario, "renewable_share",
              Quantity(0.30, _D.FRACTION), echo="renewable_share"),
    FieldSpec("strategy", "baseline_generation", _D.ENERGY, Scenario,
              "baseline_generation", attrgetter("mix.total_generation"),
              echo="baseline_generation_twh", echo_unit="TWh"),
)

# views of the table, built once
_OWNED: dict[type, tuple[FieldSpec, ...]] = {
    owner: tuple(f for f in FIELDS if f.owner is owner)
    for owner in dict.fromkeys(f.owner for f in FIELDS)}
_KEYS: dict[type, frozenset[str]] = {
    owner: frozenset(f.key for f in fields) for owner, fields in _OWNED.items()}

_BASES = {"shares": SharesBasis, "gallons": GallonsBasis}
_BASIS_NAMES = {owner: name for name, owner in _BASES.items()}

# keys each section allows beside the table's; [fleet] allows the keys of
# its chosen basis only
_HAND_KEYS = {
    "meta": {"name", "dataset"},
    "dataset": {"id", "year", "mix_year"},
    "ev": {"source"},
    "battery": {"chemistry", "method", "convention"},
    "strategy": set(),
    "sweep": {"path", "values", "from", "to", "step"},
}
_ALLOWED = {section: frozenset(keys | {f.key for f in FIELDS if f.section == section})
            for section, keys in _HAND_KEYS.items()}
_FLEET_ALLOWED = {owner: _KEYS[owner] | {"basis"} for owner in _BASES.values()}

_SCENARIO_SECTIONS = {*_HAND_KEYS, "mix", "fleet", "water"}


# --- loading --------------------------------------------------------------

def _want_ident(value: RawValue, key: str, problems: _Problems) -> str | None:
    if value.kind == "ident":
        return value.payload
    return problems.wrong(value, key, "an identifier")


def _text_or(section: Section, key: str, default: str | None,
             problems: _Problems) -> str | None:
    """The string or identifier at ``key``, the empty string included;
    ``default`` when absent or bad."""
    v = section.get(key)
    if v is None:
        return default
    if v.kind not in ("string", "ident"):
        problems.wrong(v, key, "a string")
        return default
    return v.payload


def _pick(section: Section | None, key: str, choices: dict, default, problems: _Problems,
          *, fold: bool = False):
    """The choice the identifier at ``key`` names (in any case, with ``fold``);
    ``default`` when the key is absent or names no choice."""
    v = section.get(key) if section is not None else None
    if v is None or (token := _want_ident(v, key, problems)) is None:
        return default
    if (choice := choices.get(token.lower() if fold else token)) is None:
        problems.wrong(v, key, f"one of {', '.join(choices)}")
        return default
    return choice


def _check_keys(section: Section, allowed: frozenset[str], problems: _Problems):
    for entry in section.entries:
        if entry.key not in allowed:
            problems.add(f"unknown key {entry.key!r} in [{section.name}]", entry.value)


def _read(sections: dict[str, Section], owner: type, ds: ReferenceDataset | None,
          problems: _Problems) -> dict | None:
    """``owner``'s field values by attribute, defaults filling omitted keys;
    None once a value is bad or missing (a required key, or a default without ``ds``)."""
    values = {}
    for f in _OWNED[owner]:
        section = sections.get(f.section)
        raw = section.get(f.key) if section is not None else None
        if raw is not None:
            values[f.attr] = f.read(raw, problems)
        elif f.default is not None:
            values[f.attr] = f.default_for(ds)
        else:
            problems.add(f"[{f.section}] missing required key {f.key!r}")
            values[f.attr] = None
    return None if None in values.values() else values


def _pairs(section: Section | None, dim: Dimension,
           problems: _Problems) -> list[tuple[str, Quantity]]:
    """The ``key = quantity`` entries of ``section``, each in ``dim``; a bad
    one is recorded and left out."""
    pairs = []
    for entry in section.entries if section is not None else ():
        q = _want_quantity(entry.value, dim, entry.key, problems)
        if q is not None:
            pairs.append((entry.key, q))
    return pairs


def _resolve_dataset(sections: dict[str, Section],
                     problems: _Problems) -> ReferenceDataset | None:
    """Build a ReferenceDataset from inline [dataset], [mix] and [water]; a
    missing [dataset] or [mix] is one problem, and the sections present are
    still checked."""
    ds_sec = sections.get("dataset")
    mix_sec = sections.get("mix")
    for name, section in (("dataset", ds_sec), ("mix", mix_sec)):
        if section is None:
            problems.add(f"inline dataset requires a [{name}] section")

    mix_totals = totals = None
    if ds_sec is not None:
        _check_keys(ds_sec, _ALLOWED["dataset"], problems)
        ds_id = _text_or(ds_sec, "id", "custom", problems)
        year = _text_or(ds_sec, "year", ds_id, problems)
        # the mix may be older than the dataset's nominal year (2001 datasets
        # reuse the 2005 generation data)
        mix_year = _text_or(ds_sec, "mix_year", year, problems)
        mix_totals = _read(sections, GridMix, None, problems)
        totals = _read(sections, ReferenceDataset, None, problems)

    entries = [(key, share.canonical)
               for key, share in _pairs(mix_sec, Dimension.FRACTION, problems)]
    water = dict(_pairs(sections.get("water"), Dimension.WATER_INTENSITY, problems))

    if mix_sec is None or mix_totals is None or totals is None:
        return None
    mix = GridMix(year=mix_year, entries=tuple(entries), **mix_totals)
    for violation in validate_mix(mix):
        problems.add(f"[mix] {violation}")
    return ReferenceDataset(id=ds_id, year=year, mix=mix, water_intensity=water, **totals)


def _resolve_fleet(sections: dict[str, Section], ds: ReferenceDataset | None,
                   problems: _Problems) -> SharesBasis | GallonsBasis | None:
    section = sections.get("fleet")
    owner = _pick(section, "basis", _BASES, SharesBasis, problems)
    if section is not None:
        _check_keys(section, _FLEET_ALLOWED[owner], problems)
    values = _read(sections, owner, ds, problems)
    return owner(**values) if values is not None else None


def _resolve_ev(sections: dict[str, Section], problems: _Problems) -> EvReference | None:
    section = sections.get("ev")
    if section is None:
        return CatalogMedian()
    _check_keys(section, _ALLOWED["ev"], problems)
    keys = section.keys()
    shapes = [owner for owner in (ExplicitPerEv, PowerRangeSpeed)
              if not _KEYS[owner].isdisjoint(keys)]
    source = section.get("source")
    if len(shapes) + (source is not None) > 1:
        problems.add("[ev] mixes per_ev_energy, power/range/speed and source; pick one")
        return None
    if shapes:
        values = _read(sections, shapes[0], None, problems)
        return shapes[0](**values) if values is not None else None
    return _pick(section, "source", {"catalog-median": CatalogMedian()}, CatalogMedian(),
                 problems)


def _resolve_chemistry(sections: dict[str, Section],
                       problems: _Problems) -> BatteryChemistry | None:
    section = sections.get("battery")
    keys = section.keys() if section is not None else ()
    name = "nimh"  # when none is named
    if "chemistry" in keys:
        name = _want_ident(section.get("chemistry"), "chemistry", problems)
    if name is None:
        return None
    pack_keys = [f.key for f in _OWNED[BatteryChemistry]]
    present = [k for k in pack_keys if k in keys]
    if name in chemistry_names():
        if present:
            problems.add(f"pack fields {present} are only for non-built-in "
                         f"chemistries; {name!r} is built-in")
        return builtin_chemistry(name)
    if not present:
        problems.add(f"unknown chemistry {name!r}; built-ins: {', '.join(chemistry_names())} "
                     f"(or supply {', '.join(pack_keys)})")
        return None
    values = _read(sections, BatteryChemistry, None, problems)
    if values is None:
        return None
    try:
        return BatteryChemistry(name=name, display_name=name, emissions_note="user supplied",
                                recycling_note="user supplied", **values)
    except EvDemandError as exc:
        problems.add(str(exc))
        return None


def _resolve_sweep(section: Section | None, fleet_basis: SharesBasis | GallonsBasis | None,
                   problems: _Problems) -> SweepSpec | None:
    if section is None:
        return None
    _check_keys(section, _ALLOWED["sweep"], problems)
    if (path_v := section.get("path")) is None:
        problems.add("[sweep] missing key 'path'")
        return None
    if (path := _want_ident(path_v, "path", problems)) is None:
        return None
    values: list[float | Quantity | None] | None = None
    if (values_v := section.get("values")) is not None:
        values = [item.payload if item.kind in ("number", "quantity")
                  else problems.wrong(item, "sweep value", "a number or quantity")
                  for item in (values_v.payload if values_v.kind == "list" else [values_v])]
    bounds = []
    for key in ("from", "to", "step"):
        v = section.get(key)
        if v is not None and v.kind != "number":
            return problems.wrong(v, f"sweep {key}", "a bare number")
        bounds.append(None if v is None else v.payload)
    # each bad item is recorded once; what it leaves of the list is not checked
    if values is not None and None in values:
        return None
    try:
        spec = SweepSpec(path, values, *bounds)
        if fleet_basis is not None:  # else the [fleet] problems are recorded
            _check_basis(OVERRIDE_PATHS[path], fleet_basis)
        return spec
    except EvDemandError as exc:
        problems.add(f"[sweep] {exc}")
        return None


def parse_scenario(text: str, *, default_name: str | None = None) -> Scenario:
    """Parse and fully resolve scenario text.

    Raises ParseError for malformed syntax, and otherwise ValidationError
    listing every problem found, in the order found: a missing, unknown or
    malformed dataset, or an unknown chemistry, is one of them.
    """
    doc = parse_document(text)
    sections = {section.name: section for section in doc.sections}
    problems = _Problems()

    for name in sections:
        if name not in _SCENARIO_SECTIONS:
            problems.add(f"unknown section [{name}]")

    meta = sections.get("meta")
    dataset_v: RawValue | None = None
    scenario_name = default_name
    if meta is not None:
        _check_keys(meta, _ALLOWED["meta"], problems)
        scenario_name = _text_or(meta, "name", scenario_name, problems)
        dataset_v = meta.get("dataset")
    dataset_ref = None if dataset_v is None else _want_ident(dataset_v, "dataset", problems)

    # without a dataset (its problem recorded) every other section is still checked
    has_inline = "dataset" in sections or "mix" in sections
    ds: ReferenceDataset | None = None
    if dataset_ref is not None and has_inline:
        problems.add("scenario both references a dataset and defines one inline")
    if has_inline:
        ds = _resolve_dataset(sections, problems)
    elif dataset_ref is not None:
        try:
            ds = builtin_dataset(dataset_ref)
        except UnknownDataset as exc:
            problems.add(str(exc))
    elif dataset_v is None:
        problems.add("scenario must reference a built-in dataset ([meta] dataset = ...) "
                     "or define one inline ([dataset] + [mix])")

    fleet_basis = _resolve_fleet(sections, ds, problems)
    ev_reference = _resolve_ev(sections, problems)

    if (battery := sections.get("battery")) is not None:
        _check_keys(battery, _ALLOWED["battery"], problems)
    method = _pick(battery, "method", _METHOD_TOKENS, Method.BOTH, problems, fold=True)
    convention = _pick(battery, "convention", _CONVENTION_TOKENS, Convention.PUBLISHED,
                       problems)
    chemistry = _resolve_chemistry(sections, problems)

    if (strategy := sections.get("strategy")) is not None:
        _check_keys(strategy, _ALLOWED["strategy"], problems)
    scalars = _read(sections, Scenario, ds, problems)

    if has_inline or "water" not in sections:
        # an inline [water] section already populated the dataset's map
        water_pairs = tuple(ds.water_intensity.items()) if ds is not None else ()
    else:
        water_pairs = tuple(_pairs(sections["water"], Dimension.WATER_INTENSITY, problems))
    for fuel, _ in water_pairs if ds is not None else ():
        if fuel not in ds.mix.sources():
            problems.add(f"water fuel {fuel!r} is not a source in the grid mix")

    sweep_spec = _resolve_sweep(sections.get("sweep"), fleet_basis, problems)

    if problems.items:
        raise ValidationError(problems.items)
    return Scenario(
        name=ds.id if scenario_name is None else scenario_name,
        dataset=ds,
        fleet_basis=fleet_basis,
        ev_reference=ev_reference,
        chemistry=chemistry,
        method=method,
        convention=convention,
        water=water_pairs,
        sweep_spec=sweep_spec,
        **scalars,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and resolve a scenario file."""
    p = Path(path)
    text = p.read_text(encoding="utf-8-sig")  # a leading byte-order mark is ignored
    return parse_scenario(text, default_name=p.stem)


BUILTIN_SCENARIOS = ("paper-2005", "paper-2001", "bad-mix")


def builtin_scenario_text(name: str) -> str:
    """Text of a packaged scenario fixture."""
    if name not in BUILTIN_SCENARIOS:
        raise UnknownScenario(f"unknown built-in scenario {name!r}; "
                              f"known: {', '.join(BUILTIN_SCENARIOS)}")
    from importlib import resources
    return resources.files("evdemand").joinpath("data", f"{name}.scn") \
        .read_text(encoding="utf-8")


@functools.cache  # one per packaged fixture: the text never changes, the Scenario is immutable
def load_builtin_scenario(name: str) -> Scenario:
    return parse_scenario(builtin_scenario_text(name), default_name=name)


# --- assessment ------------------------------------------------------------

# per-EV energy from the built-in catalog's median power, range and speed;
# the catalog is immutable, so this is computed once
_CATALOG_MEDIAN_PER_EV = engine.per_ev_energy(
    *(catalog_stats(builtin_ev_catalog(), field).median
      for field in ("power", "range", "max_speed")))


_STAGES: list = []  # the stage functions, in the order ``assess`` runs them


def _stage(reads: str, writes: str):
    """Declares a stage of ``assess``: ``run(s, record)`` adds the keys in
    ``writes`` to the record, from the field paths and earlier outputs it
    ``reads``; both are kept as attributes of ``run``."""
    def add(run):
        run.reads, run.writes = frozenset(reads.split()), tuple(writes.split())
        _STAGES.append(run)
        return run
    return add


# A stage declares field paths and outputs only: the method, convention,
# chemistry and water pairs are not fields, and no override replaces them.
@_stage("fleet.total_energy fleet.transport_share fleet.fuel_share fleet.gallons "
        "fleet.heat_content fleet.btu_to_wh", "fleet_energy fleet_wh")
def _fleet(s: Scenario, r: dict) -> None:
    r["fleet_energy"] = fleet = engine.fleet_energy(s.fleet_basis)
    r["fleet_wh"] = fleet.canonical


@_stage("ev.per_ev_energy ev.power ev.range ev.speed", "per_ev_energy")
def _per_ev(s: Scenario, r: dict) -> None:
    ref = s.ev_reference
    if isinstance(ref, ExplicitPerEv):
        engine._expect(ref.per_ev, Dimension.ENERGY, "per-EV energy")
        r["per_ev_energy"] = ref.per_ev
    elif isinstance(ref, PowerRangeSpeed):
        r["per_ev_energy"] = engine.per_ev_energy(ref.power, ref.travel_range, ref.speed)
    else:
        r["per_ev_energy"] = _CATALOG_MEDIAN_PER_EV


# every other input is read once, with its dimension check, in the order
# below; the engine kernels then compute on canonical floats
@_stage("dataset.co2_total dataset.total_generation", "emissions_t generation_wh water_inputs")
def _dataset_inputs(s: Scenario, r: dict) -> None:
    expect = engine._expect
    r["emissions_t"] = expect(s.dataset.co2_total, Dimension.MASS, "emissions")
    mix = s.dataset.mix
    r["generation_wh"] = expect(mix.total_generation, Dimension.ENERGY, "generation")
    r["water_inputs"] = [(fuel, Quantity(mix.share(fuel), Dimension.FRACTION).canonical,
                          expect(wi, Dimension.WATER_INTENSITY, "water intensity"))
                         for fuel, wi in s.water]


@_stage("strategy.baseline_generation", "baseline_wh")
def _baseline(s: Scenario, r: dict) -> None:
    r["baseline_wh"] = engine._expect(s.baseline_generation, Dimension.ENERGY,
                                      "baseline generation")


@_stage("strategy.renewable_share", "share")
def _share(s: Scenario, r: dict) -> None:
    r["share"] = engine._expect(s.renewable_share, Dimension.FRACTION, "renewable share")


@_stage("fleet_wh per_ev_energy battery.batteries_per_ev battery.manufacture_energy", "demand_a")
def _demand_a(s: Scenario, r: dict) -> None:
    r["demand_a"] = (engine._battery_demand_method_a(r["fleet_wh"], r["per_ev_energy"].canonical,
                                                     s.batteries_per_ev, s.chemistry)
                     if s.method in (Method.A, Method.BOTH) else None)


@_stage("fleet_wh battery.pack_capacity battery.manufacture_energy", "demand_b")
def _demand_b(s: Scenario, r: dict) -> None:
    r["demand_b"] = (engine._battery_demand_method_b(r["fleet_wh"], s.chemistry)
                     if s.method in (Method.B, Method.BOTH) else None)


@_stage("fleet_wh demand_a demand_b",
        "totals_demand battery_energy_for_totals total_additional_energy")
def _totals(s: Scenario, r: dict) -> None:
    # the published total pairs the fleet demand with the pack-capacity
    # (method B) battery energy whenever that method is computed
    demand_b = r["demand_b"]
    r["totals_demand"] = totals_demand = demand_b if demand_b is not None else r["demand_a"]
    battery_energy = totals_demand.production_energy
    if s.convention is Convention.PUBLISHED:
        battery_energy = engine.printed_style(battery_energy)
    r["battery_energy_for_totals"] = battery_energy
    r["total_additional_energy"] = engine._total_additional_energy(
        r["fleet_wh"], battery_energy.canonical)


@_stage("emissions_t generation_wh", "carbon_intensity")
def _intensity(s: Scenario, r: dict) -> None:
    r["carbon_intensity"] = engine._carbon_intensity(r["emissions_t"], r["generation_wh"])


# as the study computes them: CO2 from total additional energy, water from fleet energy
@_stage("total_additional_energy carbon_intensity", "additional_co2")
def _co2(s: Scenario, r: dict) -> None:
    r["additional_co2"] = engine._additional_co2(r["total_additional_energy"].canonical,
                                                 r["carbon_intensity"].canonical)


@_stage("fleet_wh water_inputs", "water")
def _water(s: Scenario, r: dict) -> None:
    fleet_wh = r["fleet_wh"]
    r["water"] = tuple([(fuel, engine._water_use(fleet_wh, share, gal_per_mwh))
                        for fuel, share, gal_per_mwh in r["water_inputs"]])


@_stage("baseline_wh share fleet_wh", "renewable_supply conversion_fraction full_conversion")
def _conversion(s: Scenario, r: dict) -> None:
    fleet_wh = r["fleet_wh"]
    r["renewable_supply"] = supply = engine._renewable_supply(r["baseline_wh"], r["share"])
    if fleet_wh == 0.0:
        fraction = 0.0
    else:
        fraction = engine._sustainable_conversion_fraction(supply.canonical, fleet_wh)
    r["conversion_fraction"], r["full_conversion"] = fraction, fraction >= 1.0


@_stage("total_additional_energy baseline_wh", "deficit")
def _deficit(s: Scenario, r: dict) -> None:
    r["deficit"] = engine._capacity_deficit(r["total_additional_energy"].canonical,
                                            r["baseline_wh"])


_FIELDS_OF = itemgetter(*Assessment._fields)


def _evaluate(s: Scenario, runs: list | tuple, record: dict) -> Assessment:
    """Run ``runs`` on ``s`` in order, into ``record``, which holds every
    output the runs read and do not write."""
    record["scenario"] = s
    for run in runs:
        run(s, record)
    return tuple.__new__(Assessment, _FIELDS_OF(record))


def assess(s: Scenario) -> Assessment:
    """Evaluate a scenario: fleet energy, demands, CO2, water, strategy, deficit.

    Deterministic and referentially transparent; runs every stage in order.
    """
    return _evaluate(s, _STAGES, {})


# --- sweeps ----------------------------------------------------------------

#: override path -> its field spec, for each owner ``apply_override`` replaces
OVERRIDE_PATHS = MappingProxyType({f.path: f for f in FIELDS
                                   if f.owner in (Scenario, ExplicitPerEv, *_BASIS_NAMES)})


def _override_field(path: str) -> FieldSpec:
    """The field a sweep or override at ``path`` replaces."""
    if path not in OVERRIDE_PATHS:
        raise UnknownParameter(
            f"unknown parameter path {path!r}; known: {', '.join(sorted(OVERRIDE_PATHS))}")
    return OVERRIDE_PATHS[path]


def _check_basis(field: FieldSpec, basis: SharesBasis | GallonsBasis) -> None:
    """The fleet basis guard: a basis field applies to its own basis only."""
    if field.owner in _BASIS_NAMES and not isinstance(basis, field.owner):
        raise UnknownParameter(
            f"{field.path} applies to the {_BASIS_NAMES[field.owner]} basis only")


#: override path -> its index on ``Scenario``, and for a fleet basis field or the
#: per-EV energy, its index on that record and the blank record it fills, if any
_PLACES = {p: (Scenario._fields.index(f.attr), None, None) if f.owner is Scenario else
           (Scenario._fields.index("ev_reference" if f.owner is ExplicitPerEv else "fleet_basis"),
            f.owner._fields.index(f.attr), ExplicitPerEv(None) if f.owner is ExplicitPerEv else None)
           for p, f in OVERRIDE_PATHS.items()}


def _overrider(s: Scenario, path: str) -> Callable[[float | Quantity], Scenario]:
    """``apply_override`` of ``s`` at ``path`` as a function of the value. The
    field, its place in ``_PLACES``, the record it fills and the fleet basis
    are looked up once; each value is coerced, then the basis is checked."""
    field = _override_field(path)
    coerce, basis = field.coerce, s.fleet_basis
    at, inner, blank = _PLACES[path]
    make, head, tail = type(s), s[:at], s[at + 1:]
    if inner is not None:
        record = blank or s[at]  # copied as ``_replace`` copies it: no owner overrides _make
        owner, before, after = type(record), record[:inner], record[inner + 1:]

    def override(value):
        coerced = coerce(value)
        _check_basis(field, basis)
        if inner is not None:
            coerced = tuple.__new__(owner, (*before, coerced, *after))
        return tuple.__new__(make, (*head, coerced, *tail))
    return override


def apply_override(s: Scenario, path: str, value: float | Quantity) -> Scenario:
    """Return a copy of ``s`` with one parameter replaced, at its place in ``_PLACES``."""
    return _overrider(s, path)(value)


def _reruns(path: str) -> tuple:
    """The stages an override at ``path`` changes, in ``assess`` order: those
    that read it, and those that read what a changed stage wrote."""
    changed, runs = {path}, []
    for stage in _STAGES:
        if not changed.isdisjoint(stage.reads):
            changed.update(stage.writes)
            runs.append(stage)
    return tuple(runs)


_RERUNS = {path: _reruns(path) for path in OVERRIDE_PATHS}


def iter_sweep(s: Scenario, spec: SweepSpec) -> Iterator[SweepPoint]:
    """Evaluate ``s`` at each sweep point in order, yielding each point as it
    is evaluated; a point that fails carries its error inline.

    ``s`` is assessed, and its override at the path bound, once. A point
    reruns only the stages its path changes and takes every other output
    from ``s``: those succeeded on the same inputs, so the point equals a full
    ``assess`` of the overridden scenario, error for error. If ``s`` fails,
    each point is assessed in full.
    """
    base: dict = {}
    override, runs = _overrider(s, spec.path), _RERUNS[spec.path]
    try:
        _evaluate(s, _STAGES, base)
    except EvDemandError:
        base, runs = {}, _STAGES
    for value in spec.points():
        try:
            point = tuple.__new__(SweepPoint, (value, _evaluate(override(value), runs,
                                                               dict(base)), None))
        except EvDemandError as exc:
            point = SweepPoint(value, None, str(exc))
        yield point


def sweep(s: Scenario, spec: SweepSpec) -> list[SweepPoint]:
    """Every point of ``iter_sweep``, in evaluation order."""
    return list(iter_sweep(s, spec))


# --- rendering ---------------------------------------------------------------

def _entries(obj, section: str | None = None) -> list[tuple[str, str]]:
    """File entries for the table fields ``obj`` owns (in ``section`` only, if given)."""
    return [(f.key, literal(getattr(obj, f.attr))) for f in _OWNED[type(obj)]
            if section is None or f.section == section]


def _dataset_sections(ds: ReferenceDataset) -> list[tuple[str, list[tuple[str, str]]]]:
    return [
        ("dataset", [
            ("id", text_literal(ds.id)),
            ("year", quoted(ds.year)),
            *([("mix_year", quoted(ds.mix.year))] if ds.mix.year != ds.year else []),
            *_entries(ds.mix),
            *_entries(ds),
        ]),
        ("mix", [(name, f"{share!r} frac") for name, share in ds.mix.entries]),
        ("water", [(fuel, literal(wi)) for fuel, wi in ds.water_intensity.items()]),
    ]


def _reloaded(text: str, obj: Scenario | ReferenceDataset) -> str:
    """``text`` if it reloads to ``obj``; else :class:`UnwritableScenario`."""
    try:
        back = parse_scenario(text)
    except EvDemandError as exc:
        raise UnwritableScenario(f"the file would not reload: {exc}") from exc
    back = back.dataset if type(obj) is ReferenceDataset else back
    if back != obj:
        field = next(name for name, a, b in zip(obj._fields, obj, back) if a != b)
        raise UnwritableScenario(f"its {field} would reload as another value")
    return text


def render_dataset(ds: ReferenceDataset, *, comments: list[str] | None = None) -> str:
    """Dataset in file syntax, checked to load back to identical data;
    :class:`UnwritableScenario` where it would not."""
    return _reloaded(write_document(_dataset_sections(ds), header_comments=comments), ds)


def render_scenario(s: Scenario) -> str:
    """Scenario in file syntax, checked to load back to an equal Scenario;
    :class:`UnwritableScenario` where it would not."""
    meta = [("name", quoted(s.name))]
    builtin = s.dataset.id in dataset_ids() and builtin_dataset(s.dataset.id) == s.dataset
    if builtin:
        sections = [("meta", [*meta, ("dataset", s.dataset.id)])]
    else:  # the inline dataset brings its own [water] section
        sections = [("meta", meta), *_dataset_sections(s.dataset)]

    sections.append(("fleet", [("basis", _BASIS_NAMES[type(s.fleet_basis)]),
                               *_entries(s.fleet_basis)]))
    if isinstance(s.ev_reference, CatalogMedian):
        sections.append(("ev", [("source", "catalog-median")]))
    else:
        sections.append(("ev", _entries(s.ev_reference)))

    battery = [("chemistry", s.chemistry.name)]
    if s.chemistry.name not in chemistry_names():
        battery += _entries(s.chemistry)
    battery += [*_entries(s, "battery"), ("method", s.method.value),
                ("convention", s.convention.value)]
    sections += [("battery", battery), ("strategy", _entries(s, "strategy"))]

    if builtin:
        sections.append(("water", [(fuel, literal(wi)) for fuel, wi in s.water]))
    spec = s.sweep_spec
    if spec is not None:
        if spec.values is None:
            entries = list(zip(("from", "to", "step"), map(literal, spec[2:])))
        else:
            entries = [("values", ", ".join(map(literal, spec.values)))]
        sections.append(("sweep", [("path", spec.path), *entries]))
    return _reloaded(write_document(sections), s)


def _echo(obj) -> dict:
    return {f.echo: f.echo_value(getattr(obj, f.attr)) for f in _OWNED[type(obj)]
            if f.echo}


def scenario_echo(s: Scenario) -> dict:
    """The resolved inputs, as the JSON report echoes them."""
    return {
        "name": s.name,
        "dataset": s.dataset.id,
        "year": s.dataset.year,
        "fleet": {"basis": _BASIS_NAMES[type(s.fleet_basis)], **_echo(s.fleet_basis)},
        "ev_reference": type(s.ev_reference).__name__,
        "chemistry": s.chemistry.name,
        "method": s.method.value,
        "convention": s.convention.value,
        "water_fuels": [fuel for fuel, _ in s.water],
        **_echo(s),
    }
