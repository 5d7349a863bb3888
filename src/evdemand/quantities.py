"""Typed physical quantities: canonical magnitudes, literal parsing and formatting.

Every value that flows through the engine is a :class:`Quantity`: a 64-bit
float magnitude in the canonical unit of its :class:`Dimension` (energy in
Wh, power in W, speed in mi/h, distance in mi, volume in US gal, mass in
metric tons, intensity ratios in their natural published units), so engine
arithmetic never mixes scales. The unit table names each unit once, with its
factor to the canonical unit; :func:`quantity` and :func:`parse_quantity`
scale into the canonical unit, and :meth:`Quantity.in_unit` and
:func:`format_quantity` scale out of it. Asking for a unit of another
dimension raises :class:`~evdemand.errors.DimensionMismatch`.

Two Btu-to-Wh factors coexist on purpose. The published accounting quotes
0.2929 Wh/Btu but its gasoline-fleet result is only reached with the exact
0.293071 Wh/Btu, so the exact factor is the default and the rounded one is
selectable per scenario. Either is a ``Wh/Btu`` quantity; there is no bare
Btu unit.
"""

import math
import re
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import (
    DimensionMismatch,
    FractionOutOfRange,
    InvalidRenderOption,
    NegativeWherePhysical,
    NonFiniteMagnitude,
    NonNumericMagnitude,
    ParseError,
    UnknownUnit,
)

__all__ = [
    "Dimension",
    "Quantity",
    "UnitCatalog",
    "CATALOG",
    "BTU_TO_WH_PAPER",
    "BTU_TO_WH_EXACT",
    "GASOLINE_HEAT_BTU_PER_GAL",
    "quantity",
    "parse_quantity",
    "format_quantity",
    "check_sig_digits",
]

# Published rounded factor vs the exact one; see module docstring.
BTU_TO_WH_PAPER = 0.2929
BTU_TO_WH_EXACT = 0.293071

# Heat content of gasoline, Btu per US gallon.
GASOLINE_HEAT_BTU_PER_GAL = 114000.0


class Dimension(Enum):
    """Physical dimension of a quantity; fixes its canonical unit."""

    ENERGY = "energy"                    # Wh
    POWER = "power"                      # W
    SPEED = "speed"                      # mi/h
    DISTANCE = "distance"                # mi
    VOLUME = "volume"                    # US gal
    MASS = "mass"                        # metric ton
    COUNT = "count"                      # dimensionless count
    FRACTION = "fraction"                # dimensionless, in [0, 1]
    CARBON_INTENSITY = "carbon_intensity"  # Mt per TWh
    WATER_INTENSITY = "water_intensity"    # gal per MWh
    HEAT_CONTENT = "heat_content"          # Btu per gal
    BTU_CONVERSION = "btu_conversion"      # Wh per Btu
    ENERGY_DENSITY = "energy_density"      # Wh per kg


class UnitDef(NamedTuple):
    """One named unit: dimension plus the factor to its canonical unit.

    ``inverse=True`` means the canonical magnitude is value / scale rather
    than value * scale. Sub-canonical units (kg, %) use it so that the
    inbound conversion is a single correctly rounded division.
    """

    name: str
    dimension: Dimension
    scale: float = 1.0
    inverse: bool = False

    def to_canonical(self, value: float) -> float:
        return value / self.scale if self.inverse else value * self.scale

    def from_canonical(self, value: float) -> float:
        return value * self.scale if self.inverse else value / self.scale


class UnitCatalog(NamedTuple):
    """Immutable unit table."""

    units: Mapping[str, UnitDef]

    def lookup(self, name: str) -> UnitDef:
        try:
            return self.units[name]
        except KeyError:
            raise UnknownUnit(f"unknown unit {name!r}") from None


#: Every unit, named once with its dimension and its factor to the canonical unit.
_D = Dimension
CATALOG = UnitCatalog(units=MappingProxyType({u.name: u for u in (
    UnitDef("Wh", _D.ENERGY),
    UnitDef("kWh", _D.ENERGY, 1e3),
    UnitDef("MWh", _D.ENERGY, 1e6),
    UnitDef("TWh", _D.ENERGY, 1e12),
    UnitDef("W", _D.POWER),
    UnitDef("kW", _D.POWER, 1e3),
    UnitDef("mph", _D.SPEED),
    UnitDef("mi", _D.DISTANCE),
    UnitDef("gal", _D.VOLUME),
    UnitDef("t", _D.MASS),
    UnitDef("Mt", _D.MASS, 1e6),
    UnitDef("kg", _D.MASS, 1e3, inverse=True),
    UnitDef("Btu/gal", _D.HEAT_CONTENT),
    UnitDef("gal/MWh", _D.WATER_INTENSITY),
    UnitDef("Mt/TWh", _D.CARBON_INTENSITY),
    UnitDef("Wh/Btu", _D.BTU_CONVERSION),
    UnitDef("Wh/kg", _D.ENERGY_DENSITY),
    UnitDef("%", _D.FRACTION, 100.0, inverse=True),
    UnitDef("frac", _D.FRACTION),
    UnitDef("count", _D.COUNT),
)}))

#: Each dimension's canonical unit: its one unit of scale 1 that is not inverse.
CANONICAL_UNIT: Mapping[Dimension, str] = MappingProxyType({
    u.dimension: u.name for u in CATALOG.units.values() if u.scale == 1.0 and not u.inverse})

#: Unit spellings accepted in quantity literals (scenario files and CLI).
PARSE_UNITS = tuple(name for name in CATALOG.units if name != "count")


class _QuantityFields(NamedTuple):
    magnitude: float
    dimension: Dimension


class Quantity(_QuantityFields):
    """A magnitude in the canonical unit of ``dimension``.

    Build one from another unit with :func:`quantity` or
    :func:`parse_quantity`, and read it in another unit with :meth:`in_unit`.
    Magnitudes must be an ``int`` or a ``float`` (not a ``bool``), finite and
    non-negative, and fractions must lie in [0, 1]; ``_replace`` and
    ``_make`` check a copy the same way.
    """

    __slots__ = ()

    def __new__(cls, magnitude: float, dimension: Dimension):
        m = magnitude if type(magnitude) is float else _float(magnitude, dimension)
        if not math.isfinite(m):
            raise NonFiniteMagnitude(f"non-finite magnitude {m!r} for {dimension.value}")
        if m == 0.0:
            m = 0.0  # normalize -0.0
        if m < 0.0:
            raise NegativeWherePhysical(
                f"negative magnitude {m!r} for physical {dimension.value}")
        if dimension is Dimension.FRACTION and m > 1.0:
            raise FractionOutOfRange(f"fraction {m!r} exceeds 1")
        return tuple.__new__(cls, (m, dimension))

    # a copy passes the same checks; ``_replace`` builds its copy with ``_make``
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    # the magnitude (always canonical) through the field's own read-only descriptor
    canonical = _QuantityFields.magnitude

    def in_unit(self, unit: str) -> float:
        """Magnitude expressed in ``unit`` (must share the dimension)."""
        u = CATALOG.lookup(unit)
        if u.dimension is not self.dimension:
            raise DimensionMismatch(
                f"unit {unit!r} is {u.dimension.value}, quantity is {self.dimension.value}")
        return u.from_canonical(self.magnitude)

    def __str__(self) -> str:
        return f"{self.magnitude!r} {CANONICAL_UNIT[self.dimension]}"


def _float(value: float, dimension: Dimension) -> float:
    """A ``float`` as it is, an ``int`` as a float (an infinity when no float
    holds it, as a file's ``1e400`` reads); else :class:`NonNumericMagnitude`."""
    if type(value) is not float and type(value) is not int:
        raise NonNumericMagnitude(
            f"magnitude {value!r} for {dimension.value} is not an int or a float")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def quantity(value: float, unit: str) -> Quantity:
    """Build a Quantity from a magnitude in ``unit``."""
    u = CATALOG.lookup(unit)
    if type(value) is not float:
        value = _float(value, u.dimension)
    return Quantity(u.to_canonical(value), u.dimension)


# Literal grammar: NUMBER WS? UNIT, decimal number with optional exponent.
NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def parse_quantity(text: str) -> Quantity:
    """Parse a quantity literal such as ``"29000 TWh"`` or ``"61 %"``.

    ``%`` divides by 100 into a fraction; every other unit maps to its
    canonical unit. Raises :class:`ParseError` with the byte offset of the
    failure, :class:`UnknownUnit` for an unrecognized unit token, and
    :class:`NegativeWherePhysical` for negative magnitudes.
    """
    stripped = text.strip()
    lead = len(text) - len(text.lstrip())
    if not stripped:
        raise ParseError("empty quantity literal", offset=0)
    m = NUMBER_RE.match(stripped)
    if m is None:
        raise ParseError(f"expected a number in {text!r}", offset=lead)
    unit_token = stripped[m.end():].strip()
    if not unit_token:
        raise ParseError(f"missing unit in {text!r}", offset=lead + m.end())
    if unit_token not in PARSE_UNITS:
        raise UnknownUnit(f"unknown unit {unit_token!r} in {text!r}")
    value = float(m.group())
    return quantity(value, unit_token)


def _format_sig(value: float, sig_digits: int) -> str:
    """Round to significant digits (ties to even) and render plainly.

    Uses scientific notation outside 1e-4 .. 1e16 so output stays unambiguous
    for extreme magnitudes; a NaN or an infinity has no digits and raises
    :class:`NonFiniteMagnitude`.
    """
    if value == 0.0:
        return "0"
    # "g" writes as above, except an integer with an exponent from the digit
    # count to 15 in e+ form, and 1e16 .. 1e17 plainly at 17 digits
    out = f"{value:.{sig_digits}g}"
    head, e, exp = out.partition("e+")
    if e and int(exp) <= 15:  # an integer: pad its digits out to the exponent
        return head.replace(".", "").ljust(int(exp) + 1 + (value < 0), "0")
    if e or abs(value) < 1e16:
        return out
    if not math.isfinite(value):
        raise NonFiniteMagnitude(f"cannot print {value!r}: it has no digits")
    # 17 digits, 1e16 <= |value| < 1e17: "g" wrote the 17 digits of an integer
    return f"{out[:-16]}.{out[-16:]}".rstrip("0").rstrip(".") + "e+16"


def check_sig_digits(sig_digits: int) -> int:
    """``sig_digits`` if it is an ``int`` (not a ``bool``) from 1 to 17, the
    most digits that still tell two doubles apart; :class:`InvalidRenderOption`
    otherwise."""
    if type(sig_digits) is not int or not 1 <= sig_digits <= 17:
        raise InvalidRenderOption(f"sig_digits must be from 1 to 17, got {sig_digits!r}")
    return sig_digits


def format_quantity(q: Quantity, unit: str, sig_digits: int) -> str:
    """Render ``q`` in ``unit`` with ``sig_digits`` significant digits.

    Deterministic across runs and platforms; round-trips through
    :func:`parse_quantity` at 17 significant digits.
    """
    check_sig_digits(sig_digits)
    return f"{_format_sig(q.in_unit(unit), sig_digits)} {unit}"
