"""Exception types raised across the package.

Every domain error derives from :class:`EvDemandError`, so callers can tell it
from a bug. The pack, catalog, sweep, quoting, write-back and render-option
checks also subclass ``ValueError``, a magnitude that is not a number
``TypeError``, and an unknown packaged scenario ``KeyError``.
"""


class EvDemandError(Exception):
    """Base class for all errors raised by this package."""


# --- quantities ---------------------------------------------------------

class UnknownUnit(EvDemandError):
    """Unit name is not in the unit catalog."""


class DimensionMismatch(EvDemandError):
    """Operation mixed quantities of incompatible dimensions."""


class ParseError(EvDemandError):
    """Malformed quantity literal or scenario text.

    ``offset`` is the byte offset into a quantity literal; ``line`` and
    ``column`` locate errors in scenario files (1-based).
    """

    def __init__(self, message: str, *, offset: int | None = None,
                 line: int | None = None, column: int | None = None):
        self.offset = offset
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        elif offset is not None:
            where = f" (offset {offset})"
        super().__init__(message + where)


class NegativeWherePhysical(EvDemandError):
    """Negative magnitude for a physical quantity."""


class NonFiniteMagnitude(EvDemandError):
    """NaN or infinite magnitude, or an ``int`` too large for a float."""


class NonNumericMagnitude(EvDemandError, TypeError):
    """Magnitude that is not an ``int`` or a ``float``; a ``bool`` is not one."""


class FractionOutOfRange(EvDemandError):
    """Fraction outside [0, 1]."""


# --- reference data -----------------------------------------------------

class UnknownDataset(EvDemandError):
    """No built-in dataset with the requested id."""


class UnknownSource(EvDemandError):
    """Generation source name not present in the grid mix."""


class UnknownChemistry(EvDemandError):
    """No battery chemistry with the requested name."""


class EmptyField(EvDemandError):
    """Catalog statistics requested for a field no model provides."""


class UnknownCatalogField(EvDemandError, ValueError):
    """Catalog statistics requested for a field the catalog does not have."""


class InvalidReferenceData(EvDemandError, ValueError):
    """A pack whose capacity disagrees with density x mass or that costs no
    energy to make, or a catalog range that is not 0 < low <= high."""


# --- engine -------------------------------------------------------------

class ZeroSpeed(EvDemandError):
    """Per-vehicle energy requires a positive reference speed."""


class ZeroPerEvEnergy(EvDemandError):
    """Fleet count requires a positive per-vehicle energy."""


class ZeroGeneration(EvDemandError):
    """Emission intensity requires a positive generation total."""


class ZeroFleetEnergy(EvDemandError):
    """Conversion fraction requires a positive fleet energy."""


class ZeroBaseline(EvDemandError):
    """Capacity comparison requires a positive baseline generation."""


class BelowMinimum(EvDemandError):
    """A count below its domain floor (fewer than one pack per EV) or NaN."""


# --- scenarios ----------------------------------------------------------

class ValidationError(EvDemandError):
    """One or more scenario-level validation problems, aggregated."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class UnknownParameter(EvDemandError):
    """Sweep parameter path does not name an overridable scenario field."""


class UnquotableText(EvDemandError, ValueError):
    """Text with a ``"`` or a line break, which file syntax cannot quote."""


class UnwritableScenario(EvDemandError, ValueError):
    """A scenario or dataset whose file would not reload (the loader's error is the
    cause) or would reload unequal; or a value, key or comment no file can spell."""


class UnknownScenario(EvDemandError, KeyError):
    """No packaged scenario with the requested name."""
    __str__ = Exception.__str__  # the message, not KeyError's quoted repr


class InvalidSweep(EvDemandError, ValueError):
    """Sweep with no points, or a progression that is non-finite, never
    reaches its end, or has more points than the cap."""


# --- reports ------------------------------------------------------------

class UnknownTarget(EvDemandError):
    """Reproduction target id is not registered."""


class InvalidRenderOption(EvDemandError, ValueError):
    """Unknown output format, or a significant-digit count outside 1..17."""
