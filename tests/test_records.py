"""Records are NamedTuples; the ones that check their values do so however
they are built, positionally or by keyword, with the same typed errors."""

import math
import re

import pytest

from evdemand.engine import GallonsBasis, SharesBasis
from evdemand.errors import (
    DimensionMismatch,
    FractionOutOfRange,
    InvalidReferenceData,
    InvalidSweep,
    NegativeWherePhysical,
    NonFiniteMagnitude,
    UnknownParameter,
)
from evdemand.quantities import Dimension, Quantity, quantity
from evdemand.refdata import BatteryChemistry, EvModel, builtin_chemistry
from evdemand.scenario import (
    FIELDS,
    OVERRIDE_PATHS,
    Scenario,
    SweepSpec,
    apply_override,
    load_builtin_scenario,
)

NIMH = builtin_chemistry("nimh")._asdict()


def _both_ways(cls, kwargs, error, message):
    """``cls`` rejects ``kwargs`` given by keyword and positionally alike."""
    for build in (lambda: cls(**kwargs), lambda: cls(*kwargs.values())):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(magnitude=-1.0, dimension=Dimension.ENERGY), NegativeWherePhysical,
     "negative magnitude -1.0 for physical energy"),
    (dict(magnitude=math.nan, dimension=Dimension.ENERGY), NonFiniteMagnitude,
     "non-finite magnitude nan for energy"),
    (dict(magnitude=1.5, dimension=Dimension.FRACTION), FractionOutOfRange,
     "fraction 1.5 exceeds 1"),
])
def test_quantity_checks(kwargs, error, message):
    _both_ways(Quantity, kwargs, error, message)


@pytest.mark.parametrize("change, message", [
    (dict(pack_mass=quantity(100, "kg")),
     "nimh: pack capacity 25000.0 Wh disagrees with density x mass = 7500.0 Wh beyond 2%"),
    (dict(manufacture_energy=quantity(0, "kWh")), "nimh: manufacture energy must be positive"),
])
def test_battery_chemistry_checks(change, message):
    _both_ways(BatteryChemistry, {**NIMH, **change}, InvalidReferenceData, message)
    with pytest.raises(InvalidReferenceData, match=f"^{re.escape(message)}$"):  # and a copy
        builtin_chemistry("nimh")._replace(**change)


@pytest.mark.parametrize("change, message", [
    # a count-valued density and capacity agree with the mass, and a
    # mass-valued manufacture energy is positive: the dimensions alone are wrong
    (dict(energy_density=Quantity(75.0, Dimension.COUNT),
          pack_capacity=Quantity(24750.0, Dimension.COUNT),
          manufacture_energy=Quantity(3.0, Dimension.MASS)),
     "nimh: energy density must be energy_density, got count"),
    (dict(pack_mass=quantity(330, "kWh")), "nimh: pack mass must be mass, got energy"),
    (dict(pack_capacity=Quantity(25000.0, Dimension.COUNT)),
     "nimh: pack capacity must be energy, got count"),
    (dict(manufacture_energy=quantity(3, "kg")),
     "nimh: manufacture energy must be energy, got mass"),
])
def test_battery_chemistry_checks_dimensions(change, message):
    _both_ways(BatteryChemistry, {**NIMH, **change}, DimensionMismatch, message)
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):  # and a copy
        builtin_chemistry("nimh")._replace(**change)


def test_ev_model_checks():
    _both_ways(EvModel, dict(name="x", power=None, max_speed=None, range_mi=(50.0, 40.0)),
               InvalidReferenceData, "x: bad range interval (50.0, 40.0)")
    model = EvModel("x", None, None, (1.0, 5.0))
    for copy in (lambda: model._replace(range_mi=(5.0, 1.0)),
                 lambda: EvModel._make(["x", None, None, (5.0, 1.0)])):
        with pytest.raises(InvalidReferenceData, match=r"^x: bad range interval \(5\.0, 1\.0\)$"):
            copy()


def _sweep(values=None, start=None, stop=None, step=None, path="strategy.renewable_share"):
    """A ``SweepSpec``'s fields in declared order, for ``_both_ways``."""
    return dict(path=path, values=values, start=start, stop=stop, step=step)


_UNKNOWN_PATH = ("unknown parameter path 'strategy.cloudiness'; known: "
                 + ", ".join(sorted(OVERRIDE_PATHS)))


@pytest.mark.parametrize("kwargs, error, message", [
    (_sweep((0.5,), 0.0, 1.0, 0.5), InvalidSweep,
     "sweep has both values and from/to/step; pick one"),
    (_sweep((0.5,), 0.0), InvalidSweep, "sweep has both values and from/to/step; pick one"),
    (_sweep(), InvalidSweep, "sweep needs either values or all of from/to/step"),
    (_sweep(None, 0.0, 1.0), InvalidSweep, "sweep needs either values or all of from/to/step"),
    (_sweep(()), InvalidSweep, "sweep needs at least one value"),
    # empty values are reported before an unknown path
    (_sweep((), path="strategy.cloudiness"), InvalidSweep, "sweep needs at least one value"),
    (_sweep(None, 0.0, math.inf, 1.0), InvalidSweep,
     "sweep from/to/step must be finite, got 0.0, inf, 1.0"),
    (_sweep(None, math.nan, 1.0, 0.5), InvalidSweep,
     "sweep from/to/step must be finite, got nan, 1.0, 0.5"),
    (_sweep(None, 0.1, 0.3, 0.0), InvalidSweep, "sweep step must be nonzero"),
    (_sweep(None, 0.3, 0.1, 0.1), InvalidSweep, "step 0.1 never reaches 0.1 from 0.3"),
    (_sweep(None, 0.0, 1e6, 1.0), InvalidSweep,
     "sweep from 0.0 to 1000000.0 by 1.0 has more than 1000000 points"),
    # a bad progression is reported before an unknown path
    (_sweep(None, 0.0, 1e6, 1.0, path="strategy.cloudiness"), InvalidSweep,
     "sweep from 0.0 to 1000000.0 by 1.0 has more than 1000000 points"),
    (_sweep((0.5,), path="strategy.cloudiness"), UnknownParameter, _UNKNOWN_PATH),
    (_sweep(None, 0.0, 1.0, 0.5, path="strategy.cloudiness"), UnknownParameter, _UNKNOWN_PATH),
])
def test_sweep_spec_checks(kwargs, error, message):
    _both_ways(SweepSpec, kwargs, error, message)


def test_checks_keep_the_declared_defaults():
    assert EvModel("x") == EvModel(name="x", power=None, max_speed=None, range_mi=None)
    spec = SweepSpec("strategy.renewable_share", (0.5,))
    assert (spec.start, spec.stop, spec.step) == (None, None, None)
    assert type(spec) is SweepSpec


def test_negative_zero_is_normalised():
    for q in (Quantity(-0.0, Dimension.ENERGY),
              Quantity(magnitude=-0.0, dimension=Dimension.MASS)):
        assert math.copysign(1.0, q.magnitude) == 1.0


def test_field_section_and_key_come_from_the_path():
    for f in FIELDS:
        section, _, key = f.path.partition(".")
        assert (f.section, f.key) == (section, key)


@pytest.mark.parametrize("name", ["paper-2005", "paper-2001"])
def test_apply_override_keeps_the_record_types(name):
    s = load_builtin_scenario(name)
    basis = type(s.fleet_basis)
    assert basis in (SharesBasis, GallonsBasis)
    for path, field in OVERRIDE_PATHS.items():
        if field.owner in (SharesBasis, GallonsBasis) and field.owner is not basis:
            continue
        out = apply_override(s, path, quantity(1, "TWh") if field.dim is Dimension.ENERGY
                             else 1.0 if field.dim is None
                             else Quantity(0.5, field.dim))
        assert type(out) is Scenario, path
        assert type(out.fleet_basis) is basis, path
