"""``apply_override`` writes each path at a place looked up once, in
``scenario._PLACES``, and builds the copy with ``tuple.__new__``. On any base
and value it gives the scenario, or the error (class and message), that the
three ``_replace`` branches it replaced give; those branches are kept here as
the reference."""

import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdemand.engine import GallonsBasis, SharesBasis
from evdemand.errors import EvDemandError, UnknownParameter
from evdemand.quantities import Dimension, Quantity, quantity
from evdemand.scenario import (
    _PLACES,
    OVERRIDE_PATHS,
    CatalogMedian,
    ExplicitPerEv,
    PowerRangeSpeed,
    Scenario,
    SweepPoint,
    apply_override,
    load_builtin_scenario,
)

BASES = {SharesBasis: "shares", GallonsBasis: "gallons"}
FIXTURES = {"shares": load_builtin_scenario("paper-2005"),
            "gallons": load_builtin_scenario("paper-2001")}
EV_REFERENCES = {
    "explicit": ExplicitPerEv(quantity(115, "kWh")),
    "power-range-speed": PowerRangeSpeed(quantity(25, "kW"), quantity(200, "mi"),
                                         quantity(50, "mph")),
    "catalog-median": CatalogMedian(),
}


def _reference_override(s, path, value):
    """``apply_override`` as it was written, with one ``_replace`` per owner
    and the fleet basis checked after ``coerce``."""
    if path not in OVERRIDE_PATHS:
        raise UnknownParameter(
            f"unknown parameter path {path!r}; known: {', '.join(sorted(OVERRIDE_PATHS))}")
    field = OVERRIDE_PATHS[path]
    coerced = field.coerce(value)
    if field.owner in BASES and not isinstance(s.fleet_basis, field.owner):
        raise UnknownParameter(f"{path} applies to the {BASES[field.owner]} basis only")
    if field.owner is Scenario:
        return s._replace(**{field.attr: coerced})
    if field.owner is ExplicitPerEv:
        return s._replace(ev_reference=ExplicitPerEv(per_ev=coerced))
    return s._replace(fleet_basis=s.fleet_basis._replace(**{field.attr: coerced}))


def _outcome(override, s, path, value):
    try:
        got = override(s, path, value)
    except EvDemandError as exc:
        return type(exc), str(exc)
    return repr(got), type(got), type(got.fleet_basis), type(got.ev_reference)


# in and out of every field's domain: ints (one too large for a float), zeros,
# nan and the infinities, values of no accepted type, and a quantity of each
# dimension, so of the right one and of every wrong one
values = st.one_of(
    st.sampled_from([0, 1, 4, -1, 10**400, 0.0, -0.0, 0.5, 1.0, 4.0, -1.0, 1e308,
                     float("nan"), float("inf"), -float("inf"), True, None, "0.5"]),
    st.integers(min_value=-10, max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(Quantity, st.floats(min_value=0.0, max_value=1.0), st.sampled_from(Dimension)),
)


@pytest.mark.parametrize("basis, ev, path", itertools.product(
    FIXTURES, EV_REFERENCES, [*sorted(OVERRIDE_PATHS), "ev.power", "fleet.nope"]))
@settings(max_examples=25, deadline=None)
@given(value=values)
def test_an_override_equals_the_replace_branches(basis, ev, path, value):
    s = FIXTURES[basis]._replace(ev_reference=EV_REFERENCES[ev])
    got = _outcome(apply_override, s, path, value)
    assert got == _outcome(_reference_override, s, path, value)


@pytest.mark.parametrize("ev", EV_REFERENCES)
@pytest.mark.parametrize("path", sorted(OVERRIDE_PATHS))
def test_an_in_domain_override_equals_the_replace_branches(ev, path):
    field = OVERRIDE_PATHS[path]
    value = 2 if field.dim is None else 0.5  # in every field's domain
    bases = [s._replace(ev_reference=EV_REFERENCES[ev]) for s in FIXTURES.values()
             if field.owner in (Scenario, ExplicitPerEv) or isinstance(s.fleet_basis,
                                                                       field.owner)]
    assert bases
    for s in bases:
        got = apply_override(s, path, value)
        assert _outcome(apply_override, s, path, value) == _outcome(_reference_override, s,
                                                                    path, value)
        assert got == _reference_override(s, path, value) != s


def test_the_place_table_covers_every_override_path():
    assert set(_PLACES) == set(OVERRIDE_PATHS)


def _default_make_code():
    return collections.namedtuple("Fresh", "a")._make.__func__.__code__


@pytest.mark.parametrize("owner", sorted(
    {Scenario, SweepPoint, *(f.owner for f in OVERRIDE_PATHS.values())},
    key=lambda owner: owner.__name__))
def test_each_record_built_with_tuple_new_keeps_the_default_make(owner):
    # a checking ``_make``, as Quantity's, would be skipped by ``tuple.__new__``
    assert owner._make.__func__.__code__ is _default_make_code()


def test_a_checking_make_is_told_apart():
    assert Quantity._make.__func__.__code__ is not _default_make_code()
