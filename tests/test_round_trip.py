"""Write-back round trips on generated scenarios: ``render_scenario`` gives a
file that reloads to an equal ``Scenario``, and ``render_dataset`` one that
reloads to an equal inline dataset, or each raises ``UnquotableText`` for
text that file syntax cannot quote, and ``render_scenario`` raises
``UnwritableScenario`` for a value no file holds.

Each scalar is drawn from its ``FIELDS`` entry (dimension, floor and tokens)
and passes that field's own ``coerce``; the shapes chosen by hand (fleet
basis, EV reference, chemistry, method, convention, water pairs and sweep)
have a strategy each. Names, years and dataset ids are free text, the empty
string included. Mix sources, water fuels and a custom chemistry's labels
are those a file holds, with one name or label of free text about one draw
in four, and a built-in scenario's water fuels are its sources, with one
fuel that is not a key, not a source, or given twice about one draw in four,
so most draws still reach the reload. Each example records whether
it was written or refused (``--hypothesis-show-statistics`` shows the share).
"""

import math
import re
import sys

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from evdemand.engine import GallonsBasis, SharesBasis
from evdemand.errors import UnquotableText, UnwritableScenario
from evdemand.quantities import Dimension, Quantity, quantity
from evdemand.refdata import (
    BatteryChemistry,
    GridMix,
    ReferenceDataset,
    builtin_chemistry,
    builtin_dataset,
    chemistry_names,
    dataset_ids,
)
from evdemand.scenario import (
    FIELDS,
    OVERRIDE_PATHS,
    CatalogMedian,
    Convention,
    ExplicitPerEv,
    Method,
    PowerRangeSpeed,
    Scenario,
    SweepSpec,
    parse_scenario,
    render_dataset,
    render_scenario,
)

# a [mix] or [water] key, and an identifier value (a custom chemistry's name)
_KEY, _IDENT = r"[A-Za-z_][A-Za-z0-9_-]*", r"[A-Za-z_][A-Za-z0-9_.-]*"
_KEYS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,11}", fullmatch=True)
_IDENTS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,11}", fullmatch=True)
_USER_SUPPLIED = "user supplied"  # both notes of a chemistry built from pack fields


def _not_key(name: str) -> bool:
    return not re.fullmatch(_KEY, name)


def _sometimes(strategy):
    """A list of one draw of ``strategy`` about one time in four, else empty."""
    return st.integers(0, 3).flatmap(
        lambda i: st.tuples(strategy).map(list) if i == 3 else st.just([]))


def _magnitudes(dim):
    """Finite canonical magnitudes a ``Quantity`` of ``dim`` may hold."""
    top = 1.0 if dim is Dimension.FRACTION else None
    return st.floats(0.0, top, allow_nan=False, allow_infinity=False)


def _quantities(dim):
    return _magnitudes(dim).map(lambda m: Quantity(m, dim))


def _value(f):
    """A checked value of field ``f``: a finite magnitude at or above its
    floor, or one of its tokens."""
    if f.dim is None:
        return st.floats(min_value=f.floor, allow_infinity=False).map(f.coerce)
    magnitudes = _magnitudes(f.dim)
    if f.tokens:
        magnitudes |= st.sampled_from(list(f.tokens.values()))
    return magnitudes.map(f.coerce)


def _owned(owner, **fixed):
    """An ``owner`` whose table fields are drawn and the others ``fixed``."""
    return st.fixed_dictionaries({f.attr: _value(f) for f in FIELDS if f.owner is owner}) \
        .map(lambda drawn: owner(**drawn, **fixed))


@st.composite
def _mix(draw):
    sources = draw(st.lists(_KEYS, min_size=1, max_size=6, unique=True))
    sources += draw(_sometimes(st.text().filter(_not_key)))
    weights = draw(st.lists(st.integers(0, 100), min_size=len(sources),
                            max_size=len(sources)).filter(any))
    entries = tuple((name, w / sum(weights)) for name, w in zip(sources, weights))
    return draw(_owned(GridMix, year=draw(st.text()), entries=entries))


def _water(sources):
    """Pairs of distinct fuels among ``sources`` and their intensities."""
    return st.lists(st.sampled_from(sources), unique=True).flatmap(lambda fuels: st.tuples(
        *(st.tuples(st.just(fuel), _quantities(Dimension.WATER_INTENSITY)) for fuel in fuels)))


@st.composite
def inline_datasets(draw):
    mix = draw(_mix())
    ds_id = draw(st.text())
    year = draw(st.one_of(st.just(mix.year), st.text()))
    water = dict(draw(_water(mix.sources())))
    return draw(_owned(ReferenceDataset, id=ds_id, year=year, mix=mix, water_intensity=water))


@st.composite
def _custom_chemistry(draw):
    """A chemistry with a capacity that agrees with density x mass. The name
    is an identifier, or any text, which a file cannot name a chemistry by
    unless it is one; the display name and the notes are those the loader
    gives a chemistry built from pack fields (its name and "user supplied"),
    or about one time in four one of them is any text, which a file cannot
    state."""
    name = draw((_IDENTS | st.text()).filter(lambda n: n not in chemistry_names()))
    labels = [name, _USER_SUPPLIED, _USER_SUPPLIED]
    for text in draw(_sometimes(st.text())):
        labels[draw(st.integers(0, 2))] = text
    display_name, *notes = labels
    density = Quantity(draw(st.floats(1e-3, 1e4)), Dimension.ENERGY_DENSITY)
    mass = Quantity(draw(st.floats(1e-6, 1e3)), Dimension.MASS)
    capacity = density.canonical * mass.in_unit("kg") * draw(st.floats(0.99, 1.01))
    manufacture = draw(_quantities(Dimension.ENERGY).filter(lambda q: q.canonical > 0))
    return BatteryChemistry(name=name, display_name=display_name, energy_density=density,
                            pack_mass=mass, pack_capacity=Quantity(capacity, Dimension.ENERGY),
                            manufacture_energy=manufacture, emissions_note=notes[0],
                            recycling_note=notes[1])


def _sweep_value(dim):
    # every float, NaN and infinities included, and ints of any size: a file
    # writes an infinity as 1e400, and has no literal for a NaN or an int a
    # float does not hold
    numbers = st.floats() | st.integers() | st.sampled_from([2**53 + 1, 2**1100, -2**1100])
    return numbers | st.sampled_from([dim or Dimension.COUNT, *Dimension]).flatmap(_quantities)


@st.composite
def _sweep(draw, basis):
    path = draw(st.sampled_from([path for path, f in OVERRIDE_PATHS.items()
                                 if f.owner not in (SharesBasis, GallonsBasis)
                                 or f.owner is type(basis)]))
    if draw(st.booleans()):
        values = draw(st.lists(_sweep_value(OVERRIDE_PATHS[path].dim), min_size=1, max_size=5))
        return SweepSpec(path, values)
    bound = st.floats(-1e6, 1e6) | st.integers(-10**6, 10**6)
    start = draw(bound)
    step = draw(st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.integers(1, 100))
    stop = start + draw(st.integers(0, 300)) * step
    return SweepSpec(path, start=start, stop=stop, step=step)


@st.composite
def scenarios(draw):
    dataset = draw(st.sampled_from([builtin_dataset(i) for i in dataset_ids()])
                   | inline_datasets())
    if dataset.id in dataset_ids() and builtin_dataset(dataset.id) == dataset:
        # its sources, and about one time in four a fuel no file can hold: one
        # that is not a key, a key that is not a source, or a fuel given twice
        sources = dataset.mix.sources()
        water = draw(_water(sources))
        stray = st.text().filter(_not_key) | _KEYS.filter(lambda k: k not in sources)
        if water:
            stray |= st.sampled_from([fuel for fuel, _ in water])
        water += tuple((fuel, draw(_quantities(Dimension.WATER_INTENSITY)))
                       for fuel in draw(_sometimes(stray)))
    else:  # an inline dataset's [water] section is its water intensities
        water = tuple(dataset.water_intensity.items())
    basis = draw(st.one_of(_owned(SharesBasis), _owned(GallonsBasis)))
    return draw(_owned(
        Scenario,
        name=draw(st.text()),
        dataset=dataset,
        fleet_basis=basis,
        ev_reference=draw(st.one_of(st.just(CatalogMedian()), _owned(ExplicitPerEv),
                                    _owned(PowerRangeSpeed))),
        chemistry=draw(st.sampled_from([builtin_chemistry(n) for n in chemistry_names()])
                       | _custom_chemistry()),
        method=draw(st.sampled_from(Method)),
        convention=draw(st.sampled_from(Convention)),
        water=water,
        sweep_spec=draw(st.none() | _sweep(basis)),
    ))


def _unquotable(*texts: str) -> bool:
    return any('"' in t or len(f"{t}.".splitlines()) > 1 for t in texts)


def _texts(ds: ReferenceDataset) -> tuple[str, ...]:
    return ds.id, ds.year, ds.mix.year


def _has_no_literal(v) -> bool:
    """Whether a sweep value has no literal: a count quantity, which a file
    writes bare, a NaN, or an int a float does not hold."""
    if isinstance(v, Quantity):
        return v.dimension is Dimension.COUNT
    if isinstance(v, int):
        return abs(v) > sys.float_info.max or float(v) != v
    return math.isnan(v)


def _unwritable_dataset(ds: ReferenceDataset) -> bool:
    """Whether a file cannot hold ``ds`` inline: a mix source or water fuel
    is not a key."""
    return any(map(_not_key, [*ds.mix.sources(), *ds.water_intensity]))


def _unwritable(s: Scenario) -> bool:
    """Whether no file can hold ``s``: a mix source or water fuel that is not
    a key, a water fuel that is not a source or is given twice, a custom
    chemistry whose name is not an identifier or whose display name and
    notes are not those the loader gives it, or a sweep value with no literal."""
    c, spec, fuels = s.chemistry, s.sweep_spec, [fuel for fuel, _ in s.water]
    return (any(map(_not_key, fuels)) or _unwritable_dataset(s.dataset)
            or not set(fuels) <= set(s.dataset.mix.sources()) or len(set(fuels)) < len(fuels)
            or not re.fullmatch(_IDENT, c.name)
            or c.name not in chemistry_names()
            and (c.display_name, c.emissions_note, c.recycling_note)
            != (c.name, _USER_SUPPLIED, _USER_SUPPLIED)
            or spec is not None and spec.values is not None
            and any(map(_has_no_literal, spec.values)))


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_a_written_scenario_reloads_equal(s):
    try:
        text = render_scenario(s)
    except UnquotableText:
        event("refused: unquotable")
        assert _unquotable(s.name, *_texts(s.dataset))
        return
    except UnwritableScenario:
        event("refused: unwritable")
        assert _unwritable(s)
        return
    event("written")
    assert not _unwritable(s)
    assert parse_scenario(text) == s


@settings(max_examples=140, deadline=None)
@given(inline_datasets())
# 1e25 gal was once written as "1e+16e9 gal", which raised a bare ValueError
@example(builtin_dataset("us2005")._replace(id="mine", household_gasoline=quantity(1e25, "gal")))
def test_a_written_dataset_reloads_equal(ds):
    try:
        text = render_dataset(ds)
    except UnquotableText:
        event("refused: unquotable")
        assert _unquotable(*_texts(ds))
        return
    except UnwritableScenario:
        event("refused: unwritable")
        assert _unwritable_dataset(ds)
        return
    event("written")
    assert not _unwritable_dataset(ds)
    assert parse_scenario(text).dataset == ds
