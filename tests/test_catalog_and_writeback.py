"""The catalog-median per-EV energy is a constant, a sweep is written back
as it was written (a progression as its from/to/step, values as values), and
a scenario no file can hold is refused rather than written."""

import re

import pytest

import evdemand.scenario as scenario_mod
from evdemand.engine import GallonsBasis, SharesBasis
from evdemand.errors import EvDemandError, ParseError, UnwritableScenario, ValidationError
from evdemand.quantities import Dimension, Quantity, quantity
from evdemand.refdata import ReferenceDataset, builtin_chemistry, builtin_dataset
from evdemand.scnformat import literal
from evdemand.scenario import (
    OVERRIDE_PATHS,
    ExplicitPerEv,
    SweepSpec,
    assess,
    load_builtin_scenario,
    parse_scenario,
    render_dataset,
    render_scenario,
)


def test_catalog_median_assess_reads_a_constant(monkeypatch):
    s = load_builtin_scenario("paper-2005")
    expected = assess(s)

    def refuse(*args):
        raise AssertionError("catalog_stats called during assess")

    monkeypatch.setattr(scenario_mod, "catalog_stats", refuse)
    a = assess(s)
    assert a.per_ev_energy == expected.per_ev_energy
    assert a == expected


def test_progression_writes_back_as_from_to_step():
    text = ("[meta]\nname = \"fine\"\ndataset = us2005\n"
            "[sweep]\npath = strategy.renewable_share\nfrom = 0\nto = 1\nstep = 0.0001\n")
    s = parse_scenario(text)
    assert sum(1 for _ in s.sweep_spec.points()) == 10001
    back = render_scenario(s)
    assert len(back.encode("utf-8")) < 1024
    assert "from = 0.0\nto = 1.0\nstep = 0.0001\n" in back
    assert "values" not in back
    assert parse_scenario(back) == s


def test_values_sweep_still_writes_values():
    s = parse_scenario("[meta]\nname = \"v\"\ndataset = us2005\n"
                       "[sweep]\npath = strategy.renewable_share\nvalues = 0.1, 0.2\n")
    back = render_scenario(s)
    assert "values = 0.1, 0.2\n" in back and "from" not in back
    assert parse_scenario(back) == s


def test_an_infinite_sweep_value_writes_back_as_a_file_writes_it():
    s = parse_scenario("[meta]\ndataset = us2005\n"
                       "[sweep]\npath = battery.batteries_per_ev\nvalues = 1, 1e400, -1e400\n")
    back = render_scenario(s)
    assert "values = 1.0, 1e400, -1e400\n" in back
    assert parse_scenario(back) == s


def test_progression_and_values_specs_differ_only_in_origin():
    prog = SweepSpec("strategy.renewable_share", start=0.0, stop=0.5, step=0.25)
    vals = SweepSpec.from_values("strategy.renewable_share", list(prog.points()))
    assert list(prog.points()) == list(vals.points())
    assert (prog.values, prog.start, prog.stop, prog.step) == (None, 0.0, 0.5, 0.25)
    assert vals.values == (0.0, 0.25, 0.5) and vals[2:] == (None, None, None)


# each path on the fixture of its fleet basis; the others on both fixtures
_FIXTURE_PATHS = [(name, path) for name, basis in (("paper-2005", SharesBasis),
                                                   ("paper-2001", GallonsBasis))
                  for path, field in OVERRIDE_PATHS.items()
                  if field.owner not in (SharesBasis, GallonsBasis) or field.owner is basis]


@pytest.mark.parametrize("name, path", _FIXTURE_PATHS)
def test_every_override_path_writes_back_both_sweep_shapes(name, path):
    dim = OVERRIDE_PATHS[path].dim
    fixture = load_builtin_scenario(name)
    for spec in (SweepSpec.from_values(path, [0.25, 2.0 if dim is None else Quantity(0.5, dim)]),
                 SweepSpec(path, start=1.0, stop=3.0, step=0.5)):
        s = fixture._replace(sweep_spec=spec)
        assert parse_scenario(render_scenario(s)) == s


_PAPER_2005 = load_builtin_scenario("paper-2005")


@pytest.mark.parametrize("s, part", [
    # a file names a built-in chemistry only, so this would reload with 7,176 kWh
    (_PAPER_2005._replace(chemistry=builtin_chemistry("nimh")._replace(
        manufacture_energy=quantity(1, "kWh"))),
     "its chemistry would reload as another value"),
    # an inline dataset's [water] section is its intensities: coal 480, gas 180
    (_PAPER_2005._replace(dataset=_PAPER_2005.dataset._replace(id="mine"),
                          water=(("coal", quantity(1, "gal/MWh")),)),
     "its water would reload as another value"),
    # a file writes a count bare, and a bare number reloads as a float
    (_PAPER_2005._replace(sweep_spec=SweepSpec("battery.batteries_per_ev", [
        2.0, Quantity(3.0, Dimension.COUNT)])), "count quantity 3.0 has no literal"),
    # a file has no NaN, and no literal for an int beyond or between floats
    *((_PAPER_2005._replace(sweep_spec=SweepSpec("battery.batteries_per_ev", [2.0, v])),
       f"number {v!r} has no literal") for v in (float("nan"), 2**1100, 2**53 + 1)),
    # a file names a chemistry by an identifier
    (_PAPER_2005._replace(chemistry=builtin_chemistry("nimh")._replace(
        name="my pack", display_name="my pack")),
     "the file would not reload: unrecognized value 'my pack'"),
], ids=["builtin-chemistry-changed", "inline-water-differs", "count-sweep-value",
        "nan-sweep-value", "int-beyond-floats", "int-between-floats", "chemistry-not-an-ident"])
def test_a_scenario_no_file_can_hold_is_refused(s, part):
    with pytest.raises(UnwritableScenario, match=f"^{part}") as exc:
        render_scenario(s)
    assert isinstance(exc.value, EvDemandError) and isinstance(exc.value, ValueError)


_DATASET = _PAPER_2005.dataset._replace(id="mine")  # written inline
_SHARES = _DATASET.mix.entries


def _inline_mix(*entries):
    return _DATASET._replace(mix=_DATASET.mix._replace(entries=entries))


# each was once written, and the file failed to reload or reloaded unequal
@pytest.mark.parametrize("obj, part", [
    (_PAPER_2005._replace(water=(("wind", quantity(1, "gal/MWh")),)),
     "the file would not reload: water fuel 'wind' is not a source in the grid mix"),
    (_PAPER_2005._replace(water=(("coal", quantity(1, "gal/MWh")),) * 2),
     r"\[water\] 'coal' is given twice"),
    (_DATASET._replace(water_intensity={"wind": quantity(1, "gal/MWh")}),
     "the file would not reload: water fuel 'wind' is not a source in the grid mix"),
    (_PAPER_2005._replace(water=(("coal", quantity(1, "kWh")),)),
     r"the file would not reload: line \d+: coal must be water_intensity, got energy"),
    (_inline_mix((_SHARES[0][0], 1.5), *_SHARES[1:]),
     "the file would not reload: bad quantity literal '1.5 frac'"),
    (_inline_mix((_SHARES[0][0], _SHARES[0][1] - 0.1), *_SHARES[1:]),
     r"the file would not reload: \[mix\] shares sum to 0.9"),
    (_inline_mix(*_SHARES, _SHARES[0]), r"\[mix\] 'coal' is given twice"),
    (_PAPER_2005._replace(batteries_per_ev=0.5),
     r"the file would not reload: line \d+: battery.batteries_per_ev must be >= 1"),
    (_PAPER_2005._replace(fleet_basis=_PAPER_2005.fleet_basis._replace(
        total_energy=quantity(1, "t"))),
     r"the file would not reload: line \d+: total_energy must be energy, got mass"),
    (_PAPER_2005._replace(ev_reference=ExplicitPerEv(per_ev=quantity(1, "kW"))),
     r"the file would not reload: line \d+: per_ev_energy must be energy, got power"),
    (_PAPER_2005._replace(renewable_share=quantity(1, "TWh")),
     r"the file would not reload: line \d+: renewable_share must be fraction, got energy"),
    # a bare number reloads as a fraction quantity, unequal
    (_PAPER_2005._replace(renewable_share=0.3),
     "its renewable_share would reload as another value"),
    (_DATASET._replace(co2_total=quantity(1, "TWh")),
     r"the file would not reload: line \d+: co2_total must be mass, got energy"),
    (_PAPER_2005._replace(sweep_spec=SweepSpec("fleet.gallons", [1e9])),
     r"the file would not reload: \[sweep\] fleet.gallons applies to the gallons basis only"),
], ids=["water-fuel-not-a-source", "water-fuel-twice", "inline-water-fuel-not-a-source",
        "water-intensity-in-kWh", "mix-share-1.5", "mix-sums-to-0.9", "mix-source-twice",
        "batteries-per-ev-0.5", "total-energy-in-t", "per-ev-energy-in-kW",
        "renewable-share-in-TWh", "renewable-share-bare", "co2-total-in-TWh",
        "sweep-gallons-on-shares"])
def test_what_the_loader_refuses_is_not_written(obj, part):
    render = render_dataset if isinstance(obj, ReferenceDataset) else render_scenario
    with pytest.raises(UnwritableScenario, match=f"^{part}"):
        render(obj)


# each file fails to reload, and the loader's error is kept as the cause
@pytest.mark.parametrize("obj", [
    _PAPER_2005._replace(chemistry=builtin_chemistry("nimh")._replace(
        name="my pack", display_name="my pack")),
    _PAPER_2005._replace(water=(("wind", quantity(1, "gal/MWh")),)),
    _DATASET._replace(water_intensity={"wind": quantity(1, "gal/MWh")}),
    _PAPER_2005._replace(water=(("coal", quantity(1, "kWh")),)),
    _inline_mix((_SHARES[0][0], 1.5), *_SHARES[1:]),
    _inline_mix((_SHARES[0][0], _SHARES[0][1] - 0.1), *_SHARES[1:]),
    _PAPER_2005._replace(batteries_per_ev=0.5),
    _PAPER_2005._replace(fleet_basis=_PAPER_2005.fleet_basis._replace(
        total_energy=quantity(1, "t"))),
    _PAPER_2005._replace(ev_reference=ExplicitPerEv(per_ev=quantity(1, "kW"))),
    _PAPER_2005._replace(renewable_share=quantity(1, "TWh")),
    _DATASET._replace(co2_total=quantity(1, "TWh")),
    _PAPER_2005._replace(sweep_spec=SweepSpec("fleet.gallons", [1e9])),
], ids=["chemistry-not-an-ident", "water-fuel-not-a-source", "inline-water-fuel-not-a-source",
        "water-intensity-in-kWh", "mix-share-1.5", "mix-sums-to-0.9", "batteries-per-ev-0.5",
        "total-energy-in-t", "per-ev-energy-in-kW", "renewable-share-in-TWh",
        "co2-total-in-TWh", "sweep-gallons-on-shares"])
def test_a_file_that_would_not_reload_is_refused_with_the_loader_error(obj):
    render = render_dataset if isinstance(obj, ReferenceDataset) else render_scenario
    with pytest.raises(UnwritableScenario, match="^the file would not reload: ") as exc:
        render(obj)
    assert type(exc.value.__cause__) in (ParseError, ValidationError)
    assert str(exc.value) == f"the file would not reload: {exc.value.__cause__}"


# the first would reload to an equal dataset, with a [fleet] section written
# into the file; the others would not reload, as the reader splits lines at
# each of these breaks
@pytest.mark.parametrize("comment", ["x\n[fleet]\nbasis = gallons", "x\nnot a comment",
                                     "x\rnot a comment", "x\u2028not a comment"])
def test_a_comment_of_more_than_one_line_is_refused(comment):
    with pytest.raises(UnwritableScenario, match="^comment .* holds a line break"):
        render_dataset(builtin_dataset("us2005"), comments=[comment])


# a value that is not an int or a float (a bool included, as FieldSpec.coerce and
# Quantity refuse it) has no literal, in a bare field or a quantity field alike
@pytest.mark.parametrize("value", [None, "abc", "1", b"1", [1.0], 1 + 2j, True],
                         ids=["None", "str", "digit-str", "bytes", "list", "complex", "bool"])
@pytest.mark.parametrize("write", [
    literal,
    lambda v: render_scenario(_PAPER_2005._replace(batteries_per_ev=v)),
    lambda v: render_dataset(builtin_dataset("us2005")._replace(co2_total=v)),
], ids=["literal", "render_scenario", "render_dataset"])
def test_a_value_that_is_not_a_number_has_no_literal(write, value):
    with pytest.raises(UnwritableScenario, match=f"^{re.escape(repr(value))} is not a number$"):
        write(value)
