"""The catalog-median per-EV energy is a constant, and a sweep is written
back as it was written: a progression as its from/to/step, values as values."""

import pytest

import evdemand.scenario as scenario_mod
from evdemand.engine import GallonsBasis, SharesBasis
from evdemand.quantities import Quantity
from evdemand.scenario import (
    OVERRIDE_PATHS,
    SweepSpec,
    assess,
    load_builtin_scenario,
    parse_scenario,
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


def test_progression_and_values_specs_differ_only_in_origin():
    prog = SweepSpec.from_progression("strategy.renewable_share", 0.0, 0.5, 0.25)
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
                 SweepSpec.from_progression(path, 1.0, 3.0, 0.5)):
        s = fixture._replace(sweep_spec=spec)
        assert parse_scenario(render_scenario(s)) == s
