"""The catalog-median per-EV energy is a constant, and a progression sweep
is written back as its from/to/step."""

import evdemand.scenario as scenario_mod
from evdemand.scenario import (
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
    assert len(s.sweep_spec.points) == 10001
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
    vals = SweepSpec.from_values("strategy.renewable_share", list(prog.points))
    assert prog.points == vals.points
    assert prog.progression == (0.0, 0.5, 0.25) and vals.progression is None
