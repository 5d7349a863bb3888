"""``assess`` runs in stages, and a sweep point reruns only the stages its
path feeds: every point must equal a full ``assess`` of the overridden
scenario, result for result and error for error."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_assess_floats import FIXTURES, drawn_scenario, fractions, magnitudes
from test_override import _reference_override

from evdemand import engine, scenario
from evdemand.errors import EvDemandError, InvalidSweep, UnknownParameter
from evdemand.scenario import (
    _RERUNS,
    _STAGES,
    FIELDS,
    OVERRIDE_PATHS,
    Assessment,
    Convention,
    ExplicitPerEv,
    Method,
    Scenario,
    SweepPoint,
    SweepSpec,
    apply_override,
    assess,
    iter_sweep,
    load_builtin_scenario,
)

PAPER_2005 = load_builtin_scenario("paper-2005")


def _full(s, path, value):
    """The point a full ``assess`` of the overridden scenario gives."""
    try:
        return SweepPoint(value, assess(apply_override(s, path, value)))
    except EvDemandError as exc:
        return SweepPoint(value, None, str(exc))


# beside any magnitude or fraction: negative, not finite, and the floor and
# default of batteries_per_ev
sweep_values = st.one_of(magnitudes, fractions,
                         st.sampled_from([-1.0, float("nan"), float("inf"), 1.0, 4.0]))


@pytest.mark.parametrize("basis, path, method, convention", itertools.product(
    FIXTURES, sorted(OVERRIDE_PATHS), Method, Convention))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_a_sweep_point_equals_a_full_assess(basis, path, method, convention, data):
    ev = data.draw(st.sampled_from(["explicit", "power-range-speed", "catalog-median"]))
    s = drawn_scenario(data.draw, basis, method, convention, ev)
    values = data.draw(st.lists(sweep_values, min_size=1, max_size=4))
    got = list(iter_sweep(s, SweepSpec(path, values)))
    assert repr(got) == repr([_full(s, path, v) for v in values])


def test_a_base_that_fails_assesses_each_point_in_full():
    s = apply_override(PAPER_2005, "strategy.baseline_generation", 0.0)
    with pytest.raises(EvDemandError):
        assess(s)
    values = [0.0, 4055e12]
    points = list(iter_sweep(s, SweepSpec("strategy.baseline_generation", values)))
    assert points[0].error == "baseline generation must be positive"
    assert points[1].assessment is not None
    assert repr(points) == repr([_full(s, "strategy.baseline_generation", v) for v in values])


@pytest.mark.parametrize("change, error, message", [
    ({"path": "strategy.cloud"}, UnknownParameter, "unknown parameter path 'strategy.cloud'"),
    ({"values": ()}, InvalidSweep, "sweep needs at least one value"),
    ({"values": None}, InvalidSweep, "sweep needs either values or all of from/to/step"),
])
def test_a_sweep_spec_copy_is_checked(change, error, message):
    """``_replace`` builds its copy with ``_make``, which checks it as the
    constructor does, so no sweep reaches ``iter_sweep`` with a path or
    values the constructor would reject."""
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        SweepSpec("strategy.renewable_share", [0.1, 0.2])._replace(**change)


BOTH, A, B = Method.BOTH, Method.A, Method.B


@pytest.mark.parametrize("path, method, counted, calls", [
    ("strategy.renewable_share", BOTH, "fleet_energy", 1),
    ("strategy.renewable_share", BOTH, "_carbon_intensity", 1),
    ("strategy.baseline_generation", BOTH, "_battery_demand_method_b", 1),
    ("battery.batteries_per_ev", BOTH, "fleet_energy", 1),
    ("fleet.fuel_share", BOTH, "_carbon_intensity", 1),
    ("fleet.fuel_share", BOTH, "fleet_energy", 101),
    # each stage writes only what depends on all it reads: the deficit does
    # not read the renewable share, nor water or method B the batteries per EV
    ("strategy.renewable_share", BOTH, "_capacity_deficit", 1),
    ("battery.batteries_per_ev", BOTH, "_water_use", 2),  # paper-2005 has two water fuels
    ("battery.batteries_per_ev", BOTH, "_battery_demand_method_b", 1),
    ("strategy.baseline_generation", BOTH, "_renewable_supply", 101),
    # the renewable supply has its own stage, which no fleet path feeds
    ("fleet.fuel_share", BOTH, "_renewable_supply", 1),
    # the totals read method B's demand whenever it is computed, so only
    # under method A do the batteries or energy per EV reach them
    ("battery.batteries_per_ev", BOTH, "_total_additional_energy", 1),
    ("battery.batteries_per_ev", B, "_total_additional_energy", 1),
    ("battery.batteries_per_ev", A, "_total_additional_energy", 101),
    ("ev.per_ev_energy", BOTH, "_capacity_deficit", 1),
    ("ev.per_ev_energy", B, "_capacity_deficit", 1),
    ("ev.per_ev_energy", A, "_capacity_deficit", 101),
])
def test_a_sweep_reruns_only_what_its_path_feeds(monkeypatch, path, method, counted, calls):
    """The base is assessed once; 100 points call ``counted`` again only if
    their path feeds it under the scenario's method."""
    real = getattr(engine, counted)
    made = []

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(engine, counted, counting)
    values = [k / 100 + (path == "battery.batteries_per_ev") for k in range(1, 101)]
    points = list(iter_sweep(PAPER_2005._replace(method=method), SweepSpec(path, values)))
    assert all(p.assessment is not None for p in points)
    assert len(made) == calls


def test_every_override_path_reaches_a_stage_that_reads_it():
    """Each (path, method) plan holds every stage that reads the path under
    that method, in ``assess`` order; every path is read under some method."""
    assert set(_RERUNS) == set(itertools.product(OVERRIDE_PATHS, Method))
    for path in OVERRIDE_PATHS:
        assert any(path in stage.reads[m] for stage in _STAGES for m in Method), path
        for method in Method:
            plan = _RERUNS[path, method]
            readers = [stage for stage in _STAGES if path in stage.reads[method]]
            assert set(readers) <= set(plan), (path, method)
            assert list(plan) == sorted(plan, key=_STAGES.index), (path, method)


@pytest.mark.parametrize("name, method", itertools.product(["paper-2005", "paper-2001"], Method))
def test_a_point_shares_every_output_its_plan_does_not_write_with_the_base(
        monkeypatch, name, method):
    """The sweep writer keeps a column's text only while its value is the
    previous point's very object, so every ``Assessment`` field a plan does
    not write must be the base assessment's own object."""
    real, bases = scenario._evaluate, []

    def recording(s, runs, record):
        a = real(s, runs, record)
        if runs is _STAGES:
            bases.append(a)
        return a

    monkeypatch.setattr(scenario, "_evaluate", recording)
    s = load_builtin_scenario(name)._replace(method=method)
    for path, field in OVERRIDE_PATHS.items():
        bases.clear()
        values = [2, 3] if field.dim is None else [0.5, 0.25]  # in every field's domain
        points = list(iter_sweep(s, SweepSpec(path, values)))
        if field.owner not in (Scenario, ExplicitPerEv, type(s.fleet_basis)):
            assert all(p.assessment is None for p in points), path  # the other basis
            continue
        [base] = bases
        written = {"scenario"}.union(*(stage.writes for stage in _RERUNS[path, method]))
        for point in points:
            for f in set(Assessment._fields) - written:
                assert getattr(point.assessment, f) is getattr(base, f), (path, f)


def test_stages_read_fields_or_earlier_outputs_and_write_the_assessment():
    fields = {f.path for f in FIELDS}
    written = ["scenario"]
    for stage in _STAGES:
        for method in Method:
            assert stage.reads[method] <= fields | set(written), (stage.__name__, method)
        written += stage.writes
    assert len(written) == len(set(written))
    assert set(Assessment._fields) <= set(written)


@pytest.mark.parametrize("path, good, bad", [
    ("battery.batteries_per_ev", (2.0, 3.0), 0.5),  # fails in the override
    ("fleet.total_energy", (2.9e16, 3.1e16), float("nan")),
    ("ev.per_ev_energy", (25000.0, 30000.0), 0.0),  # fails in a stage
])
def test_a_failing_value_between_two_good_ones_leaves_their_scenarios_intact(path, good, bad):
    """The override is bound once per sweep; no value leaves anything behind in it."""
    before = repr(PAPER_2005)
    points = list(iter_sweep(PAPER_2005, SweepSpec(path, [good[0], bad, good[1]])))
    assert points[1].assessment is None and points[1].error
    for point, value in zip(points[::2], good):
        assert point.assessment.scenario == _reference_override(PAPER_2005, path, value)
        assert point.assessment == assess(point.assessment.scenario)
    assert points[0].assessment.scenario != points[2].assessment.scenario
    assert repr(PAPER_2005) == before


class _LoggedRecord(dict):
    """A stage record that logs each key read from it."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name, method, convention", itertools.product(
    ["paper-2005", "paper-2001"], Method, Convention))
def test_each_stage_reads_only_the_outputs_it_declares(name, method, convention):
    """A sweep point takes every output its path does not change from the
    base, so an undeclared read would leave the point silently stale; the
    reads are checked against what the stage declares for the method."""
    s = load_builtin_scenario(name)._replace(method=method, convention=convention)
    record = _LoggedRecord()
    for stage in _STAGES:
        record.read.clear()
        had = set(record)
        stage(s, record)
        assert record.read <= stage.reads[method], stage.__name__
        assert set(record) - had == set(stage.writes), stage.__name__
