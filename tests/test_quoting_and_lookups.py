"""Write-back refuses text it cannot quote, and the source, override-path and
render-option checks each live in one place."""

import inspect
from pathlib import Path

import pytest

import evdemand.scenario as scenario_mod
from evdemand.errors import (
    EvDemandError,
    InvalidSweep,
    UnknownParameter,
    UnknownScenario,
    UnknownSource,
    UnquotableText,
)
from evdemand.refdata import builtin_dataset, source_group_energy
from evdemand.report import render_sweep
from evdemand.scenario import (
    SweepSpec,
    apply_override,
    load_builtin_scenario,
    load_scenario,
    parse_scenario,
    render_dataset,
    render_scenario,
    sweep,
)
from evdemand.scnformat import quoted, text_literal


def _refuses(call, text):
    with pytest.raises(UnquotableText) as exc:
        call()
    assert isinstance(exc.value, EvDemandError) and isinstance(exc.value, ValueError)
    assert repr(text) in str(exc.value)


def test_name_from_a_file_name_with_a_quote_is_refused(tmp_path):
    path = tmp_path / 'a"b.scn'
    path.write_text("[meta]\ndataset = us2005\n", encoding="utf-8")
    s = load_scenario(path)
    assert s.name == 'a"b'
    _refuses(lambda: render_scenario(s), 'a"b')


@pytest.mark.parametrize("name", ["two\nlines", "cr\rhere", "tail\n", "para\u2029graph"])
def test_name_with_a_line_break_is_refused(name):
    s = load_builtin_scenario("paper-2005")._replace(name=name)
    _refuses(lambda: render_scenario(s), name)


@pytest.mark.parametrize("field", ["id", "year", "mix_year"])
def test_dataset_text_with_a_quote_is_refused(field):
    ds = builtin_dataset("us2005")
    if field == "mix_year":
        ds = ds._replace(mix=ds.mix._replace(year='20"01'))
    else:
        ds = ds._replace(**{field: 'us"2005'})
    bad = ds.mix.year if field == "mix_year" else getattr(ds, field)
    _refuses(lambda: render_dataset(ds), bad)


@pytest.mark.parametrize("name", ["a b", "#1, = x", "Café", "tab\there"])
def test_quotable_names_reload_equal(name):
    s = load_builtin_scenario("paper-2005")._replace(name=name)
    assert parse_scenario(render_scenario(s)) == s


@pytest.mark.parametrize("fields", [["name"], ["id"], ["year"], ["mix_year"],
                                    ["name", "id", "year", "mix_year"]])
def test_empty_text_reloads_as_given(fields):
    s = load_scenario(Path(__file__).parent / "data" / "inline-custom-gallons.scn")
    ds = s.dataset
    for field in fields:
        if field == "name":
            s = s._replace(name="")
        elif field == "mix_year":
            ds = ds._replace(mix=ds.mix._replace(year=""))
        else:
            ds = ds._replace(**{field: ""})
    s = s._replace(dataset=ds)
    assert parse_scenario(render_scenario(s)) == s
    assert parse_scenario(render_dataset(ds)).dataset == ds


def test_text_literal_quotes_only_what_is_not_an_identifier():
    assert text_literal("us2005") == "us2005"
    assert text_literal("us 2005") == quoted("us 2005") == '"us 2005"'
    _refuses(lambda: text_literal('us"2005'), 'us"2005')
    _refuses(lambda: text_literal("us2005\n"), "us2005\n")


@pytest.mark.parametrize("text", [None, 2005, b"us2005"], ids=["None", "int", "bytes"])
def test_a_text_that_is_not_a_str_is_refused(text):
    _refuses(lambda: quoted(text), text)
    _refuses(lambda: text_literal(text), text)
    s = load_builtin_scenario("paper-2005")
    _refuses(lambda: render_scenario(s._replace(name=text)), text)
    _refuses(lambda: render_dataset(s.dataset._replace(id=text)), text)


def test_first_unknown_source_in_order_is_reported():
    mix = builtin_dataset("us2005").mix
    with pytest.raises(UnknownSource) as exc:
        source_group_energy(mix, ["coal", "fusion", "warp"])
    assert str(exc.value) == f"source 'fusion' not in {mix.year} mix"


def test_unknown_sweep_path_fails_before_any_point(monkeypatch):
    s = load_builtin_scenario("paper-2005")
    with pytest.raises(UnknownParameter) as by_override:
        apply_override(s, "strategy.cloudiness", 0.1)

    def refuse(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(scenario_mod, "assess", refuse)
    with pytest.raises(UnknownParameter) as by_sweep:
        sweep(s, SweepSpec.from_values("strategy.cloudiness", [0.1, 0.2]))
    assert str(by_sweep.value) == str(by_override.value)


def test_sweep_spec_checks_its_path_after_its_points():
    with pytest.raises(UnknownParameter, match="unknown parameter path 'strategy.cloudiness'"):
        SweepSpec.from_values("strategy.cloudiness", [0.1])
    with pytest.raises(InvalidSweep, match="at least one value"):
        SweepSpec.from_values("strategy.cloudiness", [])


def test_unknown_builtin_scenario_is_a_typed_key_error():
    with pytest.raises(UnknownScenario) as exc:
        load_builtin_scenario("nope")
    assert isinstance(exc.value, EvDemandError) and isinstance(exc.value, KeyError)
    assert str(exc.value) == ("unknown built-in scenario 'nope'; "
                              "known: paper-2005, paper-2001, bad-mix")


def test_render_sweep_takes_no_digits():
    assert list(inspect.signature(render_sweep).parameters) == ["path", "points", "fmt"]
