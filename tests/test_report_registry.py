"""The reproduction registry and its cells, and the typed error every
renderer raises for an option it does not know."""

import pytest

from evdemand.errors import EvDemandError, InvalidRenderOption, UnknownTarget
from evdemand.quantities import Dimension, Quantity, format_quantity
from evdemand.report import (
    TARGET_IDS,
    CellResult,
    render,
    render_comparisons,
    render_sweep,
    reproduce,
)
from evdemand.scenario import assess, load_builtin_scenario


@pytest.fixture(scope="module")
def all_results():
    return reproduce()


def _raises_typed(call, text):
    with pytest.raises(InvalidRenderOption) as exc:
        call()
    assert isinstance(exc.value, EvDemandError) and isinstance(exc.value, ValueError)
    assert text in str(exc.value)


def test_render_unknown_format_is_typed():
    a = assess(load_builtin_scenario("paper-2005"))
    _raises_typed(lambda: render(a, "yaml"), "'yaml'")


def test_render_sweep_unknown_format_is_typed():
    _raises_typed(lambda: render_sweep("strategy.renewable_share", [], "yaml"), "'yaml'")


def test_render_comparisons_unknown_format_is_typed(all_results):
    _raises_typed(lambda: render_comparisons(all_results, "yaml"), "'yaml'")


# renderer -> a call of it at ``digits`` significant digits, given the reproduction
_AT_DIGITS = {
    "format_quantity": lambda digits, results: format_quantity(
        Quantity(0.1, Dimension.ENERGY), "Wh", digits),
    "render": lambda digits, results: render(
        assess(load_builtin_scenario("paper-2005")), "text", digits),
    "render_comparisons": lambda digits, results: render_comparisons(results, "text", digits),
}


@pytest.mark.parametrize("digits", [0, 18, -1])
@pytest.mark.parametrize("renderer", list(_AT_DIGITS))
def test_digits_outside_one_to_seventeen_are_typed(all_results, renderer, digits):
    _raises_typed(lambda: _AT_DIGITS[renderer](digits, all_results), f"got {digits}")


# renderer -> what its output holds at 17 digits (format_quantity: all of it)
_AT_SEVENTEEN = {
    "format_quantity": "0.10000000000000001 Wh",
    "render": "  fleet energy                    4953.2000000000007 TWh\n",
    "render_comparisons": "computed 0.61159062885326754  expected 0.61158999999999997",
}


@pytest.mark.parametrize("renderer", list(_AT_DIGITS))
def test_seventeen_digits_still_render(all_results, renderer):
    out, expected = _AT_DIGITS[renderer](17, all_results), _AT_SEVENTEEN[renderer]
    assert out == expected if renderer == "format_quantity" else expected in out


@pytest.mark.parametrize("ids, first", [(["table3", "zeta", "alpha"], "zeta"),
                                        (["alpha", "table3", "zeta"], "alpha")])
def test_first_unknown_id_in_request_order_is_reported(ids, first):
    with pytest.raises(UnknownTarget) as exc:
        reproduce(ids)
    assert str(exc.value) == f"unknown target {first!r}; known: {', '.join(TARGET_IDS)}"


def _cell(rule, computed, expected, tolerance=0.0):
    return CellResult("x", computed, expected, "TWh", rule, tolerance, "anchor")


def test_cell_verdicts_follow_the_rule():
    assert _cell("rel", 1.001, 1.0, 0.002).passed
    assert _cell("rel", 1.003, 1.0, 0.002).status == "FAIL"
    assert _cell("abs", 90.9, 90.0, 1.0).status == "ok"
    assert not _cell("exact", 97.50000000000001, 97.5).passed
    assert _cell("round2sig", 0.2456, 0.25).passed
    assert not _cell("round2sig", 0.2449, 0.25).passed
    flagged = _cell("erratum", 167.6, 336.11)
    assert flagged.passed and flagged.flagged and flagged.status == "erratum"
    assert flagged.rel_err == pytest.approx(abs(167.6 - 336.11) / 336.11)
    assert not _cell("rel", 1.0, 1.0).flagged
    assert _cell("rel", 0.5, 0.0).rel_err == 0.5  # no expected value to scale by


def test_labels_carry_their_unit_except_fractions_and_ratios(all_results):
    for result in all_results:
        for c in result.cells:
            if c.unit in ("frac", "ratio"):
                assert "[" not in c.label
            else:
                assert c.label.endswith(f" [{c.unit}]")
