"""Two printed figures sit exactly on a decimal rounding tie, and their bytes
record which side of it the float landed on, not the published arithmetic.
Each exact value is recomputed with ``fractions.Fraction`` from the decimal
literals of the fixture and the built-in data, through the same formula:

* fossil generation, 4055 TWh x (0.497 + 0.188 + 0.030) = 2899.325 TWh,
  printed ``2899.33`` at 6 digits;
* the 2005 method A battery count, 172.4775 x 10^9, printed ``172.478``.

Each float lies just above its tie, so rounding it to 6 digits rounds up.
An operation order that lands below the tie prints the other byte; the
failure message names the order that keeps it."""

import math
from fractions import Fraction as F

import pytest

from evdemand import reproduce
from evdemand.quantities import _format_sig
from evdemand.refdata import builtin_dataset, builtin_ev_catalog, catalog_stats
from evdemand.report import render_comparisons
from evdemand.scenario import load_builtin_scenario

def _on_tie(exact: F, digits: int) -> bool:
    """Whether ``exact`` lies halfway between two ``digits``-digit decimals."""
    scaled = exact * F(10) ** (digits - 1 - math.floor(math.log10(exact)))
    return scaled - math.floor(scaled) == F(1, 2)


def _cell(target: str, label: str):
    (result,) = reproduce([target])
    return next(c for c in result.cells if c.label == label)


def _fossil_exact() -> F:
    mix = builtin_dataset("us2005").mix
    shares = {"coal": "0.497", "natural_gas": "0.188", "oil": "0.030"}
    assert all(mix.share(name) == float(text) for name, text in shares.items())
    assert mix.total_generation.in_unit("TWh") == 4055
    return F(4055) * sum(map(F, shares.values()))


def _battery_count_exact() -> F:
    s = load_builtin_scenario("paper-2005")
    literals = {"total_energy": ("TWh", "29000"), "transport_share": ("frac", "0.28"),
                "fuel_share": ("frac", "0.61")}
    for field, (unit, text) in literals.items():
        assert getattr(s.fleet_basis, field).in_unit(unit) == float(text)
    medians = {"power": ("kW", "112"), "range": ("mi", "100"), "max_speed": ("mph", "97.5")}
    catalog = builtin_ev_catalog()
    for field, (unit, text) in medians.items():
        assert catalog_stats(catalog, field).median.in_unit(unit) == float(text)
    assert s.batteries_per_ev == 4
    fleet_twh = F(29000) * F("0.28") * F("0.61")
    per_ev_kwh = F(112) * F(100) / F("97.5")
    return fleet_twh * 10**9 / per_ev_kwh * 4 / 10**9  # TWh -> kWh, then in 1e9


# figure -> (its float, its exact value from the literals, that value spelled
# out, its bytes at 6 digits, the operation order that keeps them)
TIES = {
    "fossil generation": (
        lambda: _cell("sec3-shares", "fossil generation [TWh]").computed,
        _fossil_exact, F("2899.325"), "2899.33",
        "refdata.source_group_energy must add the shares left to right, "
        "(0.497 + 0.188) + 0.030, and then multiply by 4055 TWh: a compensated "
        "sum (Python 3.12's sum()) lands below the tie and prints 2899.32"),
    "2005 method A battery count": (
        lambda: _cell("sec5-counts", "battery count, method A, 2005 [1e9]").computed,
        _battery_count_exact, F("172.4775"), "172.478",
        "engine.fleet_energy must be (29000 TWh x 0.28) x 0.61 and engine.per_ev_energy "
        "112 kW x (100 mi / 97.5 mph); with 29000 x (0.28 x 0.61) and "
        "(112 kW x 100 mi) / 97.5 mph the count lands on 172.4775 and prints 172.477"),
}


@pytest.mark.parametrize("name", TIES)
def test_a_figure_on_a_rounding_tie_keeps_its_printed_bytes(name):
    computed, exact_from_literals, exact, printed, order = TIES[name]
    x = computed()
    assert exact_from_literals() == exact
    assert _on_tie(exact, 6)
    ulps = (F(x) - exact) / F(math.ulp(x))
    assert 0 < ulps <= 2, f"{name} is {x!r}, {float(ulps):.2f} ulps from its tie: {order}"
    assert _format_sig(x, 6) == printed, f"{name} prints {_format_sig(x, 6)}: {order}"


def test_the_report_prints_both_ties_as_the_golden_file_does():
    text = render_comparisons(reproduce(["sec3-shares", "sec5-counts"]))
    assert "computed      2899.33  " in text
    assert "computed      172.478  " in text

