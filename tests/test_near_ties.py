"""Only the two figures of ``tests/test_ties.py`` sit near a rounding tie.

A printed figure whose float lies within a few ulps of a decimal tie at its
digit count keeps its bytes only while every operation that computes it
rounds the same way. This scans every figure ``run`` prints for the packaged
fixtures and the ``tests/data`` scenarios at their default digits, and every
computed ``reproduce`` cell at 6 digits, and measures each float's distance
to the nearest tie with ``decimal`` on the float's exact value."""

import math
from decimal import ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

from evdemand import reproduce
from evdemand.quantities import _format_sig
from evdemand.report import _assessment_rows
from evdemand.scenario import assess, load_builtin_scenario, load_scenario

NEAR_ULPS = 10**3
# the figures ``tests/test_ties.py`` pins, and their bytes
PINNED = {"reproduce sec3-shares fossil generation [TWh]": "2899.33",
          "reproduce sec5-counts battery count, method A, 2005 [1e9]": "172.478"}


def ulps_to_tie(x: float, digits: int) -> Decimal:
    """How many ulps of ``x`` separate it from the nearest value halfway
    between two ``digits``-digit decimals."""
    exact = Decimal(abs(x))
    with localcontext() as ctx:
        ctx.prec = 2000  # every step below exact: a float has at most 767 digits
        scaled = exact.scaleb(digits - 1 - exact.adjusted())
        off = abs(scaled - scaled.to_integral_value(ROUND_FLOOR) - Decimal("0.5"))
        return off.scaleb(exact.adjusted() - digits + 1) / Decimal(math.ulp(x))


def printed_figures() -> dict[str, tuple[float, int]]:
    """Every figure named by where it prints, with its float and digit count."""
    runs = {name: load_builtin_scenario(name) for name in ("paper-2005", "paper-2001")}
    data = Path(__file__).parent / "data"
    runs |= {p.stem: load_scenario(str(p)) for p in sorted(data.glob("*.scn"))}
    figures = {f"run {name} {row.key}": (row.value, row.digits)
               for name, s in runs.items() for row in _assessment_rows(assess(s), None)}
    figures |= {f"reproduce {r.target_id} {c.label}": (c.computed, 6)
                for r in reproduce() for c in r.cells}
    return figures


def test_the_tie_distance_is_measured_in_ulps():
    assert ulps_to_tie(0.125, 2) == 0  # halfway between 0.12 and 0.13
    assert ulps_to_tie(math.nextafter(0.125, 1), 2) == 1
    assert ulps_to_tie(-math.nextafter(0.125, 0), 2) == 1
    assert ulps_to_tie(1.0, 1) == 2**51  # 0.5 from 1.5, in ulps of 2**-52


def test_no_other_printed_figure_sits_near_a_rounding_tie():
    figures = printed_figures()
    assert len(figures) > 100
    near = {name: _format_sig(x, digits) for name, (x, digits) in figures.items()
            if x and ulps_to_tie(x, digits) <= NEAR_ULPS}
    new = {name: (figures[name], near[name]) for name in near.keys() - PINNED.keys()}
    assert not new, f"figures within {NEAR_ULPS} ulps of a rounding tie, not pinned: {new}"
    assert near == PINNED
