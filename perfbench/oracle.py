"""The correctness gate: golden reproduction bytes, repeat determinism, and
headline figures recomputed with plain float arithmetic.

A harness run that fails the gate writes no metric and exits non-zero, so a
faster but wrong tree cannot post a result.
"""

from __future__ import annotations

from pathlib import Path

#: Relative tolerance between the oracle and the program. The two differ only
#: in the order of a few float operations, so a few ulps is all they may drift.
REL_TOL = 1e-9

GOLDEN = Path("tests") / "golden" / "reproduce_all.txt"


class GateError(Exception):
    """The program under test produced a wrong or unstable result."""


def headline(p: dict) -> dict[str, float]:
    """Fleet energy, total additional energy, additional CO2, renewable supply
    and conversion fraction for canonical parameters ``p`` (see gen)."""
    if p["basis"] == "shares":
        fleet = p["fleet.total_energy"] * p["fleet.transport_share"] * p["fleet.fuel_share"]
    else:
        fleet = p["fleet.gallons"] * p["fleet.heat_content"] * p["fleet.btu_to_wh"]
    if p["method"] == "A":
        production = fleet / p["ev.per_ev_energy"] * p["battery.batteries_per_ev"] \
            * p["manufacture"]
    else:  # method B feeds the totals whenever it is computed
        production = fleet / p["pack_capacity"] * p["manufacture"]
    battery = production / 1e3 if p["published"] else production
    total = fleet + battery
    renewable = p["strategy.baseline_generation"] * p["strategy.renewable_share"]
    return {
        "fleet_energy": fleet,
        "total_additional_energy": total,
        "additional_co2": total * (p["co2_t"] / p["generation"]),
        "renewable_supply": renewable,
        "conversion_fraction": renewable / fleet,
    }


def assessment_figures(a) -> dict[str, float]:
    """The same five figures read from an ``Assessment``, in canonical units."""
    return {
        "fleet_energy": a.fleet_energy.canonical,
        "total_additional_energy": a.total_additional_energy.canonical,
        "additional_co2": a.additional_co2.canonical,
        "renewable_supply": a.renewable_supply.canonical,
        "conversion_fraction": a.conversion_fraction,
    }


def mismatches(got: dict[str, float], want: dict[str, float]) -> list[str]:
    out = []
    for key, w in want.items():
        g = got[key]
        if abs(g - w) > REL_TOL * abs(w):
            out.append(f"{key}: program {g!r}, oracle {w!r}")
    return out


def check_golden(text: str, golden: bytes, where: str) -> None:
    if text.encode("utf-8") != golden:
        raise GateError(f"{where}: reproduce --all output differs from {GOLDEN}")


def check_repeat(first: bytes | str, second: bytes | str, where: str) -> None:
    if first != second:
        raise GateError(f"{where}: repeating the operation changed its output")
