"""Seeded inputs: scenario texts with their plain-number parameters, sweep
values, and the operation schedules of each workload.

Every function here depends only on the ``random.Random`` it is given, so a
seed fixes the inputs. Each valid scenario keeps its parameters in canonical
units (Wh, fractions, gal, t) beside the text written from them, so the
oracle can recompute results without going through the program's parser.
Invalid inputs are drawn from a fixed list of mutation kinds, every kind in
turn, and are neither steered toward nor away from known defects.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

FORMATS = ("text", "csv", "json")

# Published inputs behind the built-in datasets, chemistries and EV catalog
# medians, in canonical units; the oracle reads these, never refdata.
BUILTIN_DATASET = {
    "generation": 4055e12, "consumption": 29000e12, "transport": 0.28,
    "gasoline": 0.61, "household_gal": 113.1e9, "co2_t": 2480e6,
}
BUILTIN_CHEMISTRY = {"nimh": (25e3, 7176e3), "pb_acid": (25e3, 3430e3)}  # Wh, Wh
CATALOG_MEDIAN_PER_EV = 112e3 * (100.0 / 97.5)  # W x (mi / mph)
GASOLINE_HEAT = 114000.0
BTU_FACTORS = {"exact": 0.293071, "paper": 0.2929}

# The ten override paths and their documented domain in canonical units
# (bare sweep values are canonical magnitudes).
SWEEP_PATHS = {
    "fleet.total_energy": (1e15, 1e17),
    "fleet.transport_share": (0.05, 1.0),
    "fleet.fuel_share": (0.05, 1.0),
    "fleet.gallons": (1e10, 5e11),
    "fleet.heat_content": (9e4, 1.4e5),
    "fleet.btu_to_wh": (0.28, 0.31),
    "ev.per_ev_energy": (5e3, 1.5e5),
    "battery.batteries_per_ev": (1.0, 8.0),
    "strategy.renewable_share": (0.0, 1.0),
    "strategy.baseline_generation": (1e15, 1e16),
}
BASIS_PATHS = {
    "shares": {"fleet.total_energy", "fleet.transport_share", "fleet.fuel_share"},
    "gallons": {"fleet.gallons", "fleet.heat_content", "fleet.btu_to_wh"},
}
_FRACTION_PATHS = {"fleet.transport_share", "fleet.fuel_share", "strategy.renewable_share"}

#: Share of every sweep's values that lies outside its path's domain.
SWEEP_BAD_SHARE = 0.1
#: Points per sweep for each (basis, path) pair, in SWEEP_PATHS order. The
#: pairing is fixed so that every block of sweep-grid holds the same work and
#: a run's figures do not hinge on which pair drew the longest sweep.
SWEEP_SIZES = {
    "shares": (2000, 100, 1200, 150, 300, 200, 1000, 100, 600, 400),
    "gallons": (100, 1600, 150, 800, 700, 250, 200, 500, 400, 300),
}

INVALID_KINDS = (
    "mix_sum", "unknown_key", "unknown_section", "wrong_dimension",
    "batteries_below_one", "unknown_chemistry", "unknown_dataset", "syntax",
    "fraction_over_one", "negative", "duplicate_key", "ev_conflict",
    "chemistry_mismatch", "bad_method", "unterminated_string",
)


@dataclass
class GenScenario:
    """A scenario text; ``params`` is None when the text must be rejected."""

    name: str
    text: str
    kind: str
    basis: str
    params: dict | None = None


def _lit(value: float, unit: str) -> str:
    return f"{value!r} {unit}"


def _maybe(rng: random.Random, entries: list, key: str, default: float,
           value: float, unit: str, canonical: float, p: float = 0.75) -> float:
    """Write ``key`` with probability ``p``; return the canonical value in force."""
    if rng.random() < p:
        entries.append((key, _lit(value, unit)))
        return canonical
    return default


def _inline_dataset(rng: random.Random, i: int, sections: dict) -> dict:
    gen_twh = round(rng.uniform(3000, 6000), 1)
    cons_twh = round(rng.uniform(20000, 40000), 1)
    transport = round(rng.uniform(15, 40), 2)
    gasoline = round(rng.uniform(40, 80), 2)
    household = round(rng.uniform(80, 160), 2)
    co2 = round(rng.uniform(1500, 3500), 1)
    sections["dataset"] = [
        ("id", f"ds-{i}"), ("year", f'"{rng.choice(("2005", "2008", "2010"))}"'),
        ("total_generation", _lit(gen_twh, "TWh")),
        ("total_energy_consumption", _lit(cons_twh, "TWh")),
        ("transport_share", _lit(transport, "%")),
        ("gasoline_share", _lit(gasoline, "%")),
        ("household_gasoline", f"{household!r}e9 gal"),
        ("co2_total", _lit(co2, "Mt")),
    ]
    sources = ["coal", "natural_gas"] + rng.sample(
        ["oil", "nuclear", "hydro", "wind", "solar"], k=rng.randint(1, 4))
    cuts = sorted(rng.sample(range(1, 1000), len(sources) - 1))
    permille = [b - a for a, b in zip([0] + cuts, cuts + [1000])]
    sections["mix"] = [(s, _lit(pm / 10, "%")) for s, pm in zip(sources, permille)]
    sections["water"] = [("coal", _lit(round(rng.uniform(300, 600), 1), "gal/MWh")),
                         ("natural_gas", _lit(round(rng.uniform(100, 250), 1), "gal/MWh"))]
    return {
        "generation": gen_twh * 1e12, "consumption": cons_twh * 1e12,
        "transport": transport / 100, "gasoline": gasoline / 100,
        "household_gal": float(f"{household!r}e9"), "co2_t": co2 * 1e6,
    }


#: The structural choices that most change the cost of ``assess``: every
#: (basis, EV reference, method) cell. Pools cycle through them so that the
#: mix of cheap and dear scenarios is the same for every seed.
CELLS = tuple((b, e, m) for b in ("shares", "gallons") for e in ("explicit", "prs", "catalog")
              for m in ("A", "B", "both"))


def _valid_sections(rng: random.Random, i: int, cell: tuple[str, str, str]
                    ) -> tuple[dict, dict, str]:
    """Sections of a valid scenario in ``cell``, its canonical parameters and its basis."""
    name = f"gen-{i}"
    sections: dict[str, list] = {"meta": [("name", f'"{name}"')]}
    basis, ev, method = cell
    p: dict = {"basis": basis}
    if rng.random() < 0.3:
        ds = _inline_dataset(rng, i, sections)
    else:
        sections["meta"].append(("dataset", rng.choice(("us2005", "us2001"))))
        ds = BUILTIN_DATASET
    p["generation"], p["co2_t"] = ds["generation"], ds["co2_t"]

    fleet = [("basis", basis)]
    if basis == "shares":
        v = round(rng.uniform(15000, 45000), 1)
        p["fleet.total_energy"] = _maybe(rng, fleet, "total_energy", ds["consumption"],
                                         v, "TWh", v * 1e12)
        v = round(rng.uniform(15, 45), 2)
        p["fleet.transport_share"] = _maybe(rng, fleet, "transport_share", ds["transport"],
                                            v, "%", v / 100)
        v = round(rng.uniform(40, 80), 2)
        p["fleet.fuel_share"] = _maybe(rng, fleet, "fuel_share", ds["gasoline"],
                                       v, "%", v / 100)
    else:
        p["fleet.gallons"] = ds["household_gal"]
        if rng.random() < 0.75:
            v = round(rng.uniform(80, 160), 2)
            fleet.append(("gallons", f"{v!r}e9 gal"))
            p["fleet.gallons"] = float(f"{v!r}e9")
        v = float(round(rng.uniform(105000, 125000)))
        p["fleet.heat_content"] = _maybe(rng, fleet, "heat_content", GASOLINE_HEAT,
                                         v, "Btu/gal", v)
        btu = rng.choice(("exact", "paper", "literal", "default"))
        p["fleet.btu_to_wh"] = BTU_FACTORS["exact"]
        if btu in BTU_FACTORS:
            fleet.append(("btu_to_wh", btu))
            p["fleet.btu_to_wh"] = BTU_FACTORS[btu]
        elif btu == "literal":
            v = round(rng.uniform(0.28, 0.31), 6)
            fleet.append(("btu_to_wh", _lit(v, "Wh/Btu")))
            p["fleet.btu_to_wh"] = v
    sections["fleet"] = fleet

    if ev == "explicit":
        kwh = round(rng.uniform(8, 90), 3)
        sections["ev"] = [("per_ev_energy", _lit(kwh, "kWh"))]
        p["ev.per_ev_energy"] = kwh * 1e3
    elif ev == "prs":
        kw, mi, mph = (round(rng.uniform(20, 300), 1), round(rng.uniform(30, 300), 1),
                       round(rng.uniform(25, 130), 1))
        sections["ev"] = [("power", _lit(kw, "kW")), ("range", _lit(mi, "mi")),
                          ("speed", _lit(mph, "mph"))]
        p["ev.per_ev_energy"] = kw * 1e3 * (mi / mph)
    else:  # the catalog median, named or by default
        if rng.random() < 0.6:
            sections["ev"] = [("source", "catalog-median")]
        p["ev.per_ev_energy"] = CATALOG_MEDIAN_PER_EV

    chem = rng.choice(("nimh", "pb_acid", "custom"))
    battery = [("chemistry", chem if chem != "custom" else f"custom_{i}")]
    if chem == "custom":
        density = round(rng.uniform(40, 250), 1)
        mass = round(rng.uniform(100, 600), 1)
        capacity = round(density * mass / 1000 * rng.uniform(0.99, 1.01), 3)
        manufacture = round(rng.uniform(1000, 9000), 1)
        battery += [("pack_capacity", _lit(capacity, "kWh")),
                    ("manufacture_energy", _lit(manufacture, "kWh")),
                    ("energy_density", _lit(density, "Wh/kg")),
                    ("pack_mass", _lit(mass, "kg"))]
        p["pack_capacity"], p["manufacture"] = capacity * 1e3, manufacture * 1e3
    else:
        p["pack_capacity"], p["manufacture"] = BUILTIN_CHEMISTRY[chem]
    bpe = float(rng.choice((1, 2, 4))) if rng.random() < 0.5 else round(rng.uniform(1, 6), 2)
    p["battery.batteries_per_ev"] = bpe
    p["method"] = method
    convention = rng.choice(("consistent", "published", "paper-mantissa"))
    p["published"] = convention != "consistent"
    battery += [("batteries_per_ev", repr(bpe)), ("method", p["method"]),
                ("convention", convention)]
    sections["battery"] = battery

    strategy: list = []
    v = round(rng.uniform(5, 80), 2)
    p["strategy.renewable_share"] = _maybe(rng, strategy, "renewable_share", 0.30,
                                           v, "%", v / 100)
    v = round(rng.uniform(3000, 8000), 1)
    p["strategy.baseline_generation"] = _maybe(rng, strategy, "baseline_generation",
                                               ds["generation"], v, "TWh", v * 1e12)
    sections["strategy"] = strategy

    if "dataset" not in sections and rng.random() < 0.5:
        fuels = rng.sample(["coal", "natural_gas", "nuclear"], k=rng.randint(1, 3))
        sections["water"] = [(f, _lit(round(rng.uniform(100, 800), 1), "gal/MWh"))
                             for f in fuels]
    return sections, p, basis


def _text(sections: dict, header: str, rng: random.Random) -> str:
    lines = [f"# {header}", ""]
    for name, entries in sections.items():
        if not entries:
            continue
        lines.append(f"[{name}]")
        for key, value in entries:
            if key is None:
                lines.append(value)
            elif rng.random() < 0.1:
                lines.append(f"{key} = {value}   # set by the generator")
            else:
                lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def valid_scenario(rng: random.Random, i: int) -> GenScenario:
    """Scenario ``i``, in cell ``i`` of CELLS (cyclically)."""
    sections, params, basis = _valid_sections(rng, i, CELLS[i % len(CELLS)])
    return GenScenario(f"gen-{i}", _text(sections, f"generated scenario {i}", rng),
                       "valid", basis, params)


def _set(entries: list, key: str, value: str) -> None:
    for j, (k, _) in enumerate(entries):
        if k == key:
            entries[j] = (key, value)
            return
    entries.append((key, value))


def invalid_scenario(rng: random.Random, i: int, kind: str) -> GenScenario:
    """A valid scenario mutated so that loading it must fail with a typed error."""
    sections, _, basis = _valid_sections(rng, i, CELLS[i % len(CELLS)])
    battery, strategy = sections["battery"], sections["strategy"]
    if kind == "mix_sum":
        sections["meta"] = [e for e in sections["meta"] if e[0] != "dataset"]
        sections.setdefault("dataset", [
            ("id", "bad-mix"), ("total_generation", "4055 TWh"),
            ("total_energy_consumption", "29000 TWh"), ("transport_share", "28 %"),
            ("gasoline_share", "61 %"), ("household_gasoline", "113.1e9 gal"),
            ("co2_total", "2480 Mt")])
        sections["mix"] = [("coal", "60 %"), ("natural_gas", "60 %")]
    elif kind == "unknown_key":
        sections["fleet"].append(("colour", "blue"))
    elif kind == "unknown_section":
        sections["extras"] = [("x", "1")]
    elif kind == "wrong_dimension":
        _set(strategy, "renewable_share", "4055 TWh")
    elif kind == "batteries_below_one":
        _set(battery, "batteries_per_ev", repr(round(rng.uniform(0.05, 0.95), 2)))
    elif kind == "unknown_chemistry":
        sections["battery"] = [("chemistry", "unobtainium")] + [
            e for e in battery if e[0] in ("batteries_per_ev", "method", "convention")]
    elif kind == "unknown_dataset":
        for s in ("dataset", "mix", "water"):
            sections.pop(s, None)
        sections["meta"] = [("name", f'"gen-{i}"'), ("dataset", "us1999")]
    elif kind == "syntax":
        sections["fleet"].append((None, "this line has no equals sign"))
    elif kind == "fraction_over_one":
        _set(strategy, "renewable_share", _lit(round(rng.uniform(101, 300), 1), "%"))
    elif kind == "negative":
        _set(strategy, "baseline_generation", _lit(-round(rng.uniform(100, 5000), 1), "TWh"))
    elif kind == "duplicate_key":
        battery.append(("method", "A"))
    elif kind == "ev_conflict":
        sections["ev"] = [("per_ev_energy", "30 kWh"), ("power", "100 kW"),
                          ("range", "100 mi"), ("speed", "50 mph")]
    elif kind == "chemistry_mismatch":
        density, mass = round(rng.uniform(40, 250), 1), round(rng.uniform(100, 600), 1)
        sections["battery"] = [
            ("chemistry", f"custom_{i}"),
            ("pack_capacity", _lit(round(3 * density * mass / 1000, 3), "kWh")),
            ("manufacture_energy", "5000 kWh"),
            ("energy_density", _lit(density, "Wh/kg")), ("pack_mass", _lit(mass, "kg"))]
    elif kind == "bad_method":
        _set(battery, "method", "C")
    elif kind == "unterminated_string":
        sections["meta"][0] = ("name", f'"gen-{i}')
    else:
        raise ValueError(f"unknown invalid kind {kind!r}")
    return GenScenario(f"bad-{i}", _text(sections, f"invalid scenario {i}: {kind}", rng),
                       kind, basis)


def scenario_pool(rng: random.Random, n_valid: int,
                  n_invalid: int) -> tuple[list[GenScenario], list[GenScenario]]:
    """``n_valid`` valid scenarios and ``n_invalid`` invalid ones, kinds in turn."""
    valid = [valid_scenario(rng, k) for k in range(n_valid)]
    invalid = [invalid_scenario(rng, n_valid + k, INVALID_KINDS[k % len(INVALID_KINDS)])
               for k in range(n_invalid)]
    return valid, invalid


def _out_of_domain(rng: random.Random, path: str) -> float:
    lo, hi = SWEEP_PATHS[path]
    if path == "battery.batteries_per_ev":
        return rng.uniform(0.05, 0.95) if rng.random() < 0.5 else -rng.uniform(1.0, 8.0)
    if path in _FRACTION_PATHS and rng.random() < 0.5:
        return rng.uniform(1.01, 2.0)
    return -rng.uniform(max(lo, 0.01), hi)


def sweep_values(rng: random.Random, path: str, n: int,
                 bad_share: float = SWEEP_BAD_SHARE) -> tuple[list[float], frozenset[int]]:
    """``n`` sweep values and the indices that lie outside the domain."""
    lo, hi = SWEEP_PATHS[path]
    bad = frozenset(rng.sample(range(n), round(n * bad_share)))
    return [_out_of_domain(rng, path) if k in bad else rng.uniform(lo, hi)
            for k in range(n)], bad


def expect_point_ok(basis: str, path: str, index: int, bad: frozenset[int]) -> bool:
    """Whether a sweep point must evaluate (True) or be rejected inline (False)."""
    other = "gallons" if basis == "shares" else "shares"
    return index not in bad and path not in BASIS_PATHS[other]


@dataclass
class SweepOp:
    scenario: GenScenario
    path: str
    values: list[float]
    bad: frozenset[int]


def sweep_ops(rng: random.Random, bases: dict[str, list[GenScenario]]):
    """Endless sweep-grid schedule in blocks of every (basis, path) pair once,
    in seeded order, each with its ``SWEEP_SIZES`` points; each basis's
    scenarios take turns in a seeded order."""
    combos = [(b, p, n) for b in ("shares", "gallons")
              for p, n in zip(SWEEP_PATHS, SWEEP_SIZES[b])]
    turns = {b: itertools.cycle(rng.sample(v, len(v))) for b, v in bases.items()}
    while True:
        rng.shuffle(combos)
        for basis, path, n in combos:
            values, bad = sweep_values(rng, path, n)
            yield SweepOp(next(turns[basis]), path, values, bad)


@dataclass
class BatchOp:
    scenario: GenScenario
    fmt: str
    write: bool = False       # also render_scenario / render_dataset round trips
    reproduce_fmt: str = ""   # also reproduce() + render_comparisons in this format


#: One scenario-batch block: valid ops (of which ``BATCH_WRITES`` also write
#: and reproduce) and invalid ops.
BATCH_VALID, BATCH_INVALID, BATCH_WRITES = 17, 3, 1


def batch_ops(rng: random.Random, valid: list[GenScenario], invalid: list[GenScenario]):
    """Endless scenario-batch schedule in blocks of fixed composition."""
    vi = ii = 0
    while True:
        fmts = [FORMATS[k % 3] for k in range(BATCH_VALID)]
        rng.shuffle(fmts)
        block = []
        for k, fmt in enumerate(fmts):
            writes = k < BATCH_WRITES
            block.append(BatchOp(valid[vi % len(valid)], fmt, writes,
                                 rng.choice(FORMATS) if writes else ""))
            vi += 1
        for _ in range(BATCH_INVALID):
            block.append(BatchOp(invalid[ii % len(invalid)], rng.choice(FORMATS)))
            ii += 1
        rng.shuffle(block)
        yield from block


@dataclass
class CliOp:
    argv: list[str]
    valid: bool
    klass: str   # run, validate, reproduce, export or reject


def cli_block(rng: random.Random, files: dict) -> list[CliOp]:
    """One cli-cold block: 18 valid invocations and 6 invalid ones (25%).

    ``files`` maps ``gen`` to generated scenario paths and ``missing``,
    ``directory``, ``non_utf8`` and ``malformed`` to the invalid targets.
    """
    scenarios = files["gen"]
    fixture = rng.choice(("paper-2005", "paper-2001"))
    ops = [CliOp(["run", fixture, "--format", f], True, "run") for f in FORMATS]
    ops += [CliOp(["run", rng.choice(scenarios), "--format", FORMATS[k % 3]], True, "run")
            for k in range(9)]
    ops += [CliOp(["validate", rng.choice(scenarios)], True, "validate") for _ in range(2)]
    ops += [CliOp(["validate", fixture], True, "validate"),
            CliOp(["reproduce", "--all"], True, "reproduce"),
            CliOp(["reproduce", "--all", "--format", rng.choice(("csv", "json"))],
                  True, "reproduce"),
            CliOp(["export-dataset", "us2005", "-"], True, "export")]
    ops += [CliOp(["run", files["missing"]], False, "reject"),
            CliOp(["run", files["directory"]], False, "reject"),
            CliOp(["run", files["non_utf8"]], False, "reject"),
            CliOp(["reproduce", "no-such-target"], False, "reject"),
            CliOp(["run", fixture, "--sig-digits", "0"], False, "reject"),
            CliOp(["run", rng.choice(files["malformed"])], False, "reject")]
    rng.shuffle(ops)
    return ops


def cli_ops(rng: random.Random, files: dict):
    """Endless cli-cold schedule of ``cli_block`` blocks."""
    while True:
        yield from cli_block(rng, files)
