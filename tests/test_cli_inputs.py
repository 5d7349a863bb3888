"""Unreadable or invalid CLI inputs end in exit 1 or 2 with diagnostics,
never a traceback, and ``run`` and ``sweep`` report them alike."""

import json
from pathlib import Path

import pytest

from evdemand.cli import main
from evdemand.errors import ParseError
from evdemand.quantities import parse_quantity
from evdemand.scenario import FIELDS, OVERRIDE_PATHS, builtin_scenario_text
from evdemand.scnformat import parse_document

DATA = Path(__file__).parent / "data"
SWEEP_FLAGS = ["--path", "strategy.renewable_share", "--values", "0.1,0.2"]

TWO_PROBLEMS = """
[meta]
dataset = us2005
[strategy]
renewable_shard = 30 %
[turbines]
count = 5
"""


# an unknown chemistry or dataset is one problem among the others, in the
# order they are found
UNKNOWN_CHEMISTRY = """
[meta]
dataset = us2005
colour = 1
[battery]
chemistry = unobtainium
"""

UNKNOWN_DATASET = """
[meta]
dataset = us1999
colour = 1
[bogus]
x = 1
"""

# a missing, unknown or malformed dataset hides no other section's problems
UNKNOWN_DATASET_BAD_SWEEP = """
[meta]
dataset = us1999
[sweep]
path = strategy.renewable_share
from = 0
"""

NO_DATASET = """
[strategy]
renewable_shard = 3 %
"""

# a half-written inline dataset: the missing section is one problem, and the
# section present and [water] are still checked
NO_DATASET_SECTION = """
[mix]
coal = x
[water]
coal = 3 kWh
"""

NO_MIX_SECTION = """
[dataset]
total_generation = 1 kg
total_energy_consumption = 28500 TWh
transport_share = 29.5 %
gasoline_share = 62 %
household_gasoline = 120.25e9 gal
co2_total = 2350.5 Mt
colour = 1
[water]
coal = 3 kWh
"""

QUOTED_DATASET = """[meta]
dataset = "us2005"
"""

# no chemistry key names nimh, which is built in and takes no pack fields
PACK_WITHOUT_CHEMISTRY = """
[meta]
dataset = us2005
[battery]
pack_capacity = 30 kWh
"""

# a custom pack that fails its own check is one problem; [strategy] is still checked
BAD_CUSTOM_PACK = """
[meta]
dataset = us2005
[battery]
chemistry = li_ion
pack_capacity = 25 kWh
manufacture_energy = 5000 kWh
energy_density = 125 Wh/kg
pack_mass = 100 kg
[strategy]
colour = 1
"""

# one problem at each loader site that quotes the text written, in the order found
WRONG_KINDS = """[meta]
name = 5
dataset = "us2005"
[fleet]
basis = gallons
btu_to_wh = approx
[ev]
per_ev_energy = 115
[battery]
chemistry = "nimh"
batteries_per_ev = 4 kWh
method = c
[sweep]
path = strategy.renewable_share
values = 0.1, "x"
from = "0"
"""

PROBLEM_LINES = [
    (TWO_PROBLEMS, ["unknown section [turbines]",
                    "line 5: unknown key 'renewable_shard' in [strategy]"]),
    (UNKNOWN_CHEMISTRY, ["line 4: unknown key 'colour' in [meta]",
                         "unknown chemistry 'unobtainium'; built-ins: nimh, pb_acid (or "
                         "supply pack_capacity, manufacture_energy, energy_density, pack_mass)"]),
    (UNKNOWN_DATASET, ["unknown section [bogus]", "line 4: unknown key 'colour' in [meta]",
                       "unknown dataset 'us1999'; built-ins: us2001, us2005"]),
    (UNKNOWN_DATASET_BAD_SWEEP, ["unknown dataset 'us1999'; built-ins: us2001, us2005",
                                 "[sweep] sweep needs either values or all of from/to/step"]),
    (NO_DATASET, ["scenario must reference a built-in dataset ([meta] dataset = ...) "
                  "or define one inline ([dataset] + [mix])",
                  "line 3: unknown key 'renewable_shard' in [strategy]"]),
    (NO_DATASET_SECTION, ["inline dataset requires a [dataset] section",
                          "line 3: coal must be a fraction quantity literal, got 'x'",
                          "line 5: coal must be water_intensity, got energy"]),
    (NO_MIX_SECTION, ["inline dataset requires a [mix] section",
                      "line 9: unknown key 'colour' in [dataset]",
                      "line 3: total_generation must be energy, got mass",
                      "line 11: coal must be water_intensity, got energy"]),
    (QUOTED_DATASET, ["line 2: dataset must be an identifier, got '\"us2005\"'"]),
    (PACK_WITHOUT_CHEMISTRY, ["pack fields ['pack_capacity'] are only for non-built-in "
                              "chemistries; 'nimh' is built-in"]),
    (BAD_CUSTOM_PACK, ["li_ion: pack capacity 25000.0 Wh disagrees with density x mass = "
                       "12500.0 Wh beyond 2%", "line 11: unknown key 'colour' in [strategy]"]),
    (WRONG_KINDS, ["line 2: name must be a string, got '5'",
                   "line 3: dataset must be an identifier, got '\"us2005\"'",
                   "line 6: btu_to_wh must be exact, paper, or a Wh/Btu quantity, got 'approx'",
                   "line 8: per_ev_energy must be an energy quantity literal, got '115'",
                   "line 12: method must be one of a, b, both, got 'c'",
                   "line 10: chemistry must be an identifier, got '\"nimh\"'",
                   "line 11: batteries_per_ev must be a bare number, got '4 kWh'",
                   "line 15: sweep value must be a number or quantity, got '\"x\"'",
                   "line 16: sweep from must be a bare number, got '\"0\"'"]),
]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_directory_is_a_file_error(capsys, tmp_path, command):
    flags = SWEEP_FLAGS if command == "sweep" else []
    code, out, err = _run(capsys, command, str(tmp_path), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("evdemand: cannot read")


@pytest.mark.parametrize("command", ["run", "validate", "sweep"])
def test_non_utf8_file_is_a_file_error(capsys, tmp_path, command):
    path = tmp_path / "latin1.scn"
    path.write_bytes('[meta]\nname = "Café"\ndataset = us2005\n'.encode("latin-1"))
    flags = SWEEP_FLAGS if command == "sweep" else []
    code, out, err = _run(capsys, command, str(path), *flags)
    assert code == 2
    assert out == ""
    assert "cannot read" in err


def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path):
    original = DATA / "inline-custom-gallons.scn"
    path = tmp_path / original.name
    path.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    code, out, err = _run(capsys, "run", str(path))
    assert (code, out, err) == _run(capsys, "run", str(original))
    assert code == 0


@pytest.mark.parametrize("command", ["run", "validate", "sweep"])
def test_validation_problems_print_one_line_each(capsys, tmp_path, command):
    path = tmp_path / "problems.scn"
    flags = SWEEP_FLAGS if command == "sweep" else []
    for text, problems in PROBLEM_LINES:
        path.write_text(text, encoding="utf-8")
        code, out, err = _run(capsys, command, str(path), *flags)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"evdemand: {p}" for p in problems]


@pytest.mark.parametrize("digits", ["0", "-1", "x", "18", "2147483648", str(10**20)])
@pytest.mark.parametrize("argv", [["run", "paper-2005"], ["reproduce", "--all"]])
def test_sig_digits_below_one_is_a_usage_error(capsys, argv, digits):
    code, out, err = _run(capsys, *argv, "--sig-digits", digits)
    assert code == 2
    assert out == ""
    assert "--sig-digits" in err


@pytest.mark.parametrize("argv", [["run", "paper-2005"], ["reproduce", "--all"]])
def test_seventeen_sig_digits_is_the_upper_bound(capsys, argv):
    code, out, err = _run(capsys, *argv, "--sig-digits", "17")
    assert code in (0, 1) and err == ""
    if argv[0] == "run":
        assert "  fleet energy                    4953.2000000000007 TWh\n" in out


@pytest.mark.parametrize("bounds", [["0", "inf", "1"], ["0", "1e308", "1e-308"],
                                    ["0", "1", "nan"], ["-inf", "1", "0.5"]])
def test_unbounded_progression_is_a_usage_error(capsys, bounds):
    start, stop, step = bounds
    code, out, err = _run(capsys, "sweep", "paper-2005", "--path", "strategy.renewable_share",
                          f"--from={start}", f"--to={stop}", f"--step={step}")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flags, section", [
    (["--values", "0.1", "--from", "0", "--to", "1", "--step", "0.5"],
     "values = 0.1\nfrom = 0\nto = 1\nstep = 0.5\n"),
    (["--from", "0", "--to", "1"], "from = 0\nto = 1\n"),
])
def test_flags_and_sweep_section_follow_one_rule(capsys, tmp_path, flags, section):
    code, out, err = _run(capsys, "sweep", "paper-2005",
                          "--path", "strategy.renewable_share", *flags)
    assert code == 2
    assert out == ""
    [flag_line] = err.splitlines()
    path = tmp_path / "sweep.scn"
    path.write_text("[meta]\ndataset = us2005\n[sweep]\npath = strategy.renewable_share\n"
                    + section, encoding="utf-8")
    code, out, err = _run(capsys, "sweep", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == flag_line.replace("evdemand: ", "evdemand: [sweep] ")


@pytest.mark.parametrize("values, bad", [('"x"', ['"x"']), ('y, "x"', ["y", '"x"']),
                                         ("0.5, y", ["y"])])
def test_a_bad_sweep_value_in_a_file_is_one_problem(capsys, tmp_path, values, bad):
    # "--values ," is one empty item; a file's bad items are each reported
    # once, alone
    code, out, err = _run(capsys, "sweep", "paper-2005",
                          "--path", "strategy.renewable_share", "--values", ",")
    assert code == 2
    assert out == ""
    [flag_line] = err.splitlines()
    path = tmp_path / "sweep.scn"
    path.write_text("[meta]\ndataset = us2005\n[sweep]\npath = strategy.renewable_share\n"
                    f"values = {values}\n", encoding="utf-8")
    code, out, err = _run(capsys, "sweep", str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == len(bad)
    for line, item in zip(lines, bad):
        assert "sweep value" in line and repr(item) in line


def _sweep_file(tmp_path, entries):
    path = tmp_path / "sweep.scn"
    path.write_text(builtin_scenario_text("paper-2005")
                    + f"[sweep]\npath = strategy.renewable_share\n{entries}\n",
                    encoding="utf-8")
    return str(path)


# each --values item is read as a [sweep] values list reads a bare number
@pytest.mark.parametrize("values", ["0.1,,0.3", "0.1,", "1_0", "nan", "inf", "0.1, -inf", ""])
def test_a_values_item_a_file_rejects_is_a_usage_error(capsys, tmp_path, values):
    code, out, err = _run(capsys, "sweep", "paper-2005",
                          "--path", "strategy.renewable_share", "--values", values)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    code, out, err = _run(capsys, "sweep", _sweep_file(tmp_path, f"values = {values}"))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("values", ["0.1,0.3", " .5 , +0.25,5.", "1e-1,1E+0,-1"])
def test_values_a_file_accepts_sweep_as_in_the_file(capsys, tmp_path, values):
    flags = _run(capsys, "sweep", "paper-2005",
                 "--path", "strategy.renewable_share", "--values", values)
    assert flags == _run(capsys, "sweep", _sweep_file(tmp_path, f"values = {values}"))
    assert flags[0] == 0


def _progression(flag, bound):
    """``--from``/``--to``/``--step`` flags and the [sweep] entries they
    stand for, ``bound`` given for ``flag``."""
    bounds = {"from": "0", "to": "1", "step": "0.5", flag: bound}
    return ([f"--{key}={value}" for key, value in bounds.items()],
            "\n".join(f"{key} = {value}" for key, value in bounds.items()))


# each progression bound is read as a [sweep] bound reads a bare number
@pytest.mark.parametrize("flag", ["from", "to", "step"])
@pytest.mark.parametrize("bound", ["1_0", "infinity", "", "\u0661"])
def test_a_bound_a_file_rejects_is_a_usage_error(capsys, tmp_path, flag, bound):
    flags, entries = _progression(flag, bound)
    code, out, err = _run(capsys, "sweep", "paper-2005",
                          "--path", "strategy.renewable_share", *flags)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    code, out, err = _run(capsys, "sweep", _sweep_file(tmp_path, entries))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["from", "to", "step"])
@pytest.mark.parametrize("bound", [" .5 ", "+1e0"])
def test_a_bound_a_file_accepts_sweeps_as_in_the_file(capsys, tmp_path, flag, bound):
    flags, entries = _progression(flag, bound)
    code, out, err = _run(capsys, "sweep", "paper-2005",
                          "--path", "strategy.renewable_share", *flags)
    assert (code, out, err) == _run(capsys, "sweep", _sweep_file(tmp_path, entries))
    assert code == 0


# a digit is ASCII 0-9: another script's digit is no number in a file value,
# a list item, a --values item or a quantity literal
@pytest.mark.parametrize("digit", ["\u0661", "\u0663", "\uff11"])
def test_a_digit_is_ascii(capsys, digit):
    for value, column in ((digit, 5), (f"1, {digit}", 8), (f"{digit} TWh", 5)):
        with pytest.raises(ParseError) as exc:
            parse_document(f"[a]\nx = {value}\n")
        assert (exc.value.line, exc.value.column) == (2, column)
    with pytest.raises(ParseError):
        parse_quantity(f"{digit} TWh")
    code, out, err = _run(capsys, "sweep", "paper-2005",
                          "--path", "strategy.baseline_generation", "--values", f"1, {digit}")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_overflowing_sweep_bound_in_a_file_is_one_problem(capsys, tmp_path, command):
    path = tmp_path / "wide.scn"
    path.write_text("[meta]\ndataset = us2005\n[sweep]\npath = strategy.renewable_share\n"
                    "from = 0\nto = 1e400\nstep = 1\n", encoding="utf-8")
    code, out, err = _run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert "[sweep]" in line and "finite" in line


# the basis fields each packaged scenario does not have
OTHER_BASIS = {
    "paper-2005": {"fleet.gallons", "fleet.heat_content", "fleet.btu_to_wh"},
    "paper-2001": {"fleet.total_energy", "fleet.transport_share", "fleet.fuel_share"},
}


@pytest.mark.parametrize("name", list(OTHER_BASIS))
@pytest.mark.parametrize("path", [*(f.path for f in FIELDS), "strategy.cloudiness"])
def test_validate_and_sweep_agree_on_a_sweep_path(capsys, tmp_path, name, path):
    scenario = tmp_path / "sweep.scn"
    scenario.write_text(builtin_scenario_text(name) + f"[sweep]\npath = {path}\nvalues = 0.5\n",
                        encoding="utf-8")
    if path in OVERRIDE_PATHS and path not in OTHER_BASIS[name]:
        assert _run(capsys, "validate", str(scenario)) == (0, f"scenario valid: {name}\n", "")
        return
    lines = set()
    for command in ("validate", "run", "sweep"):
        code, out, err = _run(capsys, command, str(scenario))
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        lines.add(line)
    [line] = lines
    assert line.startswith("evdemand: [sweep] ")


@pytest.mark.parametrize("body, message", [
    ("[battery]\nbatteries_per_ev = 1e400\n",
     "line 4: battery.batteries_per_ev must be finite, got inf"),
    ("[strategy]\nrenewable_share = 1.5\n", "line 4: renewable_share: fraction 1.5 exceeds 1"),
    ("[strategy]\nrenewable_share = -0.5\n",
     "line 4: renewable_share: negative magnitude -0.5 for physical fraction"),
    ("[battery]\nbatteries_per_ev = 4 kWh\n",
     "line 4: batteries_per_ev must be a bare number, got '4 kWh'"),
    ("[fleet]\nbasis = gallons\nbtu_to_wh = approx\n",
     "line 5: btu_to_wh must be exact, paper, or a Wh/Btu quantity, got 'approx'"),
    ('[battery]\nchemistry = "nimh"\n',
     "line 4: chemistry must be an identifier, got '\"nimh\"'"),
    ("[battery]\nchemistry = nimh\npack_mass = 300 kg\n",
     "pack fields ['pack_mass'] are only for non-built-in chemistries; 'nimh' is built-in"),
    ("[sweep]\nvalues = 0.1\n", "[sweep] missing key 'path'"),
    ('[sweep]\npath = "strategy.renewable_share"\nvalues = 0.1\n',
     "line 4: path must be an identifier, got '\"strategy.renewable_share\"'"),
    ("[sweep]\npath = strategy.renewable_share\nfrom = 1 kWh\nto = 0.5\nstep = 0.1\n",
     "line 5: sweep from must be a bare number, got '1 kWh'"),
    ("[sweep]\npath = strategy.renewable_share\nvalues = 0.1,,0.2\n",
     "empty item in value list (line 5, column 14)"),
    ("[strategy]\n1x = 2\n", "bad key '1x' (line 4, column 1)"),
    # a token that names no choice
    ("[fleet]\nbasis = coal\n", "line 4: basis must be one of shares, gallons, got 'coal'"),
    ("[battery]\nmethod = c\n", "line 4: method must be one of a, b, both, got 'c'"),
    ("[battery]\nconvention = x\n",
     "line 4: convention must be one of consistent, published, paper-mantissa, got 'x'"),
    ("[ev]\nsource = median\n",
     "line 4: source must be one of catalog-median, got 'median'"),
    ("[strategy]\nrenewable_share =\n",
     "missing value for key 'renewable_share' (line 4, column 1)"),
])
def test_infinite_bare_count_in_a_file_is_one_problem(capsys, tmp_path, body, message):
    path = tmp_path / "packs.scn"
    path.write_text("[meta]\ndataset = us2005\n" + body, encoding="utf-8")
    code, out, err = _run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line == f"evdemand: {message}"


@pytest.mark.parametrize("argv", [["run", "paper-2005", "--sig-digits", "18"],
                                  ["reproduce", "--format", "xml"], [], ["frobnicate"],
                                  ["validate", "paper-2005", "--format", "json"],
                                  ["export-dataset", "us2005", "-", "--sig-digits", "3"],
                                  ["sweep", "paper-2005", "--path", "strategy.renewable_share",
                                   "--values", "0.1", "--sig-digits", "3"]])
def test_usage_error_is_one_line(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("evdemand") and ": error: " in line


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_an_overflowing_baseline_ratio_is_one_line(capsys, tmp_path, fmt):
    text = builtin_scenario_text("paper-2005").replace(
        "baseline_generation = 4055 TWh", "baseline_generation = 1e-300 Wh")
    path = tmp_path / "tiny-baseline.scn"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, "run", str(path), "--format", fmt)
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line == "evdemand: total vs baseline ratio inf is not finite"


@pytest.mark.parametrize("name, path, value, message", [
    ("paper-2005", "fleet.total_energy", "1e-300",
     "sustainable conversion fraction inf is not finite"),
    ("paper-2005", "ev.per_ev_energy", "1e-300", "EV count inf is not finite"),
    ("paper-2001", "fleet.gallons", "1e+305", "fleet energy inf is not finite"),
    ("paper-2005", "fleet.total_energy", "1e+308", "production energy inf is not finite"),
])
def test_an_overflowing_conversion_fraction_fails_its_sweep_point(capsys, name, path,
                                                                   value, message):
    code, out, err = _run(capsys, "sweep", name, "--path", path,
                          "--values", f"{value},29000", "--format", "csv")
    assert (code, err) == (0, "")
    tiny, ok = out.splitlines()[1:]
    assert tiny == f"0,{value}" + "," * 9 + f",{message}"
    assert ok.startswith("1,29000.0,") and ok.endswith(",")


OVERFLOWING_GALLONS = """
[meta]
dataset = us2005
[fleet]
basis = gallons
gallons = 1.5e303 gal
[battery]
chemistry = custom
pack_capacity = 25 kWh
manufacture_energy = 75 kWh
energy_density = 50 Wh/kg
pack_mass = 500 kg
method = B
convention = consistent
"""


def test_an_overflowing_total_additional_energy_is_one_line(capsys, tmp_path):
    path = tmp_path / "huge-gallons.scn"
    path.write_text(OVERFLOWING_GALLONS, encoding="utf-8")
    code, out, err = _run(capsys, "run", str(path))
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line == "evdemand: total additional energy inf is not finite"


@pytest.mark.parametrize("scenario", [
    "paper-2005", "paper-2001", *(str(p) for p in sorted(DATA.glob("*.scn")))])
def test_run_json_is_strict_json(capsys, scenario):
    code, out, _ = _run(capsys, "run", scenario, "--format", "json")
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["values"]
