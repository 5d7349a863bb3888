"""Fuzz the command line in-process: any generated argv, over scenario texts
mutated from the packaged fixtures, ends in exit 0, 1 or 2 with no
traceback, and running it twice gives the same output; a file that
``validate`` accepts never makes a flag-less ``sweep`` a usage error; and the
quick reader of a command line agrees with argparse on every argv it reads."""

import io
import itertools
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from evdemand.cli import _build_parser, _read_args, main
from evdemand.report import FORMATS, TARGET_IDS
from evdemand.scenario import BUILTIN_SCENARIOS, OVERRIDE_PATHS, builtin_scenario_text

INLINE = Path(__file__).parent / "data" / "inline-custom-gallons.scn"
FIXTURES = [builtin_scenario_text(name) for name in BUILTIN_SCENARIOS]
FIXTURES.append(INLINE.read_text(encoding="utf-8"))

# The bare numbers here and in the progressions give a sweep at most 100
# points, or a span that overflows to infinity: far beyond the cap, and never
# a sweep too long to build or evaluate, even without the cap.
VALUES = ["0", "1", "1.5", "-1", "inf", "nan", "1e400", "1e-320", "1e-300 Wh", "50 %",
          "150 %", "4055 TWh", "12 furlong", '"x"', "paper", "both", "0.1, 2, nan", "",
          "[", '"unterminated']
# an unknown path, and a path of each fleet basis: the other basis for some fixtures
SWEEPS = ["[sweep]\npath = strategy.renewable_share\nfrom = 0\nto = 1\nstep = 0.25",
          "[sweep]\npath = battery.batteries_per_ev\nvalues = 0.5, 4, inf",
          "[sweep]\npath = strategy.cloudiness\nvalues = 0.5",
          "[sweep]\npath = fleet.gallons\nvalues = 1e9",
          "[sweep]\npath = fleet.total_energy\nvalues = 4055 TWh"]
LINES = [*SWEEPS,
         "[battery]", "batteries_per_ev = 1e400", "[ev]", "per_ev_energy = 0 kWh",
         "[fleet]", "basis = gallons", "[strategy]", "[mix]", "wind = 1 %", "[bogus]",
         "method = c", "=", "[meta"]

# Placeholders the test replaces with paths under tmp_path.
FILE, DIR, OUT = "<file>", "<dir>", "<out>"

# Each example writes files of fresh names: on some filesystems truncating a
# file that holds data costs tens of milliseconds, creating one a few
# microseconds.
EXAMPLES = itertools.count()


@st.composite
def scenario_texts(draw, edits=4):
    lines = draw(st.sampled_from(FIXTURES)).splitlines()
    for _ in range(draw(st.integers(0, edits))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["drop", "dup", "value", "insert", "garble"]))
        if kind == "insert" or i == len(lines):
            lines.insert(i, draw(st.sampled_from(LINES)))
        elif kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "value" and "=" in lines[i]:
            lines[i] = lines[i].split("=")[0] + "= " + draw(st.sampled_from(VALUES))
        else:
            lines[i] = draw(st.text(st.characters(blacklist_categories=("Cs",)),
                                    max_size=12))
    return "\n".join(lines) + "\n"


@st.composite
def progressions(draw):
    """At most 100 points, or far beyond the cap, or not finite, or a bound
    a file reads otherwise than ``float`` does."""
    if draw(st.booleans()):
        start = draw(st.floats(-10, 10))
        step = draw(st.sampled_from([0.25, 0.1, -0.5, 1.0, 1e-3, 0.0]))
        stop = start + draw(st.integers(0, 99)) * step
        return [repr(start), repr(stop), repr(step)]
    return list(draw(st.sampled_from([
        ("0", "inf", "1"), ("0", "1", "nan"), ("-inf", "0", "1"), ("-1e308", "1e308", "1"),
        ("0", "1e308", "1e-308"), ("1", "0", "1"), ("1_0", "12", "1"), ("0", "\u0661", "1"),
        ("0", "1", "infinity"), ("", "1", "1")])))


@st.composite
def sweep_flags(draw):
    flags = []
    if draw(st.integers(0, 9)):
        flags.append("--path=" + draw(st.sampled_from([*OVERRIDE_PATHS, "strategy.cloud"])))
    shape = draw(st.sampled_from(["values", "progression", "both", "none"]))
    if shape in ("values", "both"):
        values = draw(st.lists(st.sampled_from(
            ["0", "0.3", "1", "1.5", "4", "-1", "inf", "nan", "1e20", "x", ""]), max_size=5))
        flags.append("--values=" + ",".join(values))
    if shape in ("progression", "both"):
        start, stop, step = draw(progressions())
        flags += [f"--from={start}", f"--to={stop}", f"--step={step}"]
        if not draw(st.integers(0, 5)):
            flags.pop(draw(st.integers(0, 2)))
    return flags


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["reproduce", "run", "validate", "sweep", "sweep",
                                    "export-dataset"]))
    argv = [command]
    if command == "reproduce":
        argv += draw(st.one_of(st.just(["--all"]), st.lists(
            st.sampled_from([*TARGET_IDS, "no-such-target"]), max_size=3)))
    elif command == "export-dataset":
        argv += [draw(st.sampled_from(["us2005", "us2001", "us1999"])),
                 draw(st.sampled_from(["-", OUT, DIR]))]
    else:
        argv.append(draw(st.sampled_from([FILE, FILE, FILE, *BUILTIN_SCENARIOS, DIR,
                                          "missing.scn"])))
        if command == "sweep":
            argv += draw(sweep_flags())
    if draw(st.booleans()):
        argv.append("--format=" + draw(st.sampled_from([*FORMATS, "xml"])))
    if draw(st.booleans()):
        argv.append("--sig-digits=" + draw(st.sampled_from(
            ["0", "1", "3", "17", "18", "-2", "x", str(2**31), str(10**20)])))
    return argv


# tokens argparse alone reads: help, the end of options, an abbreviation, a
# bare flag, an option and its value in one token, a value starting with -
ODD_TOKENS = ["-h", "--help", "--", "--form", "--sig", "--format", "--all", "--path",
              "--format=csv", "-1", "-", "-x", "json", "3", "us2005"]


@st.composite
def mutated_argvs(draw):
    """``argvs()`` with most ``--opt=value`` tokens split in two, then options
    moved before the positional or repeated, odd tokens put in, and a target
    put last, after any options."""
    argv = []
    for token in draw(argvs()):
        flag, eq, value = token.partition("=")
        argv += [flag, value] if eq and draw(st.integers(0, 3)) else [token]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(argv)))  # after the command
        kind = draw(st.sampled_from(["front", "repeat", "insert", "last"]))
        if kind == "front":  # a token and the next, say an option and its value
            pair, argv[i:i + 2] = argv[i:i + 2], []
            argv[1:1] = pair
        elif kind == "repeat":
            argv[i:i] = argv[i:i + 2]
        elif kind == "insert":
            argv.insert(i, draw(st.sampled_from(ODD_TOKENS)))
        else:
            argv.append(draw(st.sampled_from(TARGET_IDS)))
    return argv


def _parse_args(argv):
    """argparse's namespace of ``argv`` as a dict, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=500, deadline=None)
@given(argv=mutated_argvs())
def test_the_quick_reader_agrees_with_argparse(argv):
    args = _read_args(argv)
    event(f"{argv[0]} read by {'argparse' if args is None else 'the quick reader'}")
    parsed = _parse_args(argv)
    if args is not None:
        assert vars(args) == parsed
    if parsed is None:
        assert args is None


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=scenario_texts(), argv=argvs())
def test_cli_ends_in_an_exit_code_and_repeats(tmp_path, text, argv):
    n = next(EXAMPLES)
    scenario = tmp_path / f"fuzz-{n}.scn"
    scenario.write_text(text, encoding="utf-8")
    places = {FILE: str(scenario), DIR: str(tmp_path), OUT: str(tmp_path / f"out-{n}.scn")}
    argv = [places.get(a, a) for a in argv]
    first = _main(argv)
    code, _, err = first
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert _main(argv) == first


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=scenario_texts(edits=2), section=st.sampled_from(SWEEPS))
def test_a_valid_file_never_makes_sweep_a_usage_error(tmp_path, text, section):
    if "[sweep]" not in text.splitlines():
        text += section + "\n"
    scenario = tmp_path / f"fuzz-{next(EXAMPLES)}.scn"
    scenario.write_text(text, encoding="utf-8")
    code = _main(["validate", str(scenario)])[0]
    event(f"validate exit {code}")
    if code == 0:
        assert _main(["sweep", str(scenario)])[0] in (0, 1)
