"""Byte-pinned outputs beyond ``reproduce --all``: the reports in every
format with the JSON scenario echo, sweeps on both fleet bases, the scenario
write-back, and the dataset export."""

from pathlib import Path

import pytest

from evdemand.cli import main
from evdemand.scenario import load_builtin_scenario, load_scenario, render_scenario

GOLDEN = Path(__file__).parent / "golden"
INLINE = Path(__file__).parent / "data" / "inline-custom-gallons.scn"

# packaged fixtures by name, plus an inline-dataset, custom-chemistry,
# gallons-basis scenario by path
SCENARIOS = {"paper-2005": "paper-2005", "paper-2001": "paper-2001",
             "inline-custom-gallons": str(INLINE)}


def _cli_stdout(capsys, *argv) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_json(capsys, name):
    out = _cli_stdout(capsys, "run", SCENARIOS[name], "--format", "json")
    assert out == (GOLDEN / f"run_{name}.json").read_bytes()


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv")])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_text_and_csv(capsys, name, fmt, ext):
    out = _cli_stdout(capsys, "run", SCENARIOS[name], "--format", fmt)
    assert out == (GOLDEN / f"run_{name}.{ext}").read_bytes()


# one sweep per fleet basis; the third value of each fails inline
SWEEPS = {
    "paper-2005": ("paper-2005", "strategy.renewable_share", "0,0.3,1.5,0.75"),
    "inline-custom-gallons": (str(INLINE), "fleet.btu_to_wh", "0.2929,0.293071,-0.5,0.31"),
}


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep(capsys, name, fmt, ext):
    scenario, path, values = SWEEPS[name]
    out = _cli_stdout(capsys, "sweep", scenario, "--path", path, "--values", values,
                      "--format", fmt)
    assert out == (GOLDEN / f"sweep_{name}.{ext}").read_bytes()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_render_scenario(name):
    arg = SCENARIOS[name]
    s = load_scenario(arg) if arg.endswith(".scn") else load_builtin_scenario(arg)
    expected = (GOLDEN / f"render_scenario_{name}.scn").read_bytes()
    assert render_scenario(s).encode("utf-8") == expected


def test_export_dataset(capsys):
    out = _cli_stdout(capsys, "export-dataset", "us2005", "-")
    assert out == (GOLDEN / "export_dataset_us2005.scn").read_bytes()


def test_reproduce_all_csv_json_and_17_digits(capsys):
    for argv, name in ((("--format", "csv"), "reproduce_all.csv"),
                       (("--format", "json"), "reproduce_all.json"),
                       (("--sig-digits", "17"), "reproduce_all_sig17.txt")):
        out = _cli_stdout(capsys, "reproduce", "--all", *argv)
        assert out == (GOLDEN / name).read_bytes(), name


# paper-2005 with one battery method: no row of the other method, and the
# totals and the sweep's battery count come from the one computed
SINGLE_METHOD = {m: Path(__file__).parent / "data" / f"paper-2005-method-{m}.scn"
                 for m in ("a", "b")}


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv"), ("json", "json")])
@pytest.mark.parametrize("method", sorted(SINGLE_METHOD))
def test_run_single_method(capsys, method, fmt, ext):
    out = _cli_stdout(capsys, "run", str(SINGLE_METHOD[method]), "--format", fmt)
    assert out == (GOLDEN / f"run_paper-2005-method-{method}.{ext}").read_bytes()


def test_sweep_method_a_csv(capsys):
    out = _cli_stdout(capsys, "sweep", str(SINGLE_METHOD["a"]),
                      "--path", "battery.batteries_per_ev", "--values", "4,5,0.5,2.5",
                      "--format", "csv")
    assert out == (GOLDEN / "sweep_paper-2005-method-a.csv").read_bytes()
