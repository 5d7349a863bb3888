"""Byte-pinned outputs beyond ``reproduce --all``: the reports in every
format with the JSON scenario echo, sweeps on both fleet bases, the scenario
write-back, and the dataset export; and every golden file under each other
supported interpreter that starts here."""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

from golden_cases import CASES, GOLDEN, SCENARIOS, SINGLE_METHOD, SWEEPS

SRC = Path(__file__).resolve().parents[1] / "src"


def _check(name: str) -> None:
    assert CASES[name]() == (GOLDEN / name).read_bytes(), name


def test_every_golden_file_has_a_case():
    assert sorted(CASES) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_json(name):
    _check(f"run_{name}.json")


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv")])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_text_and_csv(name, fmt, ext):
    _check(f"run_{name}.{ext}")


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep(name, fmt, ext):
    _check(f"sweep_{name}.{ext}")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_render_scenario(name):
    _check(f"render_scenario_{name}.scn")


def test_export_dataset():
    _check("export_dataset_us2005.scn")


def test_reproduce_all_csv_json_and_17_digits():
    for name in ("reproduce_all.csv", "reproduce_all.json", "reproduce_all_sig17.txt"):
        _check(name)


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv"), ("json", "json")])
@pytest.mark.parametrize("method", sorted(SINGLE_METHOD))
def test_run_single_method(method, fmt, ext):
    _check(f"run_paper-2005-method-{method}.{ext}")


def test_sweep_method_a_csv():
    _check("sweep_paper-2005-method-a.csv")


def _interpreter(minor: int) -> str | Path | None:
    """A ``python3.<minor>`` that starts and is that version: on PATH, or
    under pyenv's versions."""
    pyenv = sorted(Path.home().glob(f".pyenv/versions/3.{minor}.*/bin/python"))
    for exe in filter(None, [shutil.which(f"python3.{minor}"), *pyenv]):
        try:
            proc = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == f"(3, {minor})":
            return exe
    return None


@pytest.mark.parametrize("minor", [10, 12, 13])
def test_golden_bytes_under_other_interpreters(minor):
    exe = _interpreter(minor)
    if exe is None:
        pytest.skip(f"no python3.{minor} starts here")
    proc = subprocess.run([exe, "-B", str(Path(__file__).with_name("golden_cases.py"))],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout + proc.stderr == ""  # the golden files that differ, or a traceback
    assert proc.returncode == 0
