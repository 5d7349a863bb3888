"""Package-level guarantees: every exported name exists, starting the CLI
imports nothing that only the tests need, a call imports json only to write
json, no call imports csv, and argparse loads only for help or a usage
error. The CLI entry point freezes what its imports built and keeps the
collector on; ``main`` leaves the collector as it found it."""

import gc
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import evdemand
from evdemand.cli import main

SRC = Path(evdemand.__file__).resolve().parent.parent
# every module but __main__, which runs the CLI when imported
MODULES = ["evdemand", *(f"evdemand.{m.name}" for m in pkgutil.iter_modules(evdemand.__path__)
                         if m.name != "__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    for exported in getattr(module, "__all__", ()):
        assert hasattr(module, exported), f"{name}.__all__ names missing {exported!r}"


def test_cli_start_does_not_import_statistics():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, evdemand.cli; print('statistics' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def _loaded(code: str, modules: tuple[str, ...] = ("json", "csv")) -> str:
    """Which of ``modules`` are loaded after ``code`` runs in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{code}\nprint(sorted(m for m in {modules!r} if m in sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True).stdout


def _cli_call(*argv: str) -> str:
    """Code that runs the CLI on ``argv``, its stdout discarded."""
    return ("import contextlib, io\nfrom evdemand.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0")


# a site hook may import either module, so the bare interpreter is the reference
@pytest.mark.parametrize("code", [
    "import evdemand.cli",
    _cli_call("run", "paper-2005"),
    _cli_call("validate", "paper-2005"),
    _cli_call("reproduce", "--all"),
    _cli_call("export-dataset", "us2005", "-"),
], ids=["import", "run", "validate", "reproduce", "export-dataset"])
def test_a_text_call_imports_neither_json_nor_csv(code):
    assert _loaded(code) == _loaded("pass")


@pytest.mark.parametrize("fmt", ["json"])
def test_a_call_that_writes_a_format_imports_its_module(fmt):
    assert f"'{fmt}'" in _loaded(_cli_call("run", "paper-2005", "--format", fmt))


@pytest.mark.parametrize("argv", [
    ("run", "paper-2005", "--format", "csv"),
    ("reproduce", "--all", "--format", "csv"),
    ("sweep", "paper-2005", "--path", "strategy.renewable_share", "--values", "0.2,0.5",
     "--format", "csv"),
], ids=["run", "reproduce", "sweep"])
def test_a_csv_call_imports_no_csv(argv):
    assert _loaded(_cli_call(*argv), ("csv",)) == _loaded("pass", ("csv",))


_ARGPARSE = ("argparse", "gettext", "locale")


@pytest.mark.parametrize("argv", [
    ("run", "paper-2005"),
    ("run", "paper-2005", "--format", "csv"),
    ("run", "--format", "json", "paper-2001", "--sig-digits", "3"),
    ("validate", "paper-2005"),
    ("reproduce", "--all"),
    ("export-dataset", "us2005", "-"),
    ("sweep", "paper-2005", "--path", "strategy.renewable_share", "--from", "0", "--to", "1",
     "--step", "0.5"),
    ("sweep", "paper-2005", "--values", "1,4", "--path", "battery.batteries_per_ev"),
], ids=["run", "run-csv", "run-json", "validate", "reproduce", "export-dataset", "sweep-from",
        "sweep-values"])
def test_a_well_formed_call_imports_no_argparse(argv):
    assert _loaded(_cli_call(*argv), _ARGPARSE) == _loaded("pass", _ARGPARSE)


def test_the_entry_point_freezes_the_imports_and_keeps_collecting():
    # the hook runs at exit, after the command, and reads the collector's state there
    done = subprocess.run(
        [sys.executable, "-c",
         "import atexit, gc, sys\n"
         "atexit.register(lambda: print(gc.get_freeze_count() > 0, gc.isenabled(),\n"
         "                              file=sys.stderr))\n"
         "sys.argv = ['evdemand', 'validate', 'paper-2005']\n"
         "from evdemand.cli import entry\n"
         "entry()\n"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "scenario valid: paper-2005\n", "True True\n")


def test_main_leaves_the_collector_as_it_found_it(capsys):
    frozen = gc.get_freeze_count()
    assert main(["validate", "paper-2005"]) == 0
    assert capsys.readouterr().out == "scenario valid: paper-2005\n"
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, True)


@pytest.mark.parametrize("argv", [["-h"], ["run", "-h"]])
def test_help_still_exits_0_with_the_usage(argv):
    done = subprocess.run([sys.executable, "-m", "evdemand", *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith(" ".join(["usage: evdemand", *argv[:-1], "[-h]"]))


def test_cli_start_does_not_import_dataclasses_or_inspect():
    # every record is a NamedTuple: starting the CLI generates no dataclass code
    out = subprocess.run(
        [sys.executable, "-c", "import sys, evdemand.cli; print([m for m in "
                               "('dataclasses', 'inspect') if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_start_compiles_no_annotation_strings():
    # annotations are real types, not strings that typing.NamedTuple compiles
    # into a ForwardRef each; and a FieldSpec is a plain tuple, with no __dict__
    out = subprocess.run(
        [sys.executable, "-c",
         "import typing\n"
         "made = []\n"
         "init = typing.ForwardRef.__init__\n"
         "def counting(self, *args, **kwargs):\n"
         "    made.append(args)\n"
         "    init(self, *args, **kwargs)\n"
         "typing.ForwardRef.__init__ = counting\n"
         "import evdemand.cli\n"
         "from evdemand.scenario import FIELDS\n"
         "print(len(made), any(hasattr(f, '__dict__') for f in FIELDS))\n"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True).stdout
    assert out == "0 False\n"
