"""Package-level guarantees: every exported name exists, and starting the CLI
imports nothing that only the tests need."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import evdemand

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
