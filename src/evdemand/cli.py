"""Command-line interface.

Commands: ``reproduce``, ``run``, ``validate``, ``sweep``,
``export-dataset``. Data goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 domain or comparison failure, 2 usage or file errors. There is
no configuration file and no environment input; runs are reproducible from
the command line alone.
"""

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import (EvDemandError, InvalidRenderOption, ParseError, UnknownScenario,
                     ValidationError)
from .quantities import check_sig_digits
from .report import FORMATS, TARGET_IDS, render, render_comparisons, reproduce, write_sweep
from .refdata import builtin_dataset, dataset_ids
from .scenario import (
    BUILTIN_SCENARIOS,
    Scenario,
    SweepSpec,
    assess,
    iter_sweep,
    load_builtin_scenario,
    load_scenario,
    render_dataset,
)
from .scnformat import number

__all__ = ["main", "entry"]

_DATASET_EXPORT_COMMENTS = [
    "reference dataset export; loadable as a scenario or referenced from one",
    "per-source shares other than nuclear are a documented reconstruction:",
    "coal is backed out of the published coal freshwater total, oil holds the",
    "period's reported 3.0%, gas completes the published 71.4% fossil total,",
    "and hydro plus other renewables split the residual",
]


def _err(message: str) -> None:
    print(f"evdemand: {message}", file=sys.stderr)


class _UsageError(Exception):
    """A bad argument or an unreadable file: one stderr line, exit 2."""


@contextmanager
def _argument_errors():
    """Reports a domain error raised by a command-line argument as a usage error."""
    try:
        yield
    except EvDemandError as exc:
        raise _UsageError(str(exc)) from None


def _load_scenario_arg(spec: str) -> Scenario:
    """Resolve a scenario argument, a file path or a packaged fixture name.

    Raises :class:`_UsageError` when the file cannot be read, and the
    loader's :class:`EvDemandError` when its text is not a valid scenario.
    """
    path = Path(spec)
    try:
        if path.exists():
            return load_scenario(path)
        return load_builtin_scenario(spec[:-4] if spec.endswith(".scn") else spec)
    except UnknownScenario:
        raise _UsageError(f"file not found: {spec}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {spec}: {exc}") from None


def _sig_digits(text: str) -> int:
    """argparse type of ``--sig-digits``."""
    n = int(text)  # argparse reports a ValueError as an invalid value
    try:
        return check_sig_digits(n)
    except InvalidRenderOption:
        raise argparse.ArgumentTypeError(f"expected an integer from 1 to 17, got {n}") from None


def _number(text: str) -> float:
    """argparse type of a sweep number: a bare number, as a file reads one."""
    try:
        return number(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if not args.all and not args.targets:
        raise _UsageError("reproduce needs target ids or --all")
    with _argument_errors():
        results = reproduce(None if args.all else list(args.targets))
    sys.stdout.write(render_comparisons(results, args.format, args.sig_digits))
    return 0 if all(r.passed for r in results) else 1


def _cmd_run(args: argparse.Namespace) -> int:
    assessment = assess(_load_scenario_arg(args.scenario))
    sys.stdout.write(render(assessment, args.format, args.sig_digits))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    print(f"scenario valid: {_load_scenario_arg(args.scenario).name}")
    return 0


def _sweep_spec_from_args(args: argparse.Namespace, scenario: Scenario) -> SweepSpec:
    if args.path is None:
        if any(v is not None for v in (args.values, args.from_, args.to, args.step)):
            raise _UsageError("sweep overrides need --path")
        if scenario.sweep_spec is None:
            raise _UsageError("scenario has no [sweep] section and no sweep flags were given")
        return scenario.sweep_spec
    with _argument_errors():
        return SweepSpec(args.path, args.values, args.from_, args.to, args.step)


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_scenario_arg(args.scenario)
    spec = _sweep_spec_from_args(args, scenario)
    all_failed = True  # a spec has at least one point

    def points():
        nonlocal all_failed
        for p in iter_sweep(scenario, spec):
            all_failed = all_failed and p.assessment is None
            yield p

    write_sweep(sys.stdout, spec.path, points(), args.format)
    if all_failed:
        _err("every sweep point failed")
        return 1
    return 0


def _cmd_export_dataset(args: argparse.Namespace) -> int:
    with _argument_errors():
        dataset = builtin_dataset(args.id)
    text = render_dataset(dataset, comments=_DATASET_EXPORT_COMMENTS)
    if args.path == "-":
        sys.stdout.write(text)
        return 0
    try:
        Path(args.path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise EvDemandError(f"cannot write {args.path}: {exc}") from None
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, without the usage text;
    the subcommand parsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=FORMATS, default="text",
                     help="output format (default: text)")
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--sig-digits", type=_sig_digits, default=None, metavar="N",
                        help="override significant digits for every value")

    parser = _Parser(
        prog="evdemand",
        description="Deterministic energy accounting for EV fleet-conversion "
                    "scenarios, with reproduction checks against the published "
                    "study figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", parents=[fmt, digits],
                       help="compare computed values against the published figures")
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help=f"target ids ({', '.join(TARGET_IDS)})")
    p.add_argument("--all", action="store_true", help="run every target")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("run", parents=[fmt, digits], help="evaluate one scenario")
    p.add_argument("scenario", help="scenario file path or packaged fixture name "
                                    f"({', '.join(BUILTIN_SCENARIOS)})")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", help="load and validate a scenario, then stop")
    p.add_argument("scenario", help="scenario file path or packaged fixture name")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sweep", parents=[fmt],
                       help="evaluate a scenario over a parameter progression")
    p.add_argument("scenario", help="scenario file path or packaged fixture name")
    p.add_argument("--path", default=None, metavar="PARAM",
                   help="parameter path, e.g. strategy.renewable_share")
    p.add_argument("--values", type=lambda text: [*map(_number, text.split(","))],
                   default=None, metavar="V1,V2,...", help="explicit comma-separated values")
    p.add_argument("--from", dest="from_", type=_number, default=None)
    p.add_argument("--to", dest="to", type=_number, default=None)
    p.add_argument("--step", dest="step", type=_number, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export-dataset",
                       help="write a built-in dataset in scenario-file syntax")
    p.add_argument("id", help=f"dataset id ({', '.join(dataset_ids())})")
    p.add_argument("path", help="output path, or - for stdout")
    p.set_defaults(func=_cmd_export_dataset)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place a failure becomes an exit code."""
    try:
        args = _build_parser().parse_args(argv)  # usage errors exit 2 here
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    except _UsageError as exc:
        _err(str(exc))
        return 2
    except ValidationError as exc:
        for problem in exc.problems:
            _err(problem)
        return 1
    except EvDemandError as exc:
        _err(str(exc))
        return 1
    except BrokenPipeError as exc:
        # the reader closed stdout; what is still buffered goes to devnull, so
        # that the flush at exit does not fail again
        _err(f"cannot write output: {exc}")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def entry() -> None:
    raise SystemExit(main())
