"""Command-line interface.

Commands: ``reproduce``, ``run``, ``validate``, ``sweep``,
``export-dataset``. Data goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 domain or comparison failure, 2 usage or file errors. There is
no configuration file and no environment input; runs are reproducible from
the command line alone. The grammar is one table, ``_COMMANDS``. A
well-formed command line is read from it directly; argparse is imported and
built from it only to read any other, print help or report a usage error.
"""

import gc
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

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
    """Converter of ``--sig-digits``."""
    n = int(text)  # argparse reports a ValueError as an invalid value
    try:
        return check_sig_digits(n)
    except InvalidRenderOption:
        import argparse
        raise argparse.ArgumentTypeError(f"expected an integer from 1 to 17, got {n}") from None


def _number(text: str) -> float:
    """Converter of a sweep number: a bare number, as a file reads one."""
    try:
        return number(text)
    except ParseError as exc:
        import argparse
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_reproduce(args: SimpleNamespace) -> int:
    if not args.all and not args.targets:
        raise _UsageError("reproduce needs target ids or --all")
    with _argument_errors():
        results = reproduce(None if args.all else list(args.targets))
    sys.stdout.write(render_comparisons(results, args.format, args.sig_digits))
    return 0 if all(r.passed for r in results) else 1


def _cmd_run(args: SimpleNamespace) -> int:
    assessment = assess(_load_scenario_arg(args.scenario))
    sys.stdout.write(render(assessment, args.format, args.sig_digits))
    return 0


def _cmd_validate(args: SimpleNamespace) -> int:
    print(f"scenario valid: {_load_scenario_arg(args.scenario).name}")
    return 0


def _sweep_spec_from_args(args: SimpleNamespace, scenario: Scenario) -> SweepSpec:
    if args.path is None:
        if any(v is not None for v in (args.values, args.from_, args.to, args.step)):
            raise _UsageError("sweep overrides need --path")
        if scenario.sweep_spec is None:
            raise _UsageError("scenario has no [sweep] section and no sweep flags were given")
        return scenario.sweep_spec
    with _argument_errors():
        return SweepSpec(args.path, args.values, args.from_, args.to, args.step)


def _cmd_sweep(args: SimpleNamespace) -> int:
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


def _cmd_export_dataset(args: SimpleNamespace) -> int:
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


_FORMAT = ("--format", dict(dest="format", choices=FORMATS, default="text",
                            help="output format (default: text)"))
_DIGITS = ("--sig-digits", dict(dest="sig_digits", type=_sig_digits, metavar="N",
                                help="override significant digits for every value"))

# command -> (help, function, arguments). An argument is a positional's name or
# an option's flag, with add_argument's keywords: nargs "*" takes any number of
# values, and an option has a dest and choices, a type or action "store_true".
_COMMANDS = {
    "reproduce": ("compare computed values against the published figures", _cmd_reproduce, [
        _FORMAT, _DIGITS, ("targets", dict(nargs="*", metavar="TARGET",
                                           help=f"target ids ({', '.join(TARGET_IDS)})")),
        ("--all", dict(dest="all", action="store_true", default=False, help="run every target"))]),
    "run": ("evaluate one scenario", _cmd_run, [
        ("scenario", dict(help="scenario file path or packaged fixture name "
                               f"({', '.join(BUILTIN_SCENARIOS)})")), _FORMAT, _DIGITS]),
    "validate": ("load and validate a scenario, then stop", _cmd_validate,
                 [("scenario", dict(help="scenario file path or packaged fixture name"))]),
    "sweep": ("evaluate a scenario over a parameter progression", _cmd_sweep, [
        ("scenario", dict(help="scenario file path or packaged fixture name")), _FORMAT,
        ("--path", dict(dest="path", metavar="PARAM",
                        help="parameter path, e.g. strategy.renewable_share")),
        ("--values", dict(dest="values", type=lambda text: [*map(_number, text.split(","))],
                          metavar="V1,V2,...", help="explicit comma-separated values")),
        ("--from", dict(dest="from_", type=_number)),
        ("--to", dict(dest="to", type=_number)),
        ("--step", dict(dest="step", type=_number))]),
    "export-dataset": ("write a built-in dataset in scenario-file syntax", _cmd_export_dataset, [
        ("id", dict(help=f"dataset id ({', '.join(dataset_ids())})")),
        ("path", dict(help="output path, or - for stdout"))]),
}


def _build_parser():
    """argparse's parser of ``_COMMANDS``: help, usage errors, any command line."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """A usage error is one stderr line, with no usage; subcommand parsers inherit it."""

        def error(self, message: str):
            self.exit(2, f"{self.prog}: error: {message}\n")

    parser = Parser(
        prog="evdemand",
        description="Deterministic energy accounting for EV fleet-conversion "
                    "scenarios, with reproduction checks against the published "
                    "study figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
        p.set_defaults(func=func)
    return parser


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace of ``argv`` when each token after the command is a
    whole option flag, a value it accepts not starting with ``-``, or a
    positional, and no option splits the positionals; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    options = {name: kw for name, kw in arguments if name.startswith("-")}
    positionals = {name: kw.get("nargs") for name, kw in arguments if name not in options}
    args = {kw["dest"]: kw.get("default") for kw in options.values()}
    values, split, tokens = [], False, iter(argv[1:])
    for token in tokens:
        split = split or bool(values) and token in options  # an option after a positional
        if (kw := options.get(token)) is None:
            if split or token.startswith("-") and token != "-":
                return None
            values.append(token)
        elif "action" in kw:  # store_true
            args[kw["dest"]] = True
        elif (text := next(tokens, "-")).startswith("-") or text not in kw.get("choices", [text]):
            return None
        else:
            try:
                args[kw["dest"]] = kw.get("type", str)(text)
            except Exception:  # a ValueError or an ArgumentTypeError, which argparse reports
                return None
    values = [values] if "*" in positionals.values() else values  # "*" takes every value
    if len(values) != len(positionals):
        return None
    return SimpleNamespace(command=argv[0], func=func, **args, **dict(zip(positionals, values)))


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place a failure becomes an exit code."""
    try:
        args = (_read_args(sys.argv[1:] if argv is None else argv)
                or _build_parser().parse_args(argv, SimpleNamespace()))  # usage errors exit 2
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
    # the process ends with the command: what the imports built is never garbage,
    # so no collection, shutdown's included, traverses it again
    gc.freeze()
    raise SystemExit(main())
