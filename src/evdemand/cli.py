"""Command-line interface.

Commands: ``reproduce``, ``run``, ``validate``, ``sweep``,
``export-dataset``. Data goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 domain or comparison failure, 2 usage or file errors. There is
no configuration file and no environment input; runs are reproducible from
the command line alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import EvDemandError, UnknownTarget, ValidationError
from .report import (
    DEFAULT_SIG,
    FORMATS,
    TARGET_IDS,
    SigConfig,
    render,
    render_comparisons,
    render_sweep,
    reproduce,
)
from .refdata import builtin_dataset, dataset_ids
from .scenario import (
    BUILTIN_SCENARIOS,
    Scenario,
    SweepSpec,
    assess,
    builtin_scenario_text,
    load_scenario,
    parse_scenario,
    render_dataset,
    sweep,
)

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


def _sig_from_args(args: argparse.Namespace) -> SigConfig:
    if args.sig_digits is None:
        return DEFAULT_SIG
    return SigConfig.uniform(args.sig_digits)


def _load_scenario_arg(spec: str) -> Scenario | int:
    """Resolve a scenario argument, a file path or a packaged fixture name.

    On failure, prints why and returns the exit code: 2 when the file cannot
    be read, 1 when its content is not a valid scenario.
    """
    path = Path(spec)
    try:
        if path.exists():
            return load_scenario(path)
        name = spec[:-4] if spec.endswith(".scn") else spec
        if name not in BUILTIN_SCENARIOS:
            _err(f"file not found: {spec}")
            return 2
        return parse_scenario(builtin_scenario_text(name), default_name=name)
    except (OSError, UnicodeDecodeError) as exc:
        _err(f"cannot read {spec}: {exc}")
        return 2
    except ValidationError as exc:
        for problem in exc.problems:
            _err(problem)
        return 1
    except EvDemandError as exc:
        _err(str(exc))
        return 1


def _sig_digits(text: str) -> int:
    """argparse type of ``--sig-digits``: an integer from 1 to 17, the most
    digits that still tell two doubles apart."""
    n = int(text)  # argparse reports a ValueError as an invalid value
    if not 1 <= n <= 17:
        raise argparse.ArgumentTypeError(f"expected an integer from 1 to 17, got {n}")
    return n


def _cmd_reproduce(args: argparse.Namespace) -> int:
    targets = None if args.all or not args.targets else list(args.targets)
    if not args.all and not args.targets:
        _err("reproduce needs target ids or --all")
        return 2
    try:
        results = reproduce(targets)
    except UnknownTarget as exc:
        _err(str(exc))
        return 2
    sys.stdout.write(render_comparisons(results, args.format, _sig_from_args(args)))
    return 0 if all(r.passed for r in results) else 1


def _cmd_run(args: argparse.Namespace, *, validate_only: bool = False) -> int:
    scenario = _load_scenario_arg(args.scenario)
    if isinstance(scenario, int):
        return scenario
    if validate_only:
        print(f"scenario valid: {scenario.name}")
        return 0
    try:
        assessment = assess(scenario)
    except EvDemandError as exc:
        _err(str(exc))
        return 1
    sys.stdout.write(render(assessment, args.format, _sig_from_args(args)))
    return 0


def _sweep_spec_from_args(args: argparse.Namespace,
                          scenario: Scenario) -> SweepSpec | None:
    flags = [args.values is not None,
             any(v is not None for v in (args.from_, args.to, args.step))]
    if args.path is None and not any(flags):
        return scenario.sweep_spec
    if args.path is None:
        _err("sweep overrides need --path")
        return None
    if args.values is not None:
        try:
            points = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            _err(f"bad --values list: {args.values!r}")
            return None
        if not points:
            _err("--values list is empty")
            return None
        return SweepSpec.from_values(args.path, points)
    if None in (args.from_, args.to, args.step):
        _err("progression sweeps need all of --from, --to, --step")
        return None
    try:
        return SweepSpec.from_progression(args.path, args.from_, args.to, args.step)
    except EvDemandError as exc:
        _err(str(exc))
        return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_scenario_arg(args.scenario)
    if isinstance(scenario, int):
        return scenario
    spec = _sweep_spec_from_args(args, scenario)
    if spec is None:
        if args.path is None and scenario.sweep_spec is None:
            _err("scenario has no [sweep] section and no sweep flags were given")
        return 2
    try:
        points = sweep(scenario, spec)
    except EvDemandError as exc:
        _err(str(exc))
        return 2
    sys.stdout.write(render_sweep(spec.path, points, args.format, _sig_from_args(args)))
    if points and all(p.assessment is None for p in points):
        _err("every sweep point failed")
        return 1
    return 0


def _cmd_export_dataset(args: argparse.Namespace) -> int:
    try:
        dataset = builtin_dataset(args.id)
    except EvDemandError as exc:
        _err(str(exc))
        return 2
    text = render_dataset(dataset, comments=_DATASET_EXPORT_COMMENTS)
    if args.path == "-":
        sys.stdout.write(text)
        return 0
    try:
        Path(args.path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _err(f"cannot write {args.path}: {exc}")
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, without the usage text;
    the subcommand parsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text",
                        help="output format (default: text)")
    common.add_argument("--sig-digits", type=_sig_digits, default=None, metavar="N",
                        help="override significant digits for all value families")

    parser = _Parser(
        prog="evdemand",
        description="Deterministic energy accounting for EV fleet-conversion "
                    "scenarios, with reproduction checks against the published "
                    "study figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", parents=[common],
                       help="compare computed values against the published figures")
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help=f"target ids ({', '.join(TARGET_IDS)})")
    p.add_argument("--all", action="store_true", help="run every target")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("run", parents=[common], help="evaluate one scenario")
    p.add_argument("scenario", help="scenario file path or packaged fixture name "
                                    f"({', '.join(BUILTIN_SCENARIOS)})")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", parents=[common],
                       help="load and validate a scenario, then stop")
    p.add_argument("scenario", help="scenario file path or packaged fixture name")
    p.set_defaults(func=lambda a: _cmd_run(a, validate_only=True))

    p = sub.add_parser("sweep", parents=[common],
                       help="evaluate a scenario over a parameter progression")
    p.add_argument("scenario", help="scenario file path or packaged fixture name")
    p.add_argument("--path", default=None, metavar="PARAM",
                   help="parameter path, e.g. strategy.renewable_share")
    p.add_argument("--values", default=None, metavar="V1,V2,...",
                   help="explicit comma-separated values")
    p.add_argument("--from", dest="from_", type=float, default=None)
    p.add_argument("--to", dest="to", type=float, default=None)
    p.add_argument("--step", dest="step", type=float, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export-dataset", parents=[common],
                       help="write a built-in dataset in scenario-file syntax")
    p.add_argument("id", help=f"dataset id ({', '.join(dataset_ids())})")
    p.add_argument("path", help="output path, or - for stdout")
    p.set_defaults(func=_cmd_export_dataset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())
