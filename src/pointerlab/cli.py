"""Command-line front end.

Subcommands: ``run`` executes a scenario file, ``validate`` checks one
without running it, ``demo`` runs a bundled scenario by name.  Exit codes:
0 when every verdict passes, 2 when any verdict fails, 1 on configuration
or runtime errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from importlib import resources

from .errors import PointerlabError
from .runner import _report_parts, emit_report, run_scenario
from .scenario import ScenarioConfig, load_scenario

DEMO_SCENARIOS = {
    "discrepancy": "discrepancy.json",
    "dlocal-agreement": "dlocal_agreement.json",
    "bcl-qubit": "bcl_qubit.json",
    "rule2-qubit": "rule2_qubit.json",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointerlab",
        description="Run measurement-chain scenarios and emit structured reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    _add_output_options(run)

    validate = sub.add_parser("validate", help="validate a scenario file without running it")
    validate.add_argument("scenario", help="path to a scenario JSON file")

    demo = sub.add_parser("demo", help="run a bundled scenario")
    demo.add_argument("name", help=f"one of: {', '.join(sorted(DEMO_SCENARIOS))}")
    _add_output_options(demo)
    return parser


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _execute(config: ScenarioConfig, fmt: str, out: str | None) -> int:
    report = run_scenario(config)
    target = out if out is not None else config.document["output"][fmt]
    if target is None:
        sys.stdout.writelines(_report_parts(report, fmt))
    else:
        emit_report(report, fmt, target)
    return 0 if report.all_passed else 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _execute(load_scenario(args.scenario), args.format, args.out)
        if args.command == "validate":
            config = load_scenario(args.scenario)
            print(f"{args.scenario}: valid {config.document['scenario_kind']} scenario")
            return 0
        if args.command == "demo":
            if args.name not in DEMO_SCENARIOS:
                print(
                    f"unknown demo {args.name!r}; available: "
                    f"{', '.join(sorted(DEMO_SCENARIOS))}",
                    file=sys.stderr,
                )
                return 1
            bundled = resources.files("pointerlab").joinpath(
                "scenarios", DEMO_SCENARIOS[args.name]
            )
            with resources.as_file(bundled) as path:
                config = load_scenario(path)
            return _execute(config, args.format, args.out)
        raise AssertionError("unreachable")
    except PointerlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
