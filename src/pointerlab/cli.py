"""Command-line front end.

Exactly three forms are accepted (``USAGE``): ``run`` executes a scenario
file, ``validate`` checks one without running it, ``demo`` runs a bundled
scenario by name.  ``--format`` and ``--out`` may come before or after the
positional, as ``--format csv`` or ``--format=csv``; a repeated option keeps
its last value, and a separate value may not begin with ``-``
(``--out=-x`` passes one).  No value or positional may be empty.  Every
token that begins with ``-`` is an option, so there are no prefix
abbreviations, no ``--`` end of options and no file name beginning with
``-``.  ``-h`` or ``--help`` anywhere prints ``USAGE`` to
stdout.  Exit codes: 0 when every verdict passes (or on help), 2 when any
verdict fails, 1 on a usage, configuration, file or runtime error, which is
reported as one ``error: ...`` line on stderr.  :func:`main` returns the
code and never raises ``SystemExit``.
"""

from __future__ import annotations

import sys

from .errors import PointerlabError
from .runner import _report_parts, emit_report, run_scenario
from .scenario import load_scenario

USAGE = """\
pointerlab run <scenario-file> [--format json|csv] [--out <path>]
pointerlab validate <scenario-file>
pointerlab demo <name> [--format json|csv] [--out <path>]
"""

DEMO_SCENARIOS = {
    "discrepancy": "discrepancy.json",
    "dlocal-agreement": "dlocal_agreement.json",
    "bcl-qubit": "bcl_qubit.json",
    "rule2-qubit": "rule2_qubit.json",
}

_COMMAND_OPTIONS = {"run": ("--format", "--out"), "validate": (), "demo": ("--format", "--out")}


class _UsageError(Exception):
    """An argument list outside the three forms of ``USAGE``."""


def _parse(argv: list[str]) -> tuple[str, str, str, str | None]:
    """``(command, positional, format, out)`` of one of the three forms, or ``_UsageError``."""
    if not argv:
        raise _UsageError("missing command")
    command, *rest = argv
    if command not in _COMMAND_OPTIONS:
        raise _UsageError(f"unknown command {command!r}")
    options = {"--format": "json", "--out": None}
    positionals = []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, joined, value = token.partition("=")
        if name not in _COMMAND_OPTIONS[command]:
            raise _UsageError(f"{command} takes no option {name!r}")
        if not joined:
            value = next(tokens, "")
        if not value or (value.startswith("-") and not joined):
            raise _UsageError(f"option {name} needs a value")
        if name == "--format" and value not in ("json", "csv"):
            raise _UsageError(f"--format must be json or csv, not {value!r}")
        options[name] = value
    what = "<name>" if command == "demo" else "<scenario-file>"
    if not positionals:
        raise _UsageError(f"{command} needs {what}")
    if len(positionals) > 1:
        raise _UsageError(f"unexpected argument {positionals[1]!r}")
    if not positionals[0]:
        raise _UsageError(f"{command} needs a non-empty {what}")
    return command, positionals[0], options["--format"], options["--out"]


def _execute(scenario: dict, fmt: str, out: str | None) -> int:
    report = run_scenario(scenario)
    target = out if out is not None else scenario["output"][fmt]
    if target is None:
        sys.stdout.writelines(_report_parts(report, fmt))
    else:
        emit_report(report, fmt, target)
    return 0 if report.all_passed else 2


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return 0
    try:
        command, target, fmt, out = _parse(argv)
    except _UsageError as exc:
        sys.stderr.write(f"{USAGE}error: {exc}\n")
        return 1
    try:
        if command == "run":
            return _execute(load_scenario(target), fmt, out)
        if command == "validate":
            scenario = load_scenario(target)
            print(f"{target}: valid {scenario['scenario_kind']} scenario")
            return 0
        if target not in DEMO_SCENARIOS:
            print(
                f"error: unknown demo {target!r}; available: {', '.join(sorted(DEMO_SCENARIOS))}",
                file=sys.stderr,
            )
            return 1
        from importlib import resources

        bundled = resources.files("pointerlab").joinpath("scenarios", DEMO_SCENARIOS[target])
        with resources.as_file(bundled) as path:
            scenario = load_scenario(path)
        return _execute(scenario, fmt, out)
    except PointerlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        reason = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        print(f"error: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
