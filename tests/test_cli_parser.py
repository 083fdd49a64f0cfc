"""The direct argument parser of ``cli.main`` against the argparse parser it replaced.

``cli.main`` runs with ``load_scenario`` and ``_execute`` replaced by
recorders, so each argument list shows which command it ran on which file,
with which format and output path, without running a scenario.  Wherever
the old parser (``helpers.argparse_oracle``) accepts a list, the new one must
do the same thing; wherever it exits, ``main`` must return 1 with one
``error:`` line.  The forms dropped on purpose are pinned in a table.
"""

import contextlib
import io
import os
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointerlab
from pointerlab import cli
from helpers import argparse_oracle, loaded_after_numpy

# one of the two file names is also a demo name, so the demo branch runs
FILES = ["a.json", "bcl-qubit"]
VOCABULARY = [
    "run",
    "validate",
    "demo",
    "bogus",
    "--format",
    "--format=json",
    "--format=csv",
    "--format=xml",
    "--out",
    *(f"--out={name}" for name in FILES),
    "--out=-x",
    "json",
    "csv",
    "xml",
    *FILES,
    "-x",
]
# options, mostly with a value, are drawn more often than stray tokens, so that
# about one list in seven is one the old parser accepts
WORD = st.one_of(
    st.sampled_from([token for token in VOCABULARY if token.startswith("--")]).map(lambda o: [o]),
    st.tuples(st.just("--format"), st.sampled_from(["json", "csv", "xml"])).map(list),
    st.tuples(st.just("--out"), st.sampled_from([*FILES, "csv", "-x"])).map(list),
    st.sampled_from(VOCABULARY).map(lambda token: [token]),
)


@st.composite
def argument_lists(draw):
    """A command or none, then options, strays and, mostly, one file in any order."""
    words = draw(st.lists(WORD, max_size=3))
    at = draw(st.integers(0, len(words)))
    words.insert(at, draw(st.sampled_from([[], *([name] for name in FILES)])))
    head = draw(st.sampled_from([["run"], ["validate"], ["demo"], ["bogus"], []]))
    return [*head, *(token for word in words for token in word)]


def run_recorded(argv):
    """``(code, calls, stdout, stderr)`` of ``cli.main(argv)`` with loading and running recorded."""
    calls = []

    def load(path):
        calls.append(("load", str(path)))
        return {"scenario_kind": "bcl"}

    def execute(scenario, fmt, out):
        calls.append(("execute", fmt, out))
        return 0

    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "load_scenario", load), mock.patch.object(cli, "_execute", execute):
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    return code, calls, stdout.getvalue(), stderr.getvalue()


def bundled(name):
    return os.path.join(os.path.dirname(pointerlab.__file__), "scenarios", cli.DEMO_SCENARIOS[name])


def assert_one_error(code, stderr):
    assert code == 1
    assert [line for line in stderr.splitlines() if line.startswith("error:")] == [
        stderr.splitlines()[-1]
    ], stderr
    assert "Traceback" not in stderr


@settings(max_examples=600)
@given(argv=argument_lists())
def test_every_list_runs_as_the_old_parser_read_it(argv):
    expected = argparse_oracle(argv)
    code, calls, stdout, stderr = run_recorded(argv)
    if expected is None:
        assert_one_error(code, stderr)
        assert stderr.startswith(cli.USAGE) and calls == [] and stdout == ""
    elif expected.command == "validate":
        assert (code, calls) == (0, [("load", expected.scenario)])
        assert stdout == f"{expected.scenario}: valid bcl scenario\n" and stderr == ""
    elif expected.command == "run" or expected.name in cli.DEMO_SCENARIOS:
        loaded = expected.scenario if expected.command == "run" else bundled(expected.name)
        execute = ("execute", expected.format, expected.out)
        assert (code, calls, stdout, stderr) == (0, [("load", loaded), execute], "", "")
    else:
        assert_one_error(code, stderr)
        assert stderr.startswith(f"error: unknown demo {expected.name!r}; available: ")
        assert calls == [] and stdout == ""


@pytest.mark.parametrize(
    "argv, old",
    [
        # prefix abbreviations: the old parser read --form as --format
        (["run", "a.json", "--form", "csv"], None),
        # "--" as the end of options
        (["run", "--", "a.json"], ("a.json", "json", None)),
        # a file name or option value that begins with "-"
        (["run", "-"], ("-", "json", None)),
        (["run", "-1"], ("-1", "json", None)),
        (["run", "a.json", "--out", "-1"], ("a.json", "json", "-1")),
        # an empty file name or output path, which names no file in the error line
        (["run", ""], ("", "json", None)),
        (["run", "a.json", "--out="], ("a.json", "json", "")),
    ],
)
def test_dropped_forms_are_usage_errors(argv, old):
    if old is not None:  # argparse_oracle refuses abbreviations
        expected = argparse_oracle(argv)
        assert (expected.scenario, expected.format, expected.out) == old
    code, calls, stdout, stderr = run_recorded(argv)
    assert_one_error(code, stderr)
    assert stderr.startswith(cli.USAGE) and calls == [] and stdout == ""


NOT_XML = "--format must be json or csv, not 'xml'"


@pytest.mark.parametrize(
    "argv, reason",
    [
        ([], "missing command"),
        (["bogus"], "unknown command 'bogus'"),
        (["run"], "run needs <scenario-file>"),
        (["demo", "--format", "csv"], "demo needs <name>"),
        (["run", "a.json", "b.json"], "unexpected argument 'b.json'"),
        (["run", "a.json", "-x"], "run takes no option '-x'"),
        (["run", "a.json", "--out"], "option --out needs a value"),
        (["run", "a.json", "--out", "-x"], "option --out needs a value"),
        (["run", "a.json", "--format", "xml"], NOT_XML),
        # each value is checked, not only the last one
        (["run", "a.json", "--format=xml", "--format=csv"], NOT_XML),
        (["run", "--format=json", "a.json", "--format", "csv"], None),
        (["validate", "a.json", "--out", "y"], "validate takes no option '--out'"),
        (["validate", "a.json", "--format=json"], "validate takes no option '--format'"),
        # an empty positional or option value is refused before any file is opened
        (["run", ""], "run needs a non-empty <scenario-file>"),
        (["validate", ""], "validate needs a non-empty <scenario-file>"),
        (["demo", "", "--format", "csv"], "demo needs a non-empty <name>"),
        (["demo", "bcl-qubit", "--out="], "option --out needs a value"),
        (["run", "a.json", "--out", ""], "option --out needs a value"),
        (["run", "a.json", "--format="], "option --format needs a value"),
    ],
)
def test_usage_errors_return_one(argv, reason):
    code, calls, stdout, stderr = run_recorded(argv)
    if reason is None:  # the last --format counts
        assert (code, calls) == (0, [("load", "a.json"), ("execute", "csv", None)])
        return
    assert (code, stdout, calls) == (1, "", [])
    assert stderr == f"{cli.USAGE}error: {reason}\n"


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["run", "--help"], ["bogus", "-h"], ["validate", "a.json", "--out", "-h"]],
)
def test_help_anywhere_prints_usage_and_returns_zero(argv):
    assert run_recorded(argv) == (0, [], cli.USAGE, "")


def test_main_reads_sys_argv_without_an_argument(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["pointerlab", "demo", "nope"])
    assert cli.main() == 1
    assert capsys.readouterr().err.startswith("error: unknown demo 'nope'; available: ")


def imported_by_cli(*flags):
    """Which of argparse and importlib.resources ``import pointerlab.cli`` loads after numpy."""
    return {"argparse", "importlib.resources"} & loaded_after_numpy("import pointerlab.cli", *flags)


def test_importing_the_cli_loads_no_argparse():
    assert "argparse" not in imported_by_cli()


def test_importing_the_cli_without_site_loads_no_resource_reader():
    # a site hook may import importlib.resources before any user code, which -S leaves out
    assert imported_by_cli("-S") == set()
