"""Mutated demo documents through ``cli.main``: a report or one named error, never a traceback.

Each example takes one of the four bundled demos and applies a few
mutations: a value swapped for one of another type, for NaN, ``+-1e308``, a
subnormal, a huge integer or a deeply nested list; a key dropped or given
twice; and the file's bytes truncated.  ``pointerlab run`` must then exit 0
or 2 with nothing on stderr (a report, its verdicts passed or not), or exit
1 with exactly one ``error: <path or stage>: ...`` line, and raise no
exception and emit no warning.  A key given twice keeps its last value, as
``json`` does, and the report's ``scenario`` echo shows the value that ran.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
import warnings
from importlib import resources
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import load_scenario
from pointerlab.cli import DEMO_SCENARIOS, main

DEMOS = [
    json.loads(resources.files("pointerlab").joinpath("scenarios", name).read_text())
    for name in sorted(DEMO_SCENARIOS.values())
]


class Raw(str):
    """JSON text written as it is, such as a nesting deeper than the parser's stack."""

    def __repr__(self):
        return f"Raw({self[:8]!r}..., {len(self)} characters)"


class Pairs(list):
    """An object written from its ``(key, value)`` pairs, so a key may repeat."""


def nested(depth):
    return Raw("[" * depth + "]" * depth)


EXTREMES = st.sampled_from(
    [
        float("nan"),
        1e308,
        -1e308,
        5e-324,
        -1e-310,
        10**400,
        -(10**400),
        Raw("9" * 5000),  # more digits than int() converts by default
        True,
        None,
        "x",
        [],
        {},
        0,
        [[1e-320, 0]],
        nested(40),
        nested(100_000),
    ]
)


def dumps(value):
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, (dict, Pairs)):
        pairs = value.items() if isinstance(value, dict) else value
        return "{" + ", ".join(f"{json.dumps(key)}: {dumps(entry)}" for key, entry in pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dumps, value)) + "]"
    return json.dumps(value)


def paths(value, prefix=()):
    """Every key path into ``value``, parents before children."""
    if isinstance(value, dict):
        entries = value.items()
    else:
        entries = enumerate(value) if type(value) is list else ()
    for key, entry in entries:
        yield prefix + (key,)
        yield from paths(entry, prefix + (key,))


def parent_of(document, path):
    for key in path[:-1]:
        document = document[key]
    return document


@st.composite
def mutated(draw):
    document = json.loads(json.dumps(draw(st.sampled_from(DEMOS))))
    for _ in range(draw(st.integers(1, 3))):
        every = list(paths(document))
        if not every:
            break
        path = draw(st.sampled_from(every))
        parent = parent_of(document, path)
        if isinstance(parent, Pairs):  # a duplicated object is left as it is
            continue
        action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if action == "replace":
            parent[path[-1]] = copy.deepcopy(draw(EXTREMES))
        elif action == "drop":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            again = draw(EXTREMES | st.just(parent[path[-1]]))
            twice = Pairs([*parent.items(), (path[-1], again)])
            if len(path) == 1:
                document = twice
                break
            parent_of(document, path[:-1])[path[-2]] = twice
    return document


@settings(max_examples=300)
@given(document=mutated(), kept=st.none() | st.floats(0.0, 1.0))
def test_mutated_demo_runs_or_names_one_error(document, kept):
    data = dumps(document).encode()
    if kept is not None:  # the leading share of the bytes
        data = data[: int(kept * len(data))]
    with tempfile.TemporaryDirectory() as directory:
        scenario = Path(directory) / "scenario.json"
        scenario.write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["run", str(scenario), "--out", str(Path(directory) / "report")])
    assert not caught, [str(w.message) for w in caught]
    assert stdout.getvalue() == ""
    if code == 1:
        assert re.fullmatch(r"error: [^:\n]+: [^\n]+\n", stderr.getvalue()), stderr.getvalue()
    else:
        assert code in (0, 2) and stderr.getvalue() == "", (code, stderr.getvalue())


def test_a_key_given_twice_keeps_its_last_value(tmp_path):
    demo = next(demo for demo in DEMOS if demo["scenario_kind"] == "symmetrization")
    wider = [{"center": 0.0, "width": 2.0}, demo["packets"][1]]
    path = tmp_path / "twice.json"
    path.write_text(dumps(Pairs([*demo.items(), ("packets", wider)])))
    assert load_scenario(path)["packets"][0]["width"] == 2.0
