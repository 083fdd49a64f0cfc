"""The one-pass report writer against the recursive writer it replaced.

The reference below is that recursive writer: it builds the text of every
value, escapes keys and strings with ``json.dumps`` and joins the parts of
each object and array.  A scenario echo holds each amplitude list as an
``(n, 2)`` float array, which the reference writes as its ``.tolist()``.
The one-pass writer must give byte-identical text on every value a report
can hold, and refuse a non-finite float the same way, also when it writes a
nested list of amplitude arrays in batches of one ``%``-template each, with
the row templates built once per indent within a batch.  The CSV rows are
checked against the ``csv.writer`` rows they replaced.
"""

import csv
import io
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import RunReport, Verdict, load_scenario, run_scenario, runner
from pointerlab.cli import DEMO_SCENARIOS
from pointerlab.runner import _float_repr, render_report
from pointerlab.scenario import validate_scenario_data
from helpers import (
    csv_text,
    haar_document,
    json_text,
    nul_placeholder,
    payload_document,
    payload_text,
)


def is_amplitude_array(value):
    return (
        isinstance(value, np.ndarray)
        and value.dtype == float
        and value.ndim == 2
        and value.shape[1] == 2
    )


def reference_text(value, indent=0):
    if is_amplitude_array(value):
        value = value.tolist()
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {reference_text(entry, indent + 1)}"
            for key, entry in value.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{reference_text(entry, indent + 1)}" for entry in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"cannot serialize non-finite value {number!r}")
        text = format(number, ".17g")
        if "." not in text and "e" not in text:
            text += ".0"
        return text
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


TEXT = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["", "\x00\x1f\x7f", 'q"uote\\', "é \U0001f600", "tab\tline\n"]
)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60).map(float),  # integral values
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, 1e16, 0.1]),
)
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-128, 127).map(np.int8),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)
LEAVES = st.one_of(
    FLOATS,
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
    NUMPY_SCALARS,
    TEXT,
)
KEYS = TEXT | st.integers(-5, 5)
PAIR_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -2.0, 1e16, 1e17, -1e17, 1e300]),  # integral values
)
PAIR_LISTS = st.lists(st.lists(PAIR_FLOATS, min_size=2, max_size=2), min_size=1, max_size=4)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(FLOATS, min_size=1, max_size=4),  # a float leaf list
        PAIR_LISTS,
        PAIR_LISTS.map(lambda pairs: np.array(pairs, dtype=float)),  # an amplitude array
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300)
@given(value=VALUES)
def test_writer_matches_the_recursive_reference(value):
    assert json_text(value) == reference_text(value)


@pytest.mark.parametrize(
    "pairs",
    [
        [[0.5, 0.25], [-0.125, 3.0e-7]],
        [[0.0, 0.5]],
        [[0.5, 1.0]],
        [[-2.0, 0.5], [0.5, 0.5]],
        [[1e300, -0.5]],
        [[0.5, -0.0]],
        [[0.1, 0.2], [1e16, 0.3]],
        [[1.0, 2.0], [-3.0, 0.0]],  # every entry integral
        [[-0.0, 0.5], [0.25, -0.0]],
        [[5e-324, -2.2250738585072014e-308], [0.5, -5e-324]],  # subnormals
        [[2.0**-1074, 0.1], [1e-310, 3.0]],
        [[-0.0, -0.0]],
        [[1e16, 0.5], [-1e16, 1e16 + 2.0]],  # integral, written without an exponent
        [[1e17, -1e17], [0.5, 1e17 - 16.0]],  # from 1e17 up, "%.17g" writes an exponent
        [[9.007199254740993e15, 0.25]],  # 2**53 + 1 rounds to 2**53
    ],
)
def test_float_pair_arrays_match_the_reference(pairs):
    array = np.array(pairs, dtype=float)
    for pair_form in (pairs, array):
        for value in (pair_form, {"initial_state": pair_form}, [pair_form, pair_form]):
            assert json_text(value) == reference_text(value)


def test_integral_amplitude_array_makes_no_per_number_call(monkeypatch):
    # a real vector, whose imaginary parts are all 0.0, is written by the template too
    calls = []

    def counted(value):
        calls.append(value)
        return _float_repr(value)

    monkeypatch.setattr(runner, "_float_repr", counted)
    value = {"initial_state": np.array([[1.0, 0.0], [0.5, -0.0], [1e16, 1e17]])}
    assert json_text(value) == reference_text(value)
    assert calls == []


def test_empty_amplitude_array_matches_the_reference():
    for value in (np.zeros((0, 2)), {"a": np.zeros((0, 2))}):
        assert json_text(value) == reference_text(value)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64("nan")])
@pytest.mark.parametrize(
    "where", ["leaf", "float list", "nested", "value", "pair list", "pair array"]
)
def test_non_finite_float_raises_value_error(bad, where):
    value = {
        "leaf": bad,
        "float list": [1.0, bad, 2.0],
        "nested": {"a": [[0.5, bad]]},
        "value": {"values": {"x": 1.0, "y": bad}},
        "pair list": [[0.5, 0.25], [0.5, bad]],
        "pair array": {"a": [np.array([[0.5, 0.25], [0.5, bad]])]},
    }[where]
    with pytest.raises(ValueError, match="non-finite"):
        reference_text(value)
    with pytest.raises(ValueError, match="non-finite"):
        json_text(value)
    if where == "leaf":
        with pytest.raises(ValueError, match="non-finite"):
            _float_repr(bad)


@pytest.mark.parametrize(
    "name", [*sorted(DEMO_SCENARIOS), "haar-sigma_x_pattern", "haar-system_observable"]
)
def test_demo_reports_match_the_reference(name):
    if name in DEMO_SCENARIOS:
        bundled = resources.files("pointerlab").joinpath("scenarios", DEMO_SCENARIOS[name])
        with resources.as_file(bundled) as path:
            scenario = load_scenario(path)
    else:
        scenario = validate_scenario_data(haar_document(name.removeprefix("haar-")))
    report = run_scenario(scenario)
    if "initial_state" in report.scenario:  # the echo holds amplitude arrays
        assert is_amplitude_array(report.scenario["initial_state"])
    meta = {"duration_seconds": report.duration_seconds}
    document = {"payload": payload_document(report), "meta": meta}
    assert payload_text(report) == reference_text(payload_document(report))
    assert render_report(report) == reference_text(document) + "\n"
    assert render_report(report, "csv") == csv_text(report)


NAMES = TEXT | st.text(st.sampled_from('ab,"\r\n '), max_size=6)  # CSV's special characters
REPORTS = st.builds(
    RunReport,
    scenario=st.dictionaries(TEXT, FLOATS | TEXT, max_size=3),
    values=st.dictionaries(NAMES, FLOATS, max_size=4),
    verdicts=st.lists(st.builds(Verdict, NAMES, FLOATS, FLOATS, st.booleans()), max_size=4).map(
        tuple
    ),
    duration_seconds=st.floats(0.0, 10.0),
)


@settings(max_examples=300)
@given(report=REPORTS)
def test_library_reports_match_the_references(report):
    # a library caller's report can hold any name; CSV quotes as csv.QUOTE_MINIMAL does
    document = {"payload": payload_document(report), "meta": {"duration_seconds": report.duration_seconds}}
    assert render_report(report) == reference_text(document) + "\n"
    text = render_report(report, "csv")
    assert text == csv_text(report)
    # and every name reads back whole, a bare \r and NUL included
    placeholder = nul_placeholder(text)
    rows = csv.reader(io.StringIO(text.replace("\0", placeholder), newline=""))
    names = [row[0].replace(placeholder, "\0") for row in rows]
    assert names == ["metric", *report.values, *(v.name for v in report.verdicts)]


# only float arrays of shape (n, 2) are leaves; every other array is refused
@pytest.mark.parametrize(
    "value",
    [
        np.bool_(True),
        {1, 2},
        b"bytes",
        np.zeros(2),
        np.zeros((2, 3)),
        np.zeros((2, 2), dtype=int),
        np.zeros((2, 2), dtype=np.float32),
        np.zeros((1, 2, 2)),
    ],
)
def test_unsupported_types_raise_type_error(value):
    for write in (reference_text, json_text):
        with pytest.raises(TypeError):
            write({"key": [value]})


PAIR = np.array([[0.5, -0.25], [1.0, 0.0]])
TREES = [
    [[np.array([[1.0, 2.0], [-3.0, 0.0]])], [np.array([[4.0, 5.0]])]],  # integral entries
    [np.array([[-0.0, 0.5]]), [np.array([[0.25, -0.0]]), np.array([[-0.0, -0.0]])]],
    [np.array([[1e17, -1e17], [1e16, 0.5]]), np.array([[1e17 - 16.0, 1e300]])],
    [[], PAIR],  # an empty list
    [np.zeros((0, 2)), PAIR, [np.zeros((0, 2))]],  # empty arrays
    [PAIR, 1.0, "x", None, [PAIR]],  # arrays mixed with other values
    [[PAIR, PAIR], [PAIR, [PAIR, 0.5]]],
    [[PAIR], (PAIR,)],  # a tuple is written by the walk
    {"system_eigenbasis": [[PAIR], [PAIR, PAIR]], "pointer_basis": [PAIR, PAIR], "x": 1},
]


@pytest.mark.parametrize("cap", [None, 3, 4])
@pytest.mark.parametrize("tree", TREES, ids=range(len(TREES)))
def test_amplitude_trees_match_the_reference(monkeypatch, tree, cap):
    if cap is not None:  # batches of at most cap entries, or one array
        monkeypatch.setattr(runner, "AMPLITUDE_BATCH_ENTRIES", cap)
    for value in (tree, {"echo": tree}, [tree, 0.5]):
        assert json_text(value) == reference_text(value)


@pytest.mark.parametrize("cap", [None, 2])
def test_amplitude_tree_with_a_non_finite_entry_raises_the_same_error(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(runner, "AMPLITUDE_BATCH_ENTRIES", cap)
    for bad in (math.nan, -math.inf):
        late = np.array([[0.5, 0.25], [bad, math.inf]])
        for tree in ([[PAIR], [PAIR, late]], {"a": [PAIR, [late]]}):
            with pytest.raises(ValueError) as expected:
                reference_text(tree)
            with pytest.raises(ValueError) as caught:
                json_text(tree)
            assert str(caught.value) == str(expected.value)


def test_amplitude_tree_takes_one_template_per_batch(monkeypatch):
    arrays = []  # the number of arrays each template formats
    template = runner._amplitude_text

    def counted(batch):
        arrays.append(sum(type(item) is tuple for item in batch))
        return template(batch)

    monkeypatch.setattr(runner, "_amplitude_text", counted)
    tree = {"system_eigenbasis": [[PAIR] * 3, [PAIR] * 2], "pointer_basis": [PAIR] * 4}
    json_text(tree)
    assert arrays == [5, 4]  # one per family
    arrays.clear()
    monkeypatch.setattr(runner, "AMPLITUDE_BATCH_ENTRIES", 8)  # two arrays per batch
    assert json_text(tree) == reference_text(tree)
    assert [count for count in arrays if count] == [2, 2, 1, 2, 2]


def test_row_templates_are_built_once_per_indent_per_batch(monkeypatch):
    # an explicit eigenbasis and transfer family (degeneracies [2, 1, 3]) beside a ready
    # state holding 1.0 and -0.0: integral entries, and arrays at two depths in one batch
    document = haar_document("system_observable")
    basis = document["bcl"]["basis"]
    basis["ready_state"] = [[1.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0]]
    document["bcl"]["transfer_family"] = basis["system_eigenbasis"]
    scenario = validate_scenario_data(document)
    batches, built = [], []
    template, rows = runner._amplitude_text, runner._row_templates

    def counted_text(batch):
        built.append([])
        batches.append({item[1] + "  " for item in batch if type(item) is tuple and len(item[0])})
        return template(batch)

    def counted_rows(inner):
        built[-1].append(inner)
        return rows(inner)

    monkeypatch.setattr(runner, "_amplitude_text", counted_text)
    monkeypatch.setattr(runner, "_row_templates", counted_rows)
    bcl = scenario["bcl"]
    basis = bcl["basis"]
    tree = [basis["system_eigenbasis"], bcl["transfer_family"], basis["ready_state"]]
    assert json_text(tree) == reference_text(tree)
    assert len(batches) == 1 and len(batches[0]) == 2  # one batch, two indents
    report = run_scenario(scenario)
    assert report.all_passed, [v.name for v in report.verdicts if not v.passed]
    meta = {"duration_seconds": report.duration_seconds}
    document = {"payload": payload_document(report), "meta": meta}
    assert render_report(report) == reference_text(document) + "\n"
    for indents, inners in zip(batches, built):
        assert sorted(inners) == sorted(indents)  # each indent once, none twice
