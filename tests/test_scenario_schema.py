"""The validated scenario is its own echo, and every schema fault names its key path.

Validating the JSON text of a report's ``scenario`` echo must give the same
text back, whatever key order, number literals and amplitude forms the
original document used.  A document with one fault must be refused with that
fault's key path and a fixed message, wherever in its amplitude family the
fault sits: the family is converted by one ``np.fromiter`` and only walked
entry by entry when something in it is off.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import ValidationError, scenario
from pointerlab.scenario import TOLERANCE_DEFAULTS, validate_scenario_data
from helpers import json_text, pairs, random_unitary

WITNESSES = ("sigma_x_pattern", "system_observable")


def numbers(lo, hi):
    """Int or float literals in ``[lo, hi]``."""
    return st.one_of(st.integers(lo, hi), st.floats(lo, hi, allow_nan=False))


def positive(hi):
    return st.one_of(st.integers(1, hi), st.floats(0.01, hi))


AMPLITUDE = st.one_of(numbers(-2, 2), st.lists(numbers(-2, 2), min_size=2, max_size=2))
NONZERO_AMPLITUDE = st.one_of(positive(2), st.tuples(positive(2), numbers(-2, 2)).map(list))


def vectors(size):
    return st.lists(AMPLITUDE, min_size=size, max_size=size)


@st.composite
def optional_blocks(draw, document):
    kind = document["scenario_kind"]
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(sorted(TOLERANCE_DEFAULTS[kind])), unique=True))
        document["tolerances"] = {name: draw(numbers(0, 1)) for name in names}
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(["json", "csv"]), unique=True))
        document["output"] = {key: draw(st.none() | st.text(max_size=4)) for key in keys}
    return document


@st.composite
def lattice_documents(draw, kind):
    document = {
        "scenario_kind": kind,
        "grid": {
            "x_min": draw(numbers(-50, 0)),
            "dx": draw(positive(1)),
            "n_points": draw(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096])),
        },
        "packets": [
            {"center": draw(numbers(-50, 50)), "width": draw(positive(5))} for _ in range(2)
        ],
    }
    if kind == "dlocal":
        lower = draw(numbers(-10, 10))
        document["domain"] = {"lower": lower, "upper": lower + draw(numbers(0, 5))}
    return draw(optional_blocks(document))


@st.composite
def bcl_documents(draw, kind):
    degeneracies = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    sectors, system_dim = len(degeneracies), sum(degeneracies)
    bcl = {
        "eigenvalues": draw(
            st.lists(numbers(-5, 5), min_size=sectors, max_size=sectors, unique_by=float)
        ),
        "degeneracies": degeneracies,
    }
    apparatus_dim = sectors
    if draw(st.booleans()):
        apparatus_dim = bcl["apparatus_dim"] = draw(st.integers(sectors, sectors + 2))

    def family():
        return [[draw(vectors(system_dim)) for _ in range(d)] for d in degeneracies]

    basis = draw(st.sampled_from(["absent", "canonical", "explicit"]))
    if basis == "canonical":
        bcl["basis"] = "canonical"
    elif basis == "explicit":
        bcl["basis"] = {
            "system_eigenbasis": family(),
            "pointer_basis": [draw(vectors(apparatus_dim)) for _ in range(sectors)],
        }
        if draw(st.booleans()):
            bcl["basis"]["ready_state"] = draw(vectors(apparatus_dim))
    transfer = draw(st.sampled_from(["absent", "default", "explicit"]))
    if transfer != "absent":
        bcl["transfer_family"] = "default" if transfer == "default" else family()
    document = {
        "scenario_kind": kind,
        "bcl": bcl,
        "initial_state": [draw(NONZERO_AMPLITUDE), *draw(vectors(system_dim - 1))],
    }
    if kind == "full_measurement" and draw(st.booleans()):
        document["witness"] = draw(st.sampled_from(WITNESSES))
    return draw(optional_blocks(document))


DOCUMENTS = st.one_of(
    *(lattice_documents(kind) for kind in ("symmetrization", "dlocal")),
    *(bcl_documents(kind) for kind in ("bcl", "full_measurement")),
)


@st.composite
def reordered(draw, value):
    """The same JSON value with the keys of every object in a drawn order."""
    if isinstance(value, dict):
        keys = draw(st.permutations(list(value)))
        return {key: draw(reordered(value[key])) for key in keys}
    if isinstance(value, list):
        return [draw(reordered(entry)) for entry in value]
    return value


@settings(max_examples=100)
@given(data=st.data())
def test_echo_is_a_fixed_point(data):
    document = data.draw(DOCUMENTS)
    echo = json_text(validate_scenario_data(document))
    assert json_text(validate_scenario_data(json.loads(echo))) == echo
    shuffled = data.draw(reordered(document))
    assert json_text(validate_scenario_data(shuffled)) == echo


def test_uniform_amplitude_lists_are_checked_without_the_walk(monkeypatch):
    calls = []
    walk = scenario._amplitude
    monkeypatch.setattr(scenario, "_amplitude", lambda entry: calls.append(entry) or walk(entry))
    state = np.random.default_rng(3).normal(size=(2048, 2))
    document = {
        "scenario_kind": "full_measurement",
        "bcl": {"eigenvalues": [0.0, 1.0], "degeneracies": [1024, 1024]},  # da = K = 2
        "initial_state": state.tolist(),
    }
    echo = validate_scenario_data(document)["initial_state"]
    assert calls == []
    assert echo.shape == (2048, 2) and not echo.flags.writeable
    assert np.array_equal(echo, state)
    # bare numbers get zero imaginary parts on the same path
    document["initial_state"] = [1, 2.5] * 1024
    echo = validate_scenario_data(document)["initial_state"]
    assert calls == []
    assert echo.tolist() == [[1.0, 0.0], [2.5, 0.0]] * 1024
    # a mixed list is walked, to the values the walk has always given
    document["initial_state"] = [1, [0.5, -2], 3.0, [0, -0.0]] * 512
    echo = validate_scenario_data(document)["initial_state"]
    assert len(calls) == 2048
    assert echo.tolist() == [[1.0, 0.0], [0.5, -2.0], [3.0, 0.0], [0.0, -0.0]] * 512


def ladder_batch():
    """Documents shaped like a sector-ladder batch: one sector per level, every other one explicit."""
    rng = np.random.default_rng(19)
    documents = []
    for sectors, count in ((8, 12), (12, 6), (16, 2)):
        for i in range(count):
            bcl = {"eigenvalues": list(map(float, range(sectors))), "degeneracies": [1] * sectors}
            if i % 2:
                eigenbasis, pointers = random_unitary(rng, sectors), random_unitary(rng, sectors)
                bcl["basis"] = {
                    "system_eigenbasis": [[column] for column in pairs(eigenbasis)],
                    "pointer_basis": pairs(pointers),
                }
            documents.append(
                {
                    "scenario_kind": "full_measurement",
                    "bcl": bcl,
                    "initial_state": rng.normal(size=(sectors, 2)).tolist(),
                }
            )
    return documents


def test_each_amplitude_family_is_converted_by_one_fromiter(monkeypatch):
    documents = ladder_batch()
    calls = []
    fromiter = np.fromiter
    monkeypatch.setattr(np, "fromiter", lambda *args, **kw: calls.append(1) or fromiter(*args, **kw))
    for document in documents:
        validate_scenario_data(document)
    # one initial state per document, an eigenbasis and a pointer basis per explicit one
    assert len(calls) == 20 + 2 * 10


SYM = {
    "scenario_kind": "symmetrization",
    "grid": {"x_min": -20.0, "dx": 0.078125, "n_points": 512},
    "packets": [{"center": 0.0, "width": 1.0}, {"center": 10.0, "width": 1.0}],
}
DLOCAL = {**SYM, "scenario_kind": "dlocal", "domain": {"lower": -5.0, "upper": 5.0}}
BCL = {
    "scenario_kind": "bcl",
    "bcl": {"eigenvalues": [1.0, -1.0], "degeneracies": [1, 1]},
    "initial_state": [1, [0, 1]],
}
FULL = {**BCL, "scenario_kind": "full_measurement"}
EXPLICIT = {
    **BCL,
    "bcl": {
        **BCL["bcl"],
        "basis": {
            "system_eigenbasis": [[[1, 0]], [[0, 1]]],
            "pointer_basis": [[1, 0], [0, 1]],
            "ready_state": [1, 0],
        },
    },
}
PAIRS = {**BCL, "initial_state": [[1, 0], [0, 1]]}  # checked by one np.array
# two sectors (1 + 2 vectors) and three pointers, all in pairs, so each family
# is converted as one until a fault sends it to the walk
LADDER = {
    **BCL,
    "bcl": {
        "eigenvalues": [1.0, -1.0],
        "degeneracies": [1, 2],
        "apparatus_dim": 3,
        "basis": {
            "system_eigenbasis": [[[[1, 0], [0, 0], [0, 0]]], [[[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]],
            "pointer_basis": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
        },
        "transfer_family": [[[[1, 0], [0, 0], [0, 0]]], [[[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]],
    },
    "initial_state": [[1, 0], [0, 1], [0.5, 0]],
}
EIGEN = ["bcl", "basis", "system_eigenbasis"]
EIGEN_PATH = "scenario.bcl.basis.system_eigenbasis"
POINTER = ["bcl", "basis", "pointer_basis"]
POINTER_PATH = "scenario.bcl.basis.pointer_basis"
TRANSFER_PATH = "scenario.bcl.transfer_family"
# a fault in sector 0 is named before a wrong vector count in sector 1
EARLY_AND_LATE = [[[[1, 0], [0, True], [0, 0]]], [[[0, 0], [1, 0], [0, 0]]]]
DROP = object()
KINDS = "('symmetrization', 'dlocal', 'bcl', 'full_measurement')"
POWER_OF_TWO = "scenario.grid.n_points: must be a power of two between 64 and 4096"
HUGE = 10**400  # an exact integer beyond the float range

# (base document, key path to the edited entry, new value or DROP, message)
FAULTS = [
    (SYM, [], [SYM], "scenario: expected an object"),
    (SYM, ["scenario_kind"], DROP, f"scenario.scenario_kind: expected one of {KINDS}"),
    (SYM, ["scenario_kind"], "nope", f"scenario.scenario_kind: expected one of {KINDS}"),
    (SYM, ["grid"], DROP, "scenario: missing required key 'grid'"),
    (SYM, ["extra"], 1, "scenario: unknown key 'extra'"),
    (SYM, ["domain"], {"lower": 0, "upper": 1}, "scenario: unknown key 'domain'"),
    (SYM, ["grid"], [1], "scenario.grid: expected an object"),
    (SYM, ["grid", "dx"], DROP, "scenario.grid: missing required key 'dx'"),
    (SYM, ["grid", "y"], 1, "scenario.grid: unknown key 'y'"),
    (SYM, ["grid", "n_points"], 100, POWER_OF_TWO),
    (SYM, ["grid", "n_points"], 32, POWER_OF_TWO),
    (SYM, ["grid", "n_points"], 8192, POWER_OF_TWO),
    (SYM, ["grid", "n_points"], 0, "scenario.grid.n_points: must be positive"),
    (SYM, ["grid", "n_points"], 512.0, "scenario.grid.n_points: expected an integer"),
    (SYM, ["grid", "n_points"], True, "scenario.grid.n_points: expected an integer"),
    (SYM, ["grid", "dx"], 0, "scenario.grid.dx: must be positive"),
    (SYM, ["grid", "dx"], "a", "scenario.grid.dx: expected a number"),
    (SYM, ["grid", "x_min"], float("inf"), "scenario.grid.x_min: must be finite"),
    (SYM, ["packets"], [{"center": 0, "width": 1}], "scenario.packets: expected a list of exactly two packets"),
    (SYM, ["packets", 0], 3, "scenario.packets[0]: expected an object"),
    (SYM, ["packets", 1, "width"], DROP, "scenario.packets[1]: missing required key 'width'"),
    (SYM, ["packets", 1, "w"], 1, "scenario.packets[1]: unknown key 'w'"),
    (SYM, ["packets", 0, "width"], -1, "scenario.packets[0].width: must be positive"),
    (SYM, ["packets", 0, "center"], float("nan"), "scenario.packets[0].center: must be finite"),
    (DLOCAL, ["domain"], DROP, "scenario: missing required key 'domain'"),
    (DLOCAL, ["domain", "upper"], DROP, "scenario.domain: missing required key 'upper'"),
    (DLOCAL, ["domain", "middle"], 0, "scenario.domain: unknown key 'middle'"),
    (DLOCAL, ["domain", "lower"], None, "scenario.domain.lower: expected a number"),
    (DLOCAL, ["domain", "upper"], -6, "scenario.domain: upper must not be below lower"),
    (BCL, ["witness"], "sigma_x_pattern", "scenario: unknown key 'witness'"),
    (BCL, ["bcl"], [], "scenario.bcl: expected an object"),
    (BCL, ["bcl", "eigenvalues"], DROP, "scenario.bcl: missing required key 'eigenvalues'"),
    (BCL, ["bcl", "mystery"], True, "scenario.bcl: unknown key 'mystery'"),
    (BCL, ["bcl", "eigenvalues"], [], "scenario.bcl.eigenvalues: expected a non-empty list"),
    (BCL, ["bcl", "eigenvalues"], [1, 1.0], "scenario.bcl.eigenvalues: must be distinct"),
    (BCL, ["bcl", "eigenvalues", 1], "a", "scenario.bcl.eigenvalues[1]: expected a number"),
    (BCL, ["bcl", "degeneracies"], [1], "scenario.bcl.degeneracies: expected one entry per eigenvalue"),
    (BCL, ["bcl", "degeneracies", 1], 0, "scenario.bcl.degeneracies[1]: must be positive"),
    (BCL, ["bcl", "degeneracies", 1], 1.0, "scenario.bcl.degeneracies[1]: expected an integer"),
    (BCL, ["bcl", "apparatus_dim"], 1, "scenario.bcl.apparatus_dim: needs at least one dimension per sector"),
    (BCL, ["bcl", "apparatus_dim"], None, "scenario.bcl.apparatus_dim: expected an integer"),
    (BCL, ["bcl", "apparatus_dim"], 2049, "scenario.bcl: system_dim * apparatus_dim exceeds the cap 4096"),
    (BCL, ["bcl", "basis"], "other", "scenario.bcl.basis: expected an object"),
    (BCL, ["bcl", "transfer_family"], None, "scenario.bcl.transfer_family: expected one sector per eigenvalue (2)"),
    (BCL, ["bcl", "transfer_family"], [[[1, 0]]], "scenario.bcl.transfer_family: expected one sector per eigenvalue (2)"),
    (BCL, ["bcl", "transfer_family"], [[[1, 0]], []], "scenario.bcl.transfer_family[1]: expected a non-empty list of vectors"),
    (BCL, ["bcl", "transfer_family"], [[[1, 0]], [[0, 1], [1, 0]]], "scenario.bcl.transfer_family[1]: expected exactly 1 vectors"),
    (BCL, ["bcl", "transfer_family"], [[[1, 0]], [[]]], "scenario.bcl.transfer_family[1][0]: expected a non-empty list of amplitudes"),
    (BCL, ["initial_state"], DROP, "scenario: missing required key 'initial_state'"),
    (BCL, ["initial_state"], 3, "scenario.initial_state: expected a non-empty list of amplitudes"),
    (BCL, ["initial_state"], [1], "scenario.initial_state: expected 2 amplitudes for the configured system"),
    (BCL, ["initial_state"], [0, [0, -0.0]], "scenario.initial_state: must not be the zero vector"),
    (BCL, ["initial_state", 1], [1, 2, 3], "scenario.initial_state[1]: expected a number or an [re, im] pair"),
    (BCL, ["initial_state", 1], True, "scenario.initial_state[1]: expected a number or an [re, im] pair"),
    (BCL, ["initial_state", 1], [float("inf"), 0], "scenario.initial_state[1][0]: must be finite"),
    (BCL, ["initial_state", 1], ["a", 0], "scenario.initial_state[1][0]: expected a number"),
    (BCL, ["initial_state", 0], float("nan"), "scenario.initial_state[0]: must be finite"),
    (EXPLICIT, ["bcl", "basis", "pointer_basis"], DROP, "scenario.bcl.basis: missing required key 'pointer_basis'"),
    (EXPLICIT, ["bcl", "basis", "extra"], 1, "scenario.bcl.basis: unknown key 'extra'"),
    (EXPLICIT, ["bcl", "basis", "ready_state"], [], "scenario.bcl.basis.ready_state: expected a non-empty list of amplitudes"),
    (EXPLICIT, ["bcl", "basis", "pointer_basis"], [[1, 0]], "scenario.bcl.basis.pointer_basis: expected exactly 2 vectors"),
    (EXPLICIT, ["bcl", "basis", "system_eigenbasis", 0], [[1, 0], [0, 1]], "scenario.bcl.basis.system_eigenbasis[0]: expected exactly 1 vectors"),
    (EXPLICIT, ["bcl", "basis", "system_eigenbasis", 1, 0, 1], "z", "scenario.bcl.basis.system_eigenbasis[1][0][1]: expected a number or an [re, im] pair"),
    (FULL, ["witness"], "other", "scenario.witness: expected one of ('sigma_x_pattern', 'system_observable')"),
    (BCL, ["tolerances"], [1], "scenario.tolerances: expected an object"),
    (BCL, ["tolerances"], {"nonexistent": 1.0}, "scenario.tolerances.nonexistent: unknown tolerance for kind 'bcl'"),
    (SYM, ["tolerances"], {"unitarity": 1.0}, "scenario.tolerances.unitarity: unknown tolerance for kind 'symmetrization'"),
    (BCL, ["tolerances"], {"unitarity": -1}, "scenario.tolerances.unitarity: must be nonnegative"),
    (FULL, ["tolerances"], {"rule2_coherence": float("-inf")}, "scenario.tolerances.rule2_coherence: must be finite"),
    (SYM, ["output"], "x", "scenario.output: expected an object"),
    (SYM, ["output"], {"pdf": "x"}, "scenario.output: unknown key 'pdf'"),
    (SYM, ["output"], {"json": 3}, "scenario.output.json: expected a path string"),
    (SYM, ["output"], {"csv": []}, "scenario.output.csv: expected a path string"),
    # vector lengths follow the configured dimensions, so an explicit basis
    # cannot carry an apparatus larger than the one the dimension cap checked
    (EXPLICIT, ["bcl", "basis", "system_eigenbasis", 1, 0], [0, 1, 0], "scenario.bcl.basis.system_eigenbasis[1][0]: expected 2 amplitudes for the configured system"),
    (EXPLICIT, ["bcl", "basis", "pointer_basis", 1], [0, 1, 0], "scenario.bcl.basis.pointer_basis[1]: expected 2 amplitudes for the configured apparatus"),
    (EXPLICIT, ["bcl", "basis", "ready_state"], [1], "scenario.bcl.basis.ready_state: expected 2 amplitudes for the configured apparatus"),
    (EXPLICIT, ["bcl", "apparatus_dim"], 3, "scenario.bcl.basis.pointer_basis[0]: expected 3 amplitudes for the configured apparatus"),
    (EXPLICIT, ["bcl", "basis"], {"system_eigenbasis": [[[1, 0]], [[0, 1]]], "pointer_basis": [[1, 0, 0], [0, 1, 0]], "ready_state": [1, 0, 0]}, "scenario.bcl.basis.pointer_basis[0]: expected 2 amplitudes for the configured apparatus"),
    (BCL, ["bcl", "transfer_family"], [[[1, 0]], [[0, 1, 0]]], "scenario.bcl.transfer_family[1][0]: expected 2 amplitudes for the configured system"),
    # an integer literal too large for a float is refused like an infinity
    (BCL, ["initial_state", 1], HUGE, "scenario.initial_state[1]: must be finite"),
    (BCL, ["initial_state", 0], [0, -HUGE], "scenario.initial_state[0][1]: must be finite"),
    (EXPLICIT, ["bcl", "basis", "pointer_basis", 1, 0], HUGE, "scenario.bcl.basis.pointer_basis[1][0]: must be finite"),
    (SYM, ["packets", 1, "center"], HUGE, "scenario.packets[1].center: must be finite"),
    (SYM, ["grid", "dx"], HUGE, "scenario.grid.dx: must be finite"),
    (BCL, ["bcl", "eigenvalues", 0], -HUGE, "scenario.bcl.eigenvalues[0]: must be finite"),
    (BCL, ["tolerances"], {"unitarity": HUGE}, "scenario.tolerances.unitarity: must be finite"),
    # faults that np.array(..., dtype=float) converts, overflows on or lets through
    (PAIRS, ["initial_state", 1], [True, 0], "scenario.initial_state[1][0]: expected a number"),
    (PAIRS, ["initial_state", 1], ["0.5", 0], "scenario.initial_state[1][0]: expected a number"),
    (PAIRS, ["initial_state", 1], [0, HUGE], "scenario.initial_state[1][1]: must be finite"),
    (PAIRS, ["initial_state", 1], [float("nan"), 0], "scenario.initial_state[1][0]: must be finite"),
    (PAIRS, ["initial_state", 1], [1, 2, 3], "scenario.initial_state[1]: expected a number or an [re, im] pair"),
    # a fault in a later sector or a later pointer of a family converted as one
    (LADDER, [*EIGEN, 1, 1, 2], True, f"{EIGEN_PATH}[1][1][2]: expected a number or an [re, im] pair"),
    (LADDER, [*EIGEN, 1, 1, 2, 1], True, f"{EIGEN_PATH}[1][1][2][1]: expected a number"),
    (LADDER, [*EIGEN, 1, 0, 1], "1", f"{EIGEN_PATH}[1][0][1]: expected a number or an [re, im] pair"),
    (LADDER, [*EIGEN, 1, 0, 1, 0], "1", f"{EIGEN_PATH}[1][0][1][0]: expected a number"),
    (LADDER, [*EIGEN, 1, 1], [[0, 0], 1], f"{EIGEN_PATH}[1][1]: expected 3 amplitudes for the configured system"),
    (LADDER, [*EIGEN, 1, 1], [[0, 0], [1, 0]], f"{EIGEN_PATH}[1][1]: expected 3 amplitudes for the configured system"),
    (LADDER, [*EIGEN, 1, 1, 0], [0, HUGE], f"{EIGEN_PATH}[1][1][0][1]: must be finite"),
    (LADDER, [*EIGEN, 1, 1, 0], HUGE, f"{EIGEN_PATH}[1][1][0]: must be finite"),
    (LADDER, [*EIGEN, 1, 1, 0], [float("nan"), 0], f"{EIGEN_PATH}[1][1][0][0]: must be finite"),
    (LADDER, [*EIGEN, 1], [[[0, 0], [1, 0], [0, 0]]], f"{EIGEN_PATH}[1]: expected exactly 2 vectors"),
    (LADDER, EIGEN, EARLY_AND_LATE, f"{EIGEN_PATH}[0][0][1][1]: expected a number"),
    (LADDER, ["bcl", "transfer_family", 1, 1, 1], False, f"{TRANSFER_PATH}[1][1][1]: expected a number or an [re, im] pair"),
    (LADDER, ["bcl", "transfer_family", 1, 0], [[0, 0], [1, 0], 0, 0], f"{TRANSFER_PATH}[1][0]: expected 3 amplitudes for the configured system"),
    (LADDER, [*POINTER, 1, 2], True, f"{POINTER_PATH}[1][2]: expected a number or an [re, im] pair"),
    (LADDER, [*POINTER, 1, 2, 0], "0", f"{POINTER_PATH}[1][2][0]: expected a number"),
    (LADDER, [*POINTER, 1], [[0, 0], 1], f"{POINTER_PATH}[1]: expected 3 amplitudes for the configured apparatus"),
    (LADDER, [*POINTER, 1, 1], [-HUGE, 0], f"{POINTER_PATH}[1][1][0]: must be finite"),
    (LADDER, [*POINTER, 1], "x", f"{POINTER_PATH}[1]: expected a non-empty list of amplitudes"),
    # a packet divides the squared distance to each grid point by 4 width^2
    (SYM, ["packets", 1, "width"], 1e300, "scenario.packets[1].width: too large: 4 * width**2 overflows"),
    (SYM, ["grid", "dx"], 1e300, "scenario.grid: too large: (n_points * dx)**2 overflows"),
    # the position kernel divides each coordinate by dx
    (SYM, ["grid"], {"x_min": 1e308, "dx": 1e-300, "n_points": 512}, "scenario.grid: too large: |x| / dx overflows"),
    # a witness expectation is a weighted mean of the eigenvalues, finite while 2 * |o| is
    (FULL, ["bcl", "eigenvalues", 0], 1.7976931348623157e308, "scenario.bcl.eigenvalues[0]: too large: 2 * |eigenvalue| overflows"),
    (BCL, ["bcl", "eigenvalues", 1], -9e307, "scenario.bcl.eigenvalues[1]: too large: 2 * |eigenvalue| overflows"),
]


def with_fault(base, keys, value):
    if not keys:
        return value
    document = copy.deepcopy(base)
    parent = document
    for key in keys[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return document


@pytest.mark.parametrize(
    "base, keys, value, message",
    FAULTS,
    ids=[f"{i}-{'.'.join(map(str, keys))}" for i, (_, keys, *_) in enumerate(FAULTS)],
)
def test_single_fault_names_its_key_path(base, keys, value, message):
    validate_scenario_data(base)
    with pytest.raises(ValidationError) as caught:
        validate_scenario_data(with_fault(base, keys, value))
    assert str(caught.value) == message



def family_arrays(document):
    basis, transfer = document["bcl"]["basis"], document["bcl"]["transfer_family"]
    vectors = [*sum(basis["system_eigenbasis"], []), *basis["pointer_basis"], *sum(transfer, [])]
    return [*vectors, document["initial_state"]]


def test_mixed_or_chunked_families_give_the_arrays_of_the_walk(monkeypatch):
    reference = family_arrays(validate_scenario_data(LADDER))
    # a bare number among pairs in a later sector and a later pointer is walked
    mixed = copy.deepcopy(LADDER)
    mixed["bcl"]["basis"]["system_eigenbasis"][1][1] = [0, [0, 0], [1, 0]]
    mixed["bcl"]["basis"]["pointer_basis"][1] = [[0, 0], 1, 0]
    # chunks of one vector, one of them bare numbers, are each converted alone
    monkeypatch.setattr(scenario, "AMPLITUDE_BATCH_ENTRIES", 6)
    chunked = copy.deepcopy(LADDER)
    chunked["bcl"]["transfer_family"][1][0] = [0, 1, 0]
    for document in (mixed, chunked):
        arrays = family_arrays(validate_scenario_data(document))
        assert len(arrays) == len(reference)
        for array, expected in zip(arrays, reference):
            assert array.shape == expected.shape and not array.flags.writeable
            assert np.array_equal(array, expected)
