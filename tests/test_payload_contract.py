"""The results contract, pinned: a corpus of seeded documents against their stored payloads.

``payload_corpus.json`` holds, for every case below, the deterministic
payload (values and verdicts) computed at an earlier commit, with the
scenario echo and the document each stored as a SHA-256 digest of their
text.  The cases are the bundled demos, canonical and Haar-basis
``full_measurement`` ladders at D = 64, 144 and 256 with both witnesses,
the corner documents of ``test_corner_memory``, both lattice kinds at
n = 512 and 1024, a sector under the probability floor and tolerance
overrides that fail a verdict.  Key sets, verdict names, pass flags,
strings and integers must match exactly; each float must lie within
``1e-12 * max(1, |ref|)`` of the stored one, so a change may move values
only at roundoff.  The echo is the validated document written back, so its
digest must match wherever the document's digest does: a BLAS build whose
QR moves a Haar basis at roundoff moves both.  Running this file as a
script, ``PYTHONPATH=src python tests/test_payload_contract.py``, rewrites
the corpus from the current code.
"""

import hashlib
import json
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from pointerlab import run_scenario
from pointerlab.cli import DEMO_SCENARIOS
from pointerlab.scenario import validate_scenario_data
from helpers import (
    canonical_measurement,
    explicit_document,
    haar_document,
    json_text,
    lattice_document,
    payload_document,
    random_unitary,
)
from test_corner_memory import CORNERS

CORPUS = Path(__file__).with_name("payload_corpus.json")
WITNESSES = ("sigma_x_pattern", "system_observable")


def demo(name):
    return json.loads(resources.files("pointerlab").joinpath("scenarios", name).read_text())


def ladder(basis, sectors, witness):
    """One level per sector against a ``K``-level pointer, on canonical or on Haar bases.

    The Haar bases take the default transfer family.
    """
    if basis == "canonical":
        return canonical_measurement([1] * sectors, witness=witness)
    rng = np.random.default_rng(sectors)
    eigenbasis, pointers = random_unitary(rng, sectors), random_unitary(rng, sectors)
    state = rng.normal(size=sectors) + 1j * rng.normal(size=sectors)
    return explicit_document([1] * sectors, sectors, eigenbasis, None, pointers, state, witness)


def with_tolerances(document, **tolerances):
    document["tolerances"] = {**document.get("tolerances", {}), **tolerances}
    return document


DOCUMENTS = {
    **{case: partial(demo, file) for case, file in DEMO_SCENARIOS.items()},
    **{f"haar-{witness}": partial(haar_document, witness) for witness in WITNESSES},
    **{
        f"{basis}-{sectors * sectors}-{witness}": partial(ladder, basis, sectors, witness)
        for basis in ("canonical", "haar")
        for sectors in (8, 12, 16)
        for witness in WITNESSES
    },
    **{f"corner-{name}": build for name, (build, _) in CORNERS.items()},
    "symmetrization-512": partial(lattice_document, "symmetrization", 512, 10.0),
    "symmetrization-1024-near": partial(lattice_document, "symmetrization", 1024, 2.0),
    "dlocal-512": partial(lattice_document, "dlocal", 512, 15.0),
    "dlocal-1024": partial(lattice_document, "dlocal", 1024, 12.0),
    # the middle sector's probability, 1e-14 / 2, is under the floor
    "floored-sector": lambda: {
        **canonical_measurement([1, 1, 1]),
        "initial_state": [[1.0, 0.0], [1e-7, 0.0], [1.0, 0.0]],
    },
    "failing-discrepancy": lambda: with_tolerances(
        lattice_document("symmetrization", 512, 10.0), discrepancy=1e-17
    ),
    "failing-marginal-system": lambda: with_tolerances(
        haar_document("sigma_x_pattern"), marginal_system=1e-20
    ),
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def entry(case):
    """A case's stored form: the digests of its document and echo, and its values and verdicts."""
    document = DOCUMENTS[case]()
    text = json.dumps(document)
    payload = payload_document(run_scenario(validate_scenario_data(document)))
    values_and_verdicts = {key: payload[key] for key in ("values", "verdicts")}
    return {
        "document": digest(text),
        "echo": digest(json_text(payload["scenario"])),
        # the floats as the report's JSON text reads back
        **json.loads(json_text(values_and_verdicts)),
    }


def assert_matches(value, reference, where: str) -> None:
    if isinstance(reference, dict):
        assert isinstance(value, dict) and value.keys() == reference.keys(), where
        for key, item in reference.items():
            assert_matches(value[key], item, f"{where}.{key}")
    elif isinstance(reference, list):
        assert isinstance(value, list) and len(value) == len(reference), where
        for index, (item, ref) in enumerate(zip(value, reference)):
            assert_matches(item, ref, f"{where}[{index}]")
    elif type(reference) is float:
        assert type(value) is float, where
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference)), (where, value, reference)
    else:
        assert type(value) is type(reference) and value == reference, (where, value, reference)


def test_snapshot_covers_every_case():
    assert sorted(json.loads(CORPUS.read_text())) == sorted(DOCUMENTS)


@pytest.mark.parametrize("case", DOCUMENTS)
def test_payload_matches_snapshot(case):
    reference = json.loads(CORPUS.read_text())[case]
    value = entry(case)
    document, echo = value.pop("document"), value.pop("echo")
    if document == reference.pop("document"):
        assert echo == reference["echo"], f"{case}: the echo of an unchanged document moved"
    del reference["echo"]
    assert_matches(value, reference, case)


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({case: entry(case) for case in DOCUMENTS}, indent=1) + "\n")
