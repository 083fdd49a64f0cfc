"""The results contract, pinned: each bundled demo and an explicit-basis run against a snapshot.

``payload_snapshot.json`` holds the deterministic payload (scenario echo,
values and verdicts) of every case below, as computed at an earlier commit.
Key sets, verdict names, pass flags, strings and integers must match
exactly; each float must lie within ``1e-12 * max(1, |ref|)`` of the stored
one, so a change may move values only at roundoff.  Running this file as a
script, ``PYTHONPATH=src python tests/test_payload_contract.py``, rewrites
the snapshot from the current code.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from pointerlab import run_scenario
from pointerlab.cli import DEMO_SCENARIOS
from pointerlab.scenario import load_scenario, validate_scenario_data
from helpers import haar_document, payload_text

SNAPSHOT = Path(__file__).with_name("payload_snapshot.json")
CASES = (*DEMO_SCENARIOS, "haar-sigma_x_pattern", "haar-system_observable")


def payload(case: str) -> dict:
    """The payload of one case, as the report's JSON text reads back."""
    if case in DEMO_SCENARIOS:
        bundled = resources.files("pointerlab").joinpath("scenarios", DEMO_SCENARIOS[case])
        with resources.as_file(bundled) as path:
            config = load_scenario(path)
    else:
        config = validate_scenario_data(haar_document(case.removeprefix("haar-")))
    return json.loads(payload_text(run_scenario(config)))


def assert_matches(value, reference, where: str) -> None:
    if isinstance(reference, dict):
        assert isinstance(value, dict) and value.keys() == reference.keys(), where
        for key, entry in reference.items():
            assert_matches(value[key], entry, f"{where}.{key}")
    elif isinstance(reference, list):
        assert isinstance(value, list) and len(value) == len(reference), where
        for index, (item, entry) in enumerate(zip(value, reference)):
            assert_matches(item, entry, f"{where}[{index}]")
    elif type(reference) is float:
        assert type(value) is float, where
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference)), (where, value, reference)
    else:
        assert type(value) is type(reference) and value == reference, (where, value, reference)


def test_snapshot_covers_every_case():
    assert sorted(json.loads(SNAPSHOT.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_payload_matches_snapshot(case):
    reference = json.loads(SNAPSHOT.read_text())[case]
    assert_matches(payload(case), reference, case)


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps({case: payload(case) for case in CASES}, indent=1) + "\n")
