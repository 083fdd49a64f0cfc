import json
import math

import numpy as np
import pytest

import oracle
import workloads
from pointerlab import cli

S = 1 / math.sqrt(2)


def _run(tmp_path, document, fmt="json"):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(document))
    out = tmp_path / f"out.{fmt}"
    code = cli.main(["run", str(scenario), "--format", fmt, "--out", str(out)])
    return code, out.read_text()


def test_hand_computed_qubit_probabilities_and_entropy():
    document = {
        "scenario_kind": "full_measurement",
        "bcl": {"eigenvalues": [1.0, -1.0], "degeneracies": [1, 1]},
        "initial_state": [0.6, 0.8],
    }
    expect = oracle.measurement_reference(document)
    assert expect["values"]["probability_0"][0] == pytest.approx(0.36, abs=1e-15)
    assert expect["values"]["probability_1"][0] == pytest.approx(0.64, abs=1e-15)
    entropy = -(0.36 * math.log(0.36) + 0.64 * math.log(0.64))
    assert expect["values"]["entropy_expected"][0] == pytest.approx(entropy, abs=1e-15)


def test_hand_computed_rotated_eigenbasis():
    # Eigenbasis (1, 1)/sqrt2, (1, -1)/sqrt2: p = (0.6 +- 0.8)^2 / 2.
    document = {
        "scenario_kind": "bcl",
        "bcl": {
            "eigenvalues": [1.0, -1.0],
            "degeneracies": [1, 1],
            "basis": {"system_eigenbasis": [[[S, S]], [[S, -S]]], "pointer_basis": [[1, 0], [0, 1]]},
        },
        "initial_state": [0.6, 0.8],
    }
    expect = oracle.measurement_reference(document)
    assert expect["values"]["probability_0"][0] == pytest.approx(0.98, abs=1e-15)
    assert expect["values"]["probability_1"][0] == pytest.approx(0.02, abs=1e-15)
    assert "entropy_expected" not in expect["values"]


ROTATED_POINTER = {
    "scenario_kind": "full_measurement",
    "bcl": {
        "eigenvalues": [1.0, -1.0],
        "degeneracies": [1, 1],
        "basis": {"system_eigenbasis": [[[1, 0]], [[0, 1]]], "pointer_basis": [[S, S], [S, -S]]},
    },
    "initial_state": [0.6, 0.8],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rule2_defect_reproducer_is_an_error_at_the_default_tolerance(tmp_path, fmt):
    # Known defect: rule2_coherence leaves ~1e-17 of roundoff against a
    # default tolerance of exactly 0.0, so the CLI exits 2.
    code, text = _run(tmp_path, ROTATED_POINTER, fmt)
    misses, failed = oracle.check_report(oracle.measurement_reference(ROTATED_POINTER), text, fmt)
    assert misses == []
    assert failed == ["rule2_coherence"]
    assert code == 2
    assert oracle.classify(code, misses, failed) == "error"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rotated_pointer_passes_at_the_benchmark_tolerance(tmp_path, fmt):
    document = {**ROTATED_POINTER, "tolerances": {"rule2_coherence": oracle.ROUNDOFF}}
    code, text = _run(tmp_path, document, fmt)
    misses, failed = oracle.check_report(oracle.measurement_reference(document), text, fmt)
    assert (code, misses, failed) == (0, [], [])
    assert oracle.classify(code, misses, failed) == "ok"


def test_generated_measurements_set_the_rule2_tolerance():
    for op in workloads.generate("sector-ladder", 0):
        assert op.document["tolerances"] == {"rule2_coherence": oracle.ROUNDOFF}


def test_coherence_beyond_roundoff_is_a_miss_even_if_the_verdict_passed(tmp_path):
    document = {**ROTATED_POINTER, "tolerances": {"rule2_coherence": oracle.ROUNDOFF}}
    code, text = _run(tmp_path, document)
    report = json.loads(text)
    for verdict in report["payload"]["verdicts"]:
        if verdict["name"] == "rule2_coherence":
            verdict["residual"] = 1e-3
    expect = oracle.measurement_reference(document)
    misses, failed = oracle.check_report(expect, json.dumps(report), "json")
    assert failed == []
    assert len(misses) == 1 and misses[0].startswith("rule2_coherence residual")
    assert oracle.classify(code, misses, failed) == "error"


def test_a_wrong_value_is_a_miss(tmp_path):
    document = {
        "scenario_kind": "bcl",
        "bcl": {"eigenvalues": [1.0, -1.0], "degeneracies": [1, 1]},
        "initial_state": [0.6, 0.8],
    }
    code, text = _run(tmp_path, document)
    expect = oracle.measurement_reference(document)
    assert oracle.check_report(expect, text, "json") == ([], [])
    report = json.loads(text)
    report["payload"]["values"]["probability_0"] += 1e-6
    misses, _ = oracle.check_report(expect, json.dumps(report), "json")
    assert len(misses) == 1 and misses[0].startswith("probability_0")
    assert oracle.classify(code, misses, []) == "error"


def test_pair_position_of_orthogonal_packets_is_the_sum_of_moments():
    dx = 0.05
    x = -20 + dx * np.arange(800)
    psi = np.exp(-((x + 8) ** 2) / 4)
    phi = np.exp(-((x - 8) ** 2) / 4)
    psi /= np.sqrt(dx * np.sum(psi**2))
    phi /= np.sqrt(dx * np.sum(phi**2))
    total = dx * np.dot(psi, x * psi) + dx * np.dot(phi, x * phi)
    for sign in (1, -1):
        assert oracle.pair_position(psi, phi, x, dx, sign) == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_same_shape(tmp_path, workload):
    first = workloads.write_inputs(workloads.generate(workload, 3), tmp_path / "a")[1]
    again = workloads.write_inputs(workloads.generate(workload, 3), tmp_path / "b")[1]
    other_ops = workloads.generate(workload, 4)
    other = workloads.write_inputs(other_ops, tmp_path / "c")[1]
    assert first == again != other
    shape = [(op.kind, op.fmt) for op in workloads.generate(workload, 3)]
    assert shape == [(op.kind, op.fmt) for op in other_ops]


def test_second_packet_stays_right_of_zero_for_many_seeds():
    # unlocalized_discrepancy compares |<x>_phi| with the signed centre.
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        for n_points in (512, 1024):
            op = workloads.lattice_op(rng, "sweep", "dlocal", n_points)
            first, second = (packet["center"] for packet in op.document["packets"])
            assert first < op.document["domain"]["upper"] < second
            assert second > 5.0
