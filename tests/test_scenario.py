import csv
import dataclasses
import io
import json
import math
import os
import threading
import warnings

import pytest

from pointerlab import (
    ParseError,
    ValidationError,
    cli,
    emit_report,
    load_scenario,
    run_scenario,
    runner,
)
from pointerlab.cli import main as cli_main
from pointerlab.runner import render_report
from helpers import json_text, payload_text

LN2 = 0.6931471805599453

MINIMAL_BCL = {
    "scenario_kind": "bcl",
    "bcl": {"eigenvalues": [1.0, -1.0], "degeneracies": [1, 1]},
    "initial_state": [[0.7071067811865475, 0.0], [0.7071067811865475, 0.0]],
}

SYMMETRIZATION = {
    "scenario_kind": "symmetrization",
    "grid": {"x_min": -20.0, "dx": 0.078125, "n_points": 512},
    "packets": [{"center": 0.0, "width": 1.0}, {"center": 10.0, "width": 1.0}],
}

DLOCAL_REMOTE_LEFT = {
    "scenario_kind": "dlocal",
    "grid": {"x_min": -20.0, "dx": 0.078125, "n_points": 512},
    "packets": [{"center": 0.0, "width": 1.0}, {"center": -15.0, "width": 1.0}],
    "domain": {"lower": -5.0, "upper": 5.0},
}

FULL_MEASUREMENT = {
    "scenario_kind": "full_measurement",
    "bcl": {"eigenvalues": [1.0, -1.0], "degeneracies": [1, 1]},
    "initial_state": [[0.7071067811865475, 0.0], [0.7071067811865475, 0.0]],
}


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestLoadScenario:
    def test_minimal_bcl_defaults(self, tmp_path):
        echo = load_scenario(write_scenario(tmp_path, MINIMAL_BCL)).document
        assert echo["bcl"]["apparatus_dim"] == 2
        assert echo["bcl"]["transfer_family"] == "default"  # transfer = eigenbasis
        assert echo["bcl"]["basis"] == "canonical"
        assert echo["tolerances"]["probability_sum"] == 1e-10

    def test_full_measurement_witness_default(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path, FULL_MEASUREMENT))
        assert config.document["witness"] == "sigma_x_pattern"

    def test_rejects_non_power_of_two_grid(self, tmp_path):
        data = dict(SYMMETRIZATION)
        data["grid"] = {"x_min": -20.0, "dx": 0.4, "n_points": 100}
        with pytest.raises(ValidationError, match="power of two"):
            load_scenario(write_scenario(tmp_path, data))

    def test_rejects_unknown_top_level_key(self, tmp_path):
        data = dict(MINIMAL_BCL)
        data["foo"] = 1
        with pytest.raises(ValidationError, match="'foo'"):
            load_scenario(write_scenario(tmp_path, data))

    def test_rejects_unknown_nested_key(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL_BCL))
        data["bcl"]["mystery"] = True
        with pytest.raises(ValidationError, match="mystery"):
            load_scenario(write_scenario(tmp_path, data))

    def test_rejects_unknown_tolerance(self, tmp_path):
        data = dict(MINIMAL_BCL)
        data["tolerances"] = {"nonexistent": 1.0}
        with pytest.raises(ValidationError, match="nonexistent"):
            load_scenario(write_scenario(tmp_path, data))

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_rejects_a_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(json.dumps(MINIMAL_BCL).encode().replace(b"bcl", b"bc\xff", 1))
        with pytest.raises(ParseError, match="latin.json"):
            load_scenario(path)
        for command in ("run", "validate"):
            assert cli_main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and "0xff" in err

    def test_rejects_a_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(MINIMAL_BCL).encode())
        with pytest.raises(ParseError, match="bom.json"):
            load_scenario(path)
        for command in ("run", "validate"):
            assert cli_main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and "BOM" in err
            assert err.count("\n") == 1

    def test_reads_a_pipe_to_its_end(self, tmp_path):
        # a pipe reports size 0, so the text arrives over several reads
        path = tmp_path / "pipe.json"
        os.mkfifo(path)
        text = json.dumps(MINIMAL_BCL).encode()

        def feed():
            with open(path, "wb") as pipe:
                pipe.write(text[:7])
                pipe.flush()
                pipe.write(text[7:])

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        config = load_scenario(path)
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        expected = load_scenario(write_scenario(tmp_path, MINIMAL_BCL))
        assert json_text(config.document) == json_text(expected.document)

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"scenario_kind": ' + "9" * 5000 + "}"],
        ids=["nested-past-the-recursion-limit", "integer-past-the-digit-limit"],
    )
    def test_rejects_a_file_the_parser_cannot_hold(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="deep.json"):
            load_scenario(path)
        for command in ("run", "validate"):
            assert cli_main([command, str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_rejects_wrong_amplitude_count(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL_BCL))
        data["initial_state"] = [[1.0, 0.0]]
        with pytest.raises(ValidationError, match="initial_state"):
            load_scenario(write_scenario(tmp_path, data))

    def test_rejects_nonfinite_number(self, tmp_path):
        data = json.loads(json.dumps(SYMMETRIZATION))
        data["packets"][0]["center"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))  # json emits NaN literal
        with pytest.raises(ValidationError, match="finite"):
            load_scenario(path)


class TestRunScenario:
    def test_symmetrization_values(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path, SYMMETRIZATION))
        report = run_scenario(config)
        assert report.all_passed
        assert abs(report.values["two_particle_position_boson"] - 10.0) < 1e-5
        assert abs(report.values["single_particle_position_first"]) < 1e-6
        assert abs(report.values["single_particle_position_second"] - 10.0) < 1e-6

    def test_dlocal_remote_packet_left_of_domain(self, tmp_path):
        # the unlocalized difference is |<x>| of the remote packet, so a
        # negative centre must pass just like its mirror image
        report = run_scenario(load_scenario(write_scenario(tmp_path, DLOCAL_REMOTE_LEFT)))
        assert report.all_passed
        assert abs(report.values["unlocalized_difference"] - 15.0) < 1e-4

    def test_bcl_qubit_probabilities(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path, MINIMAL_BCL))
        report = run_scenario(config)
        assert report.all_passed
        assert abs(report.values["probability_0"] - 0.5) < 1e-12
        assert abs(report.values["probability_1"] - 0.5) < 1e-12

    def test_full_measurement_entropy(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path, FULL_MEASUREMENT))
        report = run_scenario(config)
        assert report.all_passed
        assert abs(report.values["entropy_rule2"] - LN2) < 1e-8
        assert report.values["pointer_coherence_rule2"] == 0.0

    def test_deterministic_payload(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path, FULL_MEASUREMENT))
        first = payload_text(run_scenario(config))
        second = payload_text(run_scenario(config))
        assert first == second

    def test_tolerance_override_can_fail_a_verdict(self, tmp_path):
        # unequal widths leave a genuine overlap discrepancy, not roundoff
        data = json.loads(json.dumps(SYMMETRIZATION))
        data["packets"][0]["width"], data["packets"][1]["width"] = 1.0, 1.2
        data["tolerances"] = {"discrepancy": 1e-30}
        report = run_scenario(load_scenario(write_scenario(tmp_path, data)))
        assert not report.all_passed
        failing = [v for v in report.verdicts if not v.passed]
        assert {v.name for v in failing} == {"discrepancy_boson", "discrepancy_fermion"}
        assert all(v.residual > 1e-12 for v in failing)

    def test_module_errors_annotated_with_stage(self, tmp_path):
        from pointerlab import RunStageError

        data = json.loads(json.dumps(MINIMAL_BCL))
        # rows stay orthonormal but the two sectors share a transfer vector,
        # so the premeasurement stage must refuse
        data["bcl"]["transfer_family"] = [[[1.0, 0.0]], [[1.0, 0.0]]]
        config = load_scenario(write_scenario(tmp_path, data))
        message = "^premeasure: transfer family is not orthonormal across sectors; residual "
        with pytest.raises(RunStageError, match=message):
            run_scenario(config)


class TestEmit:
    def test_json_round_trip(self, tmp_path):
        report = run_scenario(load_scenario(write_scenario(tmp_path, MINIMAL_BCL)))
        document = json.loads(render_report(report))
        assert document["payload"]["values"] == report.values
        for entry, verdict in zip(document["payload"]["verdicts"], report.verdicts):
            assert entry["name"] == verdict.name
            assert entry["residual"] == verdict.residual
            assert entry["tolerance"] == verdict.tolerance
            assert entry["passed"] == verdict.passed

    def test_float_half_survives_exactly(self, tmp_path):
        report = run_scenario(load_scenario(write_scenario(tmp_path, MINIMAL_BCL)))
        document = json.loads(render_report(report))
        # p = |1/sqrt(2)|^2 rounds to exactly 0.5 after normalization
        assert document["payload"]["values"]["probability_0"] == report.values["probability_0"]

    def test_csv_row_count(self, tmp_path):
        report = run_scenario(load_scenario(write_scenario(tmp_path, MINIMAL_BCL)))
        rows = list(csv.reader(io.StringIO(render_report(report, "csv"))))
        assert rows[0] == ["metric", "value", "tolerance", "verdict"]
        assert len(rows) - 1 == len(report.values) + len(report.verdicts)
        by_name = {row[0]: row for row in rows[1:]}
        assert float(by_name["probability_0"][1]) == report.values["probability_0"]
        assert by_name["unitarity"][3] == "pass"

    def test_emit_writes_file(self, tmp_path):
        report = run_scenario(load_scenario(write_scenario(tmp_path, MINIMAL_BCL)))
        out = tmp_path / "report.json"
        emit_report(report, "json", out)
        assert json.loads(out.read_text())["payload"]["values"] == report.values

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("existing", [b"an older report\n", None])
    def test_a_render_error_leaves_the_target_untouched(self, tmp_path, fmt, existing):
        report = run_scenario(load_scenario(write_scenario(tmp_path, MINIMAL_BCL)))
        broken = dataclasses.replace(report, values={**report.values, "late": math.nan})
        out = tmp_path / f"report.{fmt}"
        if existing is not None:
            out.write_bytes(existing)
        with pytest.raises(ValueError, match="non-finite"):
            emit_report(broken, fmt, out)
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    def test_a_long_report_is_written_in_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "REPORT_WRITE_BYTES", 64)
        writes = []
        write = os.write

        def counted(fd, data):
            writes.append(len(data))
            return write(fd, data)

        monkeypatch.setattr(runner.os, "write", counted)
        report = run_scenario(load_scenario(write_scenario(tmp_path, FULL_MEASUREMENT)))
        out = tmp_path / "report.json"
        emit_report(report, "json", out)
        assert out.read_text() == render_report(report)
        assert len(writes) > 1


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, MINIMAL_BCL)
        assert cli_main(["run", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["scenario"]["scenario_kind"] == "bcl"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_run_streams_the_rendered_report_to_stdout(self, tmp_path, capsys, monkeypatch, fmt):
        reports = []

        def run(config):
            reports.append(run_scenario(config))
            return reports[-1]

        monkeypatch.setattr(cli, "run_scenario", run)
        path = write_scenario(tmp_path, MINIMAL_BCL)
        assert cli_main(["run", str(path), "--format", fmt]) == 0
        assert capsys.readouterr().out == render_report(reports[0], fmt)

    def test_run_exit_two_on_failed_verdict(self, tmp_path, capsys):
        data = json.loads(json.dumps(SYMMETRIZATION))
        data["tolerances"] = {"discrepancy": 1e-30}
        path = write_scenario(tmp_path, data)
        assert cli_main(["run", str(path)]) == 2

    def test_run_writes_to_out_path(self, tmp_path, capsys):
        path = write_scenario(tmp_path, MINIMAL_BCL)
        out = tmp_path / "out.csv"
        assert cli_main(["run", str(path), "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("metric,value,tolerance,verdict")

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = write_scenario(tmp_path, MINIMAL_BCL)
        assert cli_main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli_main(["validate", str(bad)]) == 1
        data = dict(MINIMAL_BCL)
        data["foo"] = 1
        invalid = write_scenario(tmp_path, data, name="invalid.json")
        assert cli_main(["validate", str(invalid)]) == 1

    def test_demo_runs(self, capsys):
        assert cli_main(["demo", "bcl-qubit"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert abs(payload["values"]["probability_0"] - 0.5) < 1e-12

    def test_demo_unknown_name(self, capsys):
        assert cli_main(["demo", "nope"]) == 1
        available = ", ".join(sorted(cli.DEMO_SCENARIOS))
        assert capsys.readouterr().err == f"error: unknown demo 'nope'; available: {available}\n"

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_missing_file_names_its_path(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.json"
        assert cli_main([command, str(missing)]) == 1
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("form", ["run", "validate", "run --out"])
    def test_a_directory_is_named_in_one_error(self, tmp_path, capsys, form):
        argv = {
            "run": ["run", str(tmp_path)],
            "validate": ["validate", str(tmp_path)],
            "run --out": ["run", str(write_scenario(tmp_path, MINIMAL_BCL)), "--out", str(tmp_path)],
        }[form]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    def test_unwritable_out_path_names_it(self, tmp_path, capsys):
        path = write_scenario(tmp_path, MINIMAL_BCL)
        out = tmp_path / "no-such-directory" / "out.json"
        assert cli_main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_near_maximal_eigenvalues_name_one_error(self, tmp_path, capsys, command):
        # valid but for 2 * |o| overflowing, which both witness expectations would reach
        data = {
            "scenario_kind": "full_measurement",
            "bcl": {
                "eigenvalues": [
                    1.7976931348623157e308,
                    1.7976931348623155e308,
                    1.7976931348623153e308,
                ],
                "degeneracies": [1, 1, 1],
            },
            "initial_state": [1, 1, 1],
            "witness": "system_observable",
        }
        path = write_scenario(tmp_path, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scenario.bcl.eigenvalues[0]: too large: 2 * |eigenvalue| overflows\n"
        )

    def test_run_exit_one_on_runtime_error(self, tmp_path, capsys):
        data = json.loads(json.dumps(MINIMAL_BCL))
        data["bcl"]["transfer_family"] = [[[1.0, 0.0]], [[1.0, 0.0]]]
        path = write_scenario(tmp_path, data)
        assert cli_main(["run", str(path)]) == 1
        assert "premeasure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, block, key, value, stage",
        [
            # an explicit eigenbasis vector of norm 2
            (
                MINIMAL_BCL,
                "bcl",
                "basis",
                {"system_eigenbasis": [[[2, 0]], [[0, 1]]], "pointer_basis": [[1, 0], [0, 1]]},
                "build spec",
            ),
            # an explicit pointer of norm 2
            (
                MINIMAL_BCL,
                "bcl",
                "basis",
                {"system_eigenbasis": [[[1, 0]], [[0, 1]]], "pointer_basis": [[1, 0], [0, 2]]},
                "build spec",
            ),
            # an explicit transfer vector of norm 2
            (MINIMAL_BCL, "bcl", "transfer_family", [[[1, 0]], [[0, 2]]], "build spec"),
            # a packet centre beyond the 40-wide grid
            (SYMMETRIZATION, "packets", 1, {"center": 100.0, "width": 1.0}, "lattice setup"),
        ],
        ids=[
            "unnormalized-eigenvector",
            "unnormalized-pointer",
            "unnormalized-transfer",
            "packet-off-grid",
        ],
    )
    def test_precondition_failure_names_stage(
        self, tmp_path, capsys, base, block, key, value, stage
    ):
        data = json.loads(json.dumps(base))
        (data if block is None else data[block])[key] = value
        path = write_scenario(tmp_path, data)
        assert cli_main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {stage}: " in err
        assert "Traceback" not in err

    def test_huge_initial_state_runs_like_its_direction(self, tmp_path, capsys):
        # the squared norm of [1e308, 1e308] overflows; the state is still [1, 1]
        values = {}
        for amplitude in (1.0, 1e308):
            data = json.loads(json.dumps(MINIMAL_BCL))
            data["initial_state"] = [amplitude, amplitude]
            path = write_scenario(tmp_path, data)
            assert cli_main(["run", str(path)]) == 0
            values[amplitude] = json.loads(capsys.readouterr().out)["payload"]["values"]
        assert values[1e308] == values[1.0]

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_huge_integer_literal_is_a_validation_error(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(MINIMAL_BCL).replace("0.7071067811865475", "1" * 400, 1))
        assert cli_main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: scenario.initial_state[0][0]: must be finite\n"

    def test_config_output_path_used(self, tmp_path, capsys):
        data = json.loads(json.dumps(MINIMAL_BCL))
        target = tmp_path / "from-config.json"
        data["output"] = {"json": str(target)}
        path = write_scenario(tmp_path, data)
        assert cli_main(["run", str(path)]) == 0
        assert target.exists()
