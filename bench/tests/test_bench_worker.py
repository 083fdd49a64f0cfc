import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [False, True])
def test_only_the_traced_worker_installs_wrappers(tmp_path, trace):
    ops = workloads.generate("sector-ladder", 1)[:4]
    manifest, _ = workloads.write_inputs(ops, tmp_path / "inputs")
    plan = {
        "root": str(BENCH.parent),
        "manifest": str(manifest),
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.json"),
        "batches": 1,
        "trace": trace,
    }
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "measure", str(tmp_path / "plan.json")],
        check=True,
        timeout=120,
    )
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["classes"]["error"] == 0
    assert len(result["latencies"]) == len(ops)
    if trace:
        assert result["wrappers_installed"] > 0
        assert result["trace"]["cli.main.calls"] == len(ops)
        spans = json.loads((tmp_path / "spans.json").read_text())
        assert len(spans) == result["span_count"]
        assert {span[4] for span in spans if span[0] == "cli.main"} == set(range(1, len(ops) + 1))
    else:
        assert result["wrappers_installed"] == 0
        assert "trace" not in result
        assert not (tmp_path / "spans.json").exists()
