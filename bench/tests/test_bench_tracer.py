import json

import pytest

import tracer
from pointerlab import cli


class FakeClock:
    """Advances by one unit on every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_is_duration_minus_children():
    rec = tracer.Tracer(clock=FakeClock())
    leaf = rec.wrap("hilbert.leaf", lambda: None)
    middle = rec.wrap("objectification.middle", lambda: (leaf(), leaf()))
    outer = rec.wrap("runner.outer", lambda: middle())
    outer()
    spans = {span[0]: span for span in rec.spans}
    # outer [1, 8], middle [2, 7], leaves [3, 4] and [5, 6].
    assert [s[1:3] for s in rec.spans] == [[1, 8], [2, 7], [3, 4], [5, 6]]
    own = dict(zip([s[0] for s in rec.spans], tracer.self_times(rec.spans)))
    assert own["runner.outer"] == (8 - 1) - (7 - 2)
    assert own["objectification.middle"] == (7 - 2) - 2 * (4 - 3)
    assert spans["hilbert.leaf"][3] == 1  # parent is the middle span


def test_spans_sum_to_traced_total():
    rec = tracer.Tracer(clock=FakeClock())
    leaf = rec.wrap("hilbert.leaf", lambda: None)
    outer = rec.wrap("runner.outer", lambda: [leaf() for _ in range(3)])
    for _ in range(2):
        outer()
    assert sum(tracer.self_times(rec.spans)) == tracer.root_total(rec.spans)
    metrics = tracer.aggregate(rec.spans)
    assert metrics["runner.outer.calls"] == 2
    assert metrics["hilbert.leaf.calls"] == 6
    assert metrics["runner.self_s"] + metrics["hilbert.self_s"] == tracer.root_total(rec.spans)


def test_errors_count_once_per_layer_they_leave():
    rec = tracer.Tracer(clock=FakeClock())

    def fail():
        raise ValueError("boom")

    inner = rec.wrap("hilbert.inner", fail)
    same_layer = rec.wrap("hilbert.outer", lambda: inner())
    top = rec.wrap("runner.top", lambda: same_layer())
    with pytest.raises(ValueError):
        top()
    metrics = tracer.aggregate(rec.spans)
    assert metrics["hilbert.errors"] == 1
    assert metrics["runner.errors"] == 1
    assert metrics["lattice.errors"] == 0


def test_install_traces_a_real_run_and_uninstall_restores(tmp_path):
    scenario = tmp_path / "qubit.json"
    scenario.write_text(
        json.dumps(
            {
                "scenario_kind": "full_measurement",
                "bcl": {"eigenvalues": [1.0, -1.0], "degeneracies": [1, 1]},
                "initial_state": [0.6, 0.8],
            }
        )
    )
    assert tracer.installed() == 0
    rec = tracer.Tracer()
    undo = tracer.install(rec)
    try:
        assert tracer.installed() > 0
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out.json")]) == 0
    finally:
        tracer.uninstall(undo)
    assert tracer.installed() == 0
    metrics = tracer.aggregate(rec.spans)
    assert metrics["cli.main.calls"] == 1
    assert metrics["objectification.pointer_block_coherence.calls"] == 2
    assert metrics["hilbert.DensityMatrix.validate.calls"] > 0
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_sum == pytest.approx(tracer.root_total(rec.spans), rel=1e-9)
