"""Benchmark worker: runs operations through ``pointerlab.cli.main`` in-process.

Two modes, each in a fresh interpreter started by ``run.py``:

``setup <root> <manifest>``
    Import pointerlab and run the batch's first operation cold, then print
    one JSON line with the ``time.monotonic()`` at which it finished.
``measure <plan.json>``
    Warm up with the first operation, then run whole batches in a closed
    loop, one operation after another, until ``seconds`` have passed or for
    a fixed number of ``batches``.  With ``trace`` set, spans are recorded
    around every layer boundary and written, raw, to ``plan["spans"]``; with
    ``alloc`` set, one further batch records the peak allocation of the
    probed functions.  Results go to ``plan["result"]``.

Only the ``cli.main`` call is timed; reading the report back and checking
it against the oracle happen between operations.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _import_pointerlab(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    from pointerlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"pointerlab imported from {cli.__file__}, not from {src}")
    return cli


def _argv(directory: Path, entry: dict) -> list[str]:
    return [
        "run",
        str(directory / entry["scenario"]),
        "--format",
        entry["format"],
        "--out",
        str(directory / entry["out"]),
    ]


def setup_mode(root: Path, manifest: Path) -> None:
    cli = _import_pointerlab(root)
    first = json.loads(manifest.read_text(encoding="utf-8"))[0]
    code = cli.main(_argv(manifest.parent, first))
    done = time.monotonic()
    print(json.dumps({"done": done, "exit": code}), flush=True)


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Loop:
    """Runs operations and keeps latencies, outcome classes and failed verdicts."""

    def __init__(self, cli, directory: Path, entries: list[dict]):
        import oracle

        self.oracle = oracle
        self.cli = cli
        self.directory = directory
        self.entries = entries
        self.latencies: list[float] = []
        self.batch_times: list[float] = []
        self.classes = {"ok": 0, "error": 0}
        self.timed_classes = dict(self.classes)
        self.errors: list[str] = []
        self.verdicts_failed = 0
        self.recorder = None
        self.attempted = 0

    def run_op(self, entry: dict, timed: bool = True) -> float:
        if self.recorder is not None:
            self.recorder.op_id = self.attempted
        self.attempted += 1
        out = self.directory / entry["out"]
        out.unlink(missing_ok=True)
        argv = _argv(self.directory, entry)
        error = None
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # the boundary of one operation: record and go on
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None and out.exists():
            misses, failed = self.oracle.check_report(
                entry["expect"], out.read_text(encoding="utf-8"), entry["format"]
            )
        else:
            misses, failed = [error or "no report written"], []
        outcome = self.oracle.classify(code, misses, failed)
        self.classes[outcome] += 1
        self.verdicts_failed += len(failed)
        if outcome == "error" and len(self.errors) < 5:
            self.errors.append(f"{entry['name']}: exit {code}; {'; '.join(misses[:3])}; failed {failed}")
        if timed:
            self.latencies.append(elapsed)
            self.timed_classes[outcome] += 1
        return elapsed

    def run_batch(self) -> None:
        self.batch_times.append(sum(self.run_op(entry) for entry in self.entries))


def measure_mode(plan_path: Path) -> None:
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    root, manifest = Path(plan["root"]), Path(plan["manifest"])
    cli = _import_pointerlab(root)
    import resource

    import tracer

    entries = json.loads(manifest.read_text(encoding="utf-8"))
    loop = Loop(cli, manifest.parent, entries)
    loop.run_op(entries[0], timed=False)
    loop.verdicts_failed = 0

    undo = []
    if plan["trace"]:
        loop.recorder = tracer.Tracer()
        undo = tracer.install(loop.recorder)
    wrappers = tracer.installed()
    started = time.monotonic()
    while True:
        loop.run_batch()
        if plan.get("batches") is not None:
            if len(loop.batch_times) >= plan["batches"]:
                break
        elif time.monotonic() - started >= plan["seconds"]:
            break
    tracer.uninstall(undo)

    result = {
        "latencies": loop.latencies,
        "batch_times": loop.batch_times,
        "batch_ops": len(entries),
        "classes": loop.classes,
        "timed_classes": loop.timed_classes,
        "errors": loop.errors,
        "verdicts_failed": loop.verdicts_failed,
        "wrappers_installed": wrappers,
        "blas_threads": blas_threads(),
    }
    if loop.recorder is not None:
        spans = loop.recorder.spans
        result["trace"] = tracer.aggregate(spans)
        result["trace_root_s"] = tracer.root_total(spans)
        result["span_count"] = len(spans)
        Path(plan["spans"]).write_text(json.dumps(spans), encoding="utf-8")
        loop.recorder = None
    if plan.get("alloc"):
        probe = tracer.AllocProbe()
        undo = tracer.install(probe, only=set(tracer.ALLOC_PROBES))
        for entry in entries:
            loop.run_op(entry, timed=False)
        tracer.uninstall(undo)
        result["alloc_mb"] = {name: probe.peaks.get(name, 0.0) for name in tracer.ALLOC_PROBES}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup_mode(Path(sys.argv[2]), Path(sys.argv[3]))
    elif sys.argv[1] == "measure":
        measure_mode(Path(sys.argv[2]))
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
