"""pointerlab benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload sector-ladder --seed 1 --seconds 40 --trace 0

The script generates the workload's scenario files from the seed, runs them
through ``pointerlab.cli.main`` in worker processes (see ``worker.py``),
checks every report against the oracle, and prints a summary followed by one
JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run.  A stamped copy of the result goes to
``bench/_results/``.  See ``bench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "_results"
# Fresh processes per run for setup_s: half before the measured loop, half
# after it, so that the median spans the run and not one moment of the host.
SETUP_PROBES = 12
WORKER_TIMEOUT_S = 170
TRACE_SHARE = 3  # the untraced part of a traced run measures seconds / TRACE_SHARE


def _env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env.pop("PYTHONPATH", None)
    return env, nproc


def _worker(args: list[str], env: dict) -> str:
    completed = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker {args[0]} exited {completed.returncode}: {completed.stderr.strip()[-2000:]}"
        )
    return completed.stdout


def setup_probes(manifest: Path, entry: dict, env: dict, count: int) -> tuple[list[float], dict]:
    """Fresh interpreter start to first (cold) operation done, ``count`` times."""
    samples = []
    classes = {"ok": 0, "error": 0}
    out = manifest.parent / entry["out"]
    for _ in range(count):
        out.unlink(missing_ok=True)
        start = time.monotonic()
        line = _worker(["setup", str(ROOT), str(manifest)], env).strip().splitlines()[-1]
        report = json.loads(line)
        samples.append(report["done"] - start)
        if out.exists():
            misses, failed = oracle.check_report(entry["expect"], out.read_text(encoding="utf-8"), entry["format"])
        else:
            misses, failed = ["no report written"], []
        classes[oracle.classify(report["exit"], misses, failed)] += 1
    return samples, classes


def measure(work: Path, manifest: Path, env: dict, name: str, **plan) -> dict:
    plan.update(root=str(ROOT), manifest=str(manifest), result=str(work / f"{name}.json"))
    plan_path = work / f"{name}-plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    _worker(["measure", str(plan_path)], env)
    return json.loads((work / f"{name}.json").read_text(encoding="utf-8"))


def percentile(samples: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pointerlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(args, input_digest: str, nproc: int, blas_threads: int | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": input_digest,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _sum_classes(*parts: dict) -> dict:
    total = {"ok": 0, "error": 0}
    for part in parts:
        for key, count in part.items():
            total[key] += count
    return total


def end_to_end(args, work, manifest, entries, env) -> tuple[dict, dict, dict]:
    before, classes_before = setup_probes(manifest, entries[0], env, SETUP_PROBES // 2)
    run = measure(work, manifest, env, "measure", seconds=args.seconds, trace=False)
    if run["wrappers_installed"] != 0:
        raise RuntimeError("the untraced worker has tracing wrappers installed")
    after, classes_after = setup_probes(manifest, entries[0], env, SETUP_PROBES - SETUP_PROBES // 2)
    setup = before + after
    pct = workloads.tail_percentile(args.workload, args.seconds, run["batch_ops"])
    tail_value, beyond = percentile(run["latencies"], pct)
    classes = _sum_classes(classes_before, classes_after, run["classes"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # Work completed over operation time.  On a host whose speed switches
        # between states for seconds at a time, this mean is steadier from run
        # to run than the median of batch rates.
        "ops_per_s": (len(run["latencies"]) / sum(run["batch_times"]), "1/s"),
        "op_p50_s": (statistics.median(run["latencies"]), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    details = {
        "setup_samples_s": setup,
        "batch_times_s": run["batch_times"],
        "batch_ops": run["batch_ops"],
        "op_samples": len(run["latencies"]),
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "failed_frac": 1 - run["timed_classes"]["ok"] / len(run["latencies"]),
        "classes": classes,
        "errors": run["errors"],
        "blas_threads": run["blas_threads"],
    }
    return metrics, details, classes


def per_layer(args, work, manifest, env, listed: list[dict]) -> tuple[dict, dict, dict]:
    base = measure(work, manifest, env, "untraced", seconds=args.seconds / TRACE_SHARE, trace=False)
    batches = len(base["batch_times"])
    spans = RESULTS / f"{args.workload}-s{args.seed}-spans.json"
    traced = measure(work, manifest, env, "traced", batches=batches, trace=True, alloc=True, spans=str(spans))
    untraced_s, traced_s = sum(base["batch_times"]), sum(traced["batch_times"])
    # Times and counts are per batch, so runs that fit a different number of
    # batches into their seconds stay comparable.
    found = {name: value / batches for name, value in traced["trace"].items()}
    found["runner.verdicts_failed"] = traced["verdicts_failed"] / batches
    for name, peak in traced["alloc_mb"].items():
        found[f"{name}.peak_alloc_mb"] = peak
    found["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics = {m["name"]: (float(found.get(m["name"], 0.0)), m["unit"]) for m in listed}
    classes = _sum_classes(base["classes"], traced["classes"])
    details = {
        "batches": batches,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "trace_root_s": traced["trace_root_s"],
        "span_count": traced["span_count"],
        "spans_file": spans.name,
        "unlisted": {k: v for k, v in found.items() if k not in metrics},
        "classes": classes,
        "errors": base["errors"] + traced["errors"],
        "blas_threads": traced["blas_threads"],
    }
    return metrics, details, classes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pointerlab" / "__init__.py").is_file():
        print(f"error: no pointerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env, nproc = _env()

    work = BENCH / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    try:
        ops = workloads.generate(args.workload, args.seed)
        manifest, input_digest = workloads.write_inputs(ops, work)
        entries = json.loads(manifest.read_text(encoding="utf-8"))
        if args.trace:
            metrics, details, classes = per_layer(args, work, manifest, env, spec["per_layer"])
        else:
            metrics, details, classes = end_to_end(args, work, manifest, entries, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(classes.values())
    result = {
        "correct": classes["error"] == 0,
        "attempted": attempted,
        "failed": attempted - classes["ok"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"stamp": stamp(args, input_digest, nproc, details["blas_threads"]), "details": details, **result}
    (RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    print(f"stamp {json.dumps(record['stamp'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:60s} {value:.6g} {unit}")
    if not args.trace:
        print(
            f"op_tail_s is p{details['op_tail_percentile']} of {details['op_samples']} operations"
            f" ({details['op_tail_beyond']} beyond it)"
        )
        print(f"failed_frac {details['failed_frac']:.4f} of the timed operations")
    print(f"outcomes {json.dumps(classes)} of {attempted} operations, setup and warm-up included")
    for error in details["errors"]:
        print(f"error: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
