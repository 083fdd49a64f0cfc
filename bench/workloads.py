"""Seeded scenario generators for the benchmark workloads.

Each workload is a fixed batch of operations.  The seed changes the
numbers inside the scenarios (bases, states, packet layouts) but never the
batch's shape: kinds, sizes, formats and their order are the same for every
seed, so run time does not depend on the seed.  Every generated operation
carries the reference values the oracle computed from the same inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("sector-ladder", "lattice-pairs")

#: Seconds one batch took at the commit that defined the benchmark (2 cores,
#: OpenBLAS 0.3.31, Python 3.11).  It fixes which percentile ``op_tail_s``
#: reports, so that a faster or slower commit is compared at the same one.
NOMINAL_BATCH_S = {
    "sector-ladder": 5.8,
    "lattice-pairs": 6.0,
}


@dataclass(frozen=True)
class Op:
    """One operation: a scenario file, the report format, and its reference."""

    name: str
    kind: str
    fmt: str
    document: dict
    expect: dict


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary from the QR of a complex Gaussian, phases fixed."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    diagonal = np.diag(r)
    return q * (diagonal / np.abs(diagonal))


def _pairs(vector: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vector]


def _sectors(matrix: np.ndarray, degeneracies: list[int]) -> list[list[list[list[float]]]]:
    bounds = np.cumsum([0, *degeneracies])
    return [
        [_pairs(matrix[:, i]) for i in range(lo, hi)]
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def measurement_op(
    rng: np.random.Generator,
    name: str,
    degeneracies: list[int],
    apparatus_dim: int,
    random_basis: bool,
    witness: str,
) -> Op:
    """A ``full_measurement`` scenario with a seeded initial state.

    With ``random_basis`` the eigenbasis and pointer basis are columns of
    Haar-random unitaries written out explicitly; otherwise both are canonical.
    The ``rule2_coherence`` tolerance is set to the oracle's roundoff bound:
    its default, exactly 0.0, fails the roundoff residual that a rotated
    pointer basis leaves (a known defect, bench/README.md).
    """
    system_dim = sum(degeneracies)
    sectors = len(degeneracies)
    bcl: dict = {
        "eigenvalues": [float(k) for k in range(sectors)],
        "degeneracies": list(degeneracies),
        "apparatus_dim": apparatus_dim,
    }
    if random_basis:
        pointers = haar_unitary(rng, apparatus_dim)
        bcl["basis"] = {
            "system_eigenbasis": _sectors(haar_unitary(rng, system_dim), degeneracies),
            "pointer_basis": [_pairs(pointers[:, k]) for k in range(sectors)],
        }
    raw = rng.normal(size=system_dim) + 1j * rng.normal(size=system_dim)
    document = {
        "scenario_kind": "full_measurement",
        "bcl": bcl,
        "initial_state": _pairs(raw / np.linalg.norm(raw)),
        "witness": witness,
        "tolerances": {"rule2_coherence": oracle.ROUNDOFF},
    }
    # The oracle reads the amplitudes back from the serialized text, exactly
    # as the program will.
    document = json.loads(json.dumps(document))
    return Op(name, "full_measurement", "json", document, oracle.measurement_reference(document))


def lattice_op(rng: np.random.Generator, name: str, kind: str, n_points: int, fmt: str = "json") -> Op:
    """Two Gaussian packets far enough apart to be orthogonal to roundoff.

    Layout, left to right: a grid-edge margin of 6 widths, the first packet,
    5.5 widths to the domain edge (dlocal), 5.5 widths to the second packet
    and 6 widths of margin, on a grid of extent 40.  The seed draws the
    widths and where the slack goes.  The right margin takes at most half
    the slack, which keeps the second centre above x = 5: the program's
    ``unlocalized_discrepancy`` verdict compares |<x>_phi| with the signed
    centre, so a second packet left of 0 would fail it (bench/README.md).
    """
    dx = 40.0 / n_points
    x_min = -dx * n_points / 2
    x_max = x_min + dx * (n_points - 1)
    width = rng.uniform(1.0, 1.2, size=2)
    slack = (x_max - x_min) - 11.5 * (width[0] + width[1])
    if slack <= 0:
        raise ValueError(f"packets do not fit on a {n_points}-point grid")
    right = rng.uniform(0.0, 0.5) * slack
    spread = rng.dirichlet([1.0, 1.0, 1.0]) * (slack - right)
    first = x_min + 6.0 * width[0] + spread[0]
    boundary = first + 5.5 * width[0] + spread[1]
    second = boundary + 5.5 * width[1] + spread[2]
    document = {
        "scenario_kind": kind,
        "grid": {"x_min": x_min, "dx": dx, "n_points": n_points},
        "packets": [
            {"center": float(first), "width": float(width[0])},
            {"center": float(second), "width": float(width[1])},
        ],
    }
    if kind == "dlocal":
        document["domain"] = {"lower": x_min, "upper": float(boundary)}
    document = json.loads(json.dumps(document))
    return Op(name, kind, fmt, document, oracle.lattice_reference(document))


def _sector_ladder(rng: np.random.Generator) -> list[Op]:
    # One sector per level, K = system_dim = apparatus_dim, D = K^2 on the
    # rungs 64 / 144 / 256.  The counts put the median and the tail rank of a
    # run inside one rung each: p50 in D = 64, op_tail_s (p92 at 40 s) in
    # D = 256, whatever the number of whole batches.
    ops = []
    for sectors, count in ((8, 12), (12, 6), (16, 2)):
        for i in range(count):
            random_basis = i % 2 == 1
            witness = "sigma_x_pattern" if i % 4 in (0, 3) else "system_observable"
            ops.append(
                measurement_op(
                    rng,
                    f"ladder-D{sectors * sectors}-{i}",
                    [1] * sectors,
                    sectors,
                    random_basis,
                    witness=witness,
                )
            )
    return ops


def _lattice_pairs(rng: np.random.Generator) -> list[Op]:
    # Six n = 512 pairs, then one n = 1024 pair (see _sector_ladder on counts).
    # dlocal reports go out as CSV, so both report formats stay measured.
    ops = []
    for i, n_points in enumerate((512,) * 6 + (1024,)):
        for kind, fmt in (("symmetrization", "json"), ("dlocal", "csv")):
            ops.append(lattice_op(rng, f"pairs-{kind}-n{n_points}-{i}", kind, n_points, fmt))
    return ops


_BUILDERS = {
    "sector-ladder": _sector_ladder,
    "lattice-pairs": _lattice_pairs,
}


def tail_percentile(workload: str, seconds: float, batch_ops: int) -> int:
    """The highest whole percentile with at least ten samples beyond it in a
    run of ``seconds`` at the nominal speed (100, the maximum, below 11)."""
    samples = seconds / NOMINAL_BATCH_S[workload] * batch_ops
    if samples < 11:
        return 100
    return int(100 * (samples - 10) // samples)


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's batch for ``seed``; same seed, same operations."""
    entropy = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:8], "little")
    rng = np.random.default_rng([seed, entropy])
    return _BUILDERS[workload](rng)


def write_inputs(ops: list[Op], directory: Path) -> tuple[Path, str]:
    """Write scenario files and the manifest; return the manifest path and input digest.

    Paths in the manifest are relative to its directory, so the digest
    depends only on the inputs and not on where the checkout lives.
    """
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "out").mkdir(exist_ok=True)
    entries = []
    digest = hashlib.sha256()
    for index, op in enumerate(ops):
        scenario = f"{index:03d}-{op.name}.json"
        text = json.dumps(op.document)
        (directory / scenario).write_text(text, encoding="utf-8")
        digest.update(text.encode())
        entries.append(
            {
                "name": op.name,
                "kind": op.kind,
                "format": op.fmt,
                "scenario": scenario,
                "out": f"out/{index:03d}.{op.fmt}",
                "expect": op.expect,
            }
        )
    manifest_text = json.dumps(entries)
    digest.update(manifest_text.encode())
    manifest = directory / "manifest.json"
    manifest.write_text(manifest_text, encoding="utf-8")
    return manifest, digest.hexdigest()
