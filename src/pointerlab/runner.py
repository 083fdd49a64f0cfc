"""Scenario execution and structured reports.

A report separates computed values from verdicts so downstream tooling can
re-judge the same numbers under different tolerances.  Every verdict carries
its residual and the tolerance that judged it.  The JSON payload section is
deterministic: identical configs produce byte-identical payloads, with the
wall-clock duration kept in a separate ``meta`` section.  Floats are written
with 17 significant digits so every value round-trips exactly; JSON and CSV
share that one float formatter.  The JSON writer makes one pass over the
report, appending to one list of text pieces: it dispatches on each value's
exact type, writes an object's scalar entries inline and a list of floats in
one join, and escapes keys and strings with the stdlib's ASCII escaper, as
``json.dumps`` does.  A scenario's ``(n, 2)`` amplitude arrays, alone or as
a nested list such as a whole eigenbasis, are written as lists of their
``[re, im]`` rows from one text skeleton: one finiteness check and one
``%``-template per batch of at most ``AMPLITUDE_BATCH_ENTRIES`` entries.
The report's ``values`` and ``verdicts`` are written by one template pass
each, and a CSV report is one formatted row per value and verdict.
``emit_report`` writes the pieces to the file with plain OS calls, in
chunks of at most ``REPORT_WRITE_BYTES`` characters, and the command line
writes them to stdout.  The run views each amplitude array as complex
numbers.

The scenario layers are imported inside the runners that call them:
``lattice`` in the two lattice runners, ``hilbert``, ``premeasurement`` and
``objectification`` in the BCL runners.  A fresh process thus loads only the
layers of the kind it runs, and each run reads the names from the layer's
own namespace, where a wrapper bound there is the one it calls.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .errors import PointerlabError, RunStageError
from .scenario import ScenarioConfig
from .tolerances import AMPLITUDE_BATCH_ENTRIES, ORTHOGONAL_OVERLAP_GATE, REPORT_WRITE_BYTES

if TYPE_CHECKING:
    from .hilbert import DensityMatrix, StateVector
    from .premeasurement import BclSpec

__all__ = [
    "Verdict",
    "RunReport",
    "run_scenario",
    "render_report",
    "emit_report",
]

INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Verdict:
    """One judged invariant: residual compared against a tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True, eq=False)
class RunReport:
    """Scenario echo, computed scalars, verdicts and timing."""

    scenario: dict
    values: dict[str, float]
    verdicts: tuple[Verdict, ...]
    duration_seconds: float

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def _json_parts(self) -> list[str]:
        """The JSON text of ``{"payload": ..., "meta": ...}`` in pieces, and a newline.

        The scenario echo goes through :func:`_write_json`, ``values`` through
        one comprehension and each verdict through one template, in the layout
        :func:`_write_json` gives them.
        """
        parts = ['{\n  "payload": {\n    "scenario": ']
        _write_json(parts, self.scenario, "\n    ")
        values = [
            f"{encode_basestring_ascii(key if type(key) is str else str(key))}: {_scalar_text(value)}"
            for key, value in self.values.items()
        ]
        verdicts = [
            f'{{\n        "name": {_scalar_text(v.name)},'
            f'\n        "residual": {_scalar_text(v.residual)},'
            f'\n        "tolerance": {_scalar_text(v.tolerance)},'
            f'\n        "passed": {_scalar_text(v.passed)}\n      }}'
            for v in self.verdicts
        ]
        parts.append(
            ',\n    "values": '
            + ("{\n      " + ",\n      ".join(values) + "\n    }" if values else "{}")
            + ',\n    "verdicts": '
            + ("[\n      " + ",\n      ".join(verdicts) + "\n    ]" if verdicts else "[]")
            + '\n  },\n  "meta": {\n    "duration_seconds": '
            + _scalar_text(self.duration_seconds)
            + "\n  }\n}\n"
        )
        return parts

    def to_csv_text(self) -> str:
        """CSV rows ``metric,value,tolerance,verdict``, quoted as ``csv.QUOTE_MINIMAL`` quotes them."""
        rows = ["metric,value,tolerance,verdict\n"]
        rows += [f"{_csv_field(key)},{_float_repr(value)},,\n" for key, value in self.values.items()]
        rows += [
            f"{_csv_field(v.name)},{_float_repr(v.residual)},{_float_repr(v.tolerance)},"
            f"{'pass' if v.passed else 'fail'}\n"
            for v in self.verdicts
        ]
        return "".join(rows)


def _csv_field(name) -> str:
    """A name as a CSV field: in quotes, with quotes doubled, if it holds a quote or a separator.

    The separators are ``,``, ``\\n`` and ``\\r``; a bare ``\\r`` is quoted too,
    so a reader that splits lines on it reads the name back whole.
    """
    text = name if type(name) is str else str(name)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _float_repr(value) -> str:
    """JSON and CSV text of a finite float: 17 significant digits, ``.0`` added if integral."""
    text = format(float(value), ".17g")
    if "." in text or "e" in text:
        return text
    if text[-1].isdigit():
        return text + ".0"
    raise ValueError(f"cannot serialize non-finite value {float(value)!r}")


def _leaf_text(value) -> str:
    """JSON text of a scalar, by ``isinstance``; :data:`_LEAVES` covers the common exact types."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_repr(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


_LEAVES = {
    float: _float_repr,
    str: encode_basestring_ascii,
    int: str,
    bool: _leaf_text,
    type(None): _leaf_text,
}


def _scalar_text(value) -> str:
    """JSON text of a scalar: :data:`_LEAVES` by exact type, else :func:`_leaf_text`."""
    return (_LEAVES.get(type(value)) or _leaf_text)(value)


def _amplitude_tree(value, newline: str, items: list) -> bool:
    """Append the template skeleton of a nested list of amplitude arrays to ``items``.

    A tree is a float array of shape ``(n, 2)`` or a non-empty list of
    trees.  The skeleton holds the text between the arrays as strings and
    each array as its pair ``(array, newline)``.  Returns ``False`` as soon
    as ``value`` holds anything else.
    """
    if type(value) is np.ndarray:
        if value.ndim != 2 or value.shape[1] != 2 or value.dtype != float:
            return False
        items.append((value, newline))
        return True
    if type(value) is not list or not value:
        return False
    inner = newline + "  "
    items.append("[" + inner)
    for index, entry in enumerate(value):
        if index:
            items.append("," + inner)
        if not _amplitude_tree(entry, inner, items):
            return False
    items.append(newline + "]")
    return True


def _row_templates(inner: str) -> list[str]:
    """The four ``[re, im]`` row templates at the indent ``inner``, indexed by row code.

    Code ``2 * fixed_re + fixed_im`` picks ``%.1f`` for each integral entry
    and ``%.17g`` otherwise.
    """
    return [
        "[" + inner + "  " + first + "," + inner + "  " + second + inner + "]"
        for first in ("%.17g", "%.1f")
        for second in ("%.17g", "%.1f")
    ]


def _amplitude_text(batch: list) -> str:
    """The JSON text of a run of skeleton items, with one ``%``-template for all its arrays.

    Each array is written as the list of its rows: ``%.17g`` for each entry,
    except ``%.1f`` for an integral entry below ``1e17``, which gives it the
    ``.0`` of :func:`_float_repr` (at ``1e17`` and above ``%.17g`` writes an
    exponent).  Finiteness is checked first, so ``% 1.0`` never meets an
    infinity; a non-finite entry raises the ``ValueError`` of
    :func:`_float_repr`, naming the first one.  The row templates are built
    once per indent within the batch.
    """
    arrays = [item[0] for item in batch if type(item) is tuple]
    if not arrays:
        return "".join(batch)
    numbers = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    finite = np.isfinite(numbers)
    if not finite.all():
        _float_repr(numbers[~finite][0])  # raises
    fixed = numbers % 1.0 == 0.0
    codes = None
    if fixed.any():
        fixed &= np.abs(numbers) < 1e17
        codes = (2 * fixed[:, 0] + fixed[:, 1]).tolist()
    template, row, row_templates = [], 0, {}
    for item in batch:
        if type(item) is str:
            template.append(item)
            continue
        count, inner = len(item[0]), item[1] + "  "
        if not count:
            template.append("[]")
            continue
        rows = row_templates.get(inner)
        if rows is None:
            rows = row_templates[inner] = _row_templates(inner)
        if codes is None:
            chosen = [rows[0]] * count
        else:
            chosen = [rows[code] for code in codes[row : row + count]]
        template.append("[" + inner + ("," + inner).join(chosen) + item[1] + "]")
        row += count
    return "".join(template) % tuple(numbers.ravel().tolist())


def _write_json(out: list[str], value, newline: str) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a newline and its indent.

    Objects and arrays put one entry per line, indented two spaces per
    level, and an object's scalar entries are written inline.  A list of
    floats is written in one join.  A float array of shape ``(n, 2)``, or a
    nested list of such arrays, is written as the list of its rows by
    :func:`_amplitude_text`, one ``%``-template per batch of at most
    :data:`AMPLITUDE_BATCH_ENTRIES` entries (or one array).
    """
    kind = type(value)
    if kind is np.ndarray or kind is list:
        items: list = []
        if _amplitude_tree(value, newline, items):
            batch, entries = [], 0
            for item in items:
                batch.append(item)
                if type(item) is tuple:
                    entries += item[0].size
                    if entries >= AMPLITUDE_BATCH_ENTRIES:
                        out.append(_amplitude_text(batch))
                        batch, entries = [], 0
            if batch:
                out.append(_amplitude_text(batch))
            return
    if kind is not dict and kind is not list and kind is not tuple:
        if isinstance(value, dict):
            kind = dict
        elif not isinstance(value, (list, tuple)):
            out.append((_LEAVES.get(kind) or _leaf_text)(value))
            return
    if not value:
        out.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    separator = "," + inner
    if kind is dict:
        out.append("{")
        for index, (key, entry) in enumerate(value.items()):
            key_text = encode_basestring_ascii(key if type(key) is str else str(key))
            leaf = _LEAVES.get(type(entry))
            if leaf is None:
                out.append((separator if index else inner) + key_text + ": ")
                _write_json(out, entry, inner)
            else:
                out.append((separator if index else inner) + key_text + ": " + leaf(entry))
        out.append(newline + "}")
    elif all(type(entry) is float for entry in value):
        out.append("[" + inner + separator.join(map(_float_repr, value)) + newline + "]")
    else:
        out.append("[")
        for index, entry in enumerate(value):
            out.append(separator if index else inner)
            _write_json(out, entry, inner)
        out.append(newline + "]")


@contextmanager
def _stage(name: str):
    # A ValueError is a constructor precondition that the schema cannot see,
    # such as an unnormalized basis vector or a packet off the grid.
    try:
        yield
    except (PointerlabError, ValueError) as exc:
        raise RunStageError(f"{name}: {exc}") from exc


def _verdict(name: str, residual: float, tolerance: float) -> Verdict:
    return Verdict(
        name=name, residual=float(residual), tolerance=float(tolerance),
        passed=float(residual) <= float(tolerance),
    )


def _bool_verdict(name: str, passed: bool, residual: float, tolerance: float) -> Verdict:
    return Verdict(
        name=name, residual=float(residual), tolerance=float(tolerance), passed=bool(passed)
    )


def _run_symmetrization(scenario: dict) -> tuple[dict, list[Verdict]]:
    from .lattice import (
        ExchangeSymmetry,
        LatticeGrid,
        expectation_two_particle,
        gaussian_packet,
        orbital_elements,
        position_kernel,
        symmetrize,
    )

    tol = scenario["tolerances"]
    with _stage("lattice setup"):
        grid = LatticeGrid(**scenario["grid"])
        psi, phi = (gaussian_packet(grid, **packet) for packet in scenario["packets"])
        kernel = position_kernel(grid)
    with _stage("symmetrization"):
        boson = symmetrize(psi, phi, ExchangeSymmetry.BOSON)
        pairs = {ExchangeSymmetry.BOSON: boson, ExchangeSymmetry.FERMION: boson.opposite_exchange()}
        nu = {sym: pair.nu for sym, pair in pairs.items()}
        overlap = abs(boson.overlaps[0, 1])
        # both pairs hold psi and phi and share S, so one kernel apply serves both
        elements, singles = orbital_elements(kernel, boson)
        single_first, single_second = singles.real
        two_particle = {sym: expectation_two_particle(elements, p).real for sym, p in pairs.items()}

    values = {
        "single_particle_position_first": single_first,
        "single_particle_position_second": single_second,
        "two_particle_position_boson": two_particle[ExchangeSymmetry.BOSON],
        "two_particle_position_fermion": two_particle[ExchangeSymmetry.FERMION],
        "normalization_factor_boson": nu[ExchangeSymmetry.BOSON],
        "normalization_factor_fermion": nu[ExchangeSymmetry.FERMION],
        "packet_overlap_abs": overlap,
    }
    expected_sum = single_first + single_second
    verdicts = [
        _verdict(
            "discrepancy_boson",
            abs(two_particle[ExchangeSymmetry.BOSON] - expected_sum),
            tol["discrepancy"],
        ),
        _verdict(
            "discrepancy_fermion",
            abs(two_particle[ExchangeSymmetry.FERMION] - expected_sum),
            tol["discrepancy"],
        ),
        _verdict(
            "exchange_sign_agreement",
            abs(two_particle[ExchangeSymmetry.BOSON] - two_particle[ExchangeSymmetry.FERMION]),
            tol["exchange_sign_agreement"],
        ),
    ]
    if overlap <= ORTHOGONAL_OVERLAP_GATE:
        verdicts.append(
            _verdict(
                "normalization_factor_orthogonal",
                abs(nu[ExchangeSymmetry.BOSON] - INV_SQRT2),
                tol["normalization_factor"],
            )
        )
    return values, verdicts


def _run_dlocal(scenario: dict) -> tuple[dict, list[Verdict]]:
    from .lattice import (
        Domain,
        LatticeGrid,
        dlocal_agreement_check,
        dlocal_residual,
        gaussian_packet,
        position_kernel,
    )

    tol = scenario["tolerances"]
    with _stage("lattice setup"):
        grid = LatticeGrid(**scenario["grid"])
        psi, phi = (gaussian_packet(grid, **packet) for packet in scenario["packets"])
        kernel = position_kernel(grid)
        domain = Domain.from_interval(grid, **scenario["domain"])
    with _stage("domain-local check"):
        check = dlocal_agreement_check(kernel, domain, psi, phi, tol["support_mass"])
        single, two_raw = check.single.real, check.unlocalized_two_particle.real
        raw_difference = abs(two_raw - single)
        residual_raw = dlocal_residual(kernel, domain)
        residual_localized = dlocal_residual(check.localized_kernel, domain)

    values = {
        "dlocal_two_particle_expectation": check.two_particle.real,
        "single_particle_expectation": single,
        "dlocal_difference": check.difference,
        "unlocalized_two_particle_expectation": two_raw,
        "unlocalized_difference": raw_difference,
        "dlocal_residual_raw_kernel": residual_raw,
        "dlocal_residual_localized_kernel": residual_localized,
    }
    verdicts = [
        _verdict("agreement", check.difference, tol["agreement"]),
        _verdict(
            "unlocalized_discrepancy",
            abs(raw_difference - abs(scenario["packets"][1]["center"])),
            tol["unlocalized_discrepancy"],
        ),
        _bool_verdict(
            "raw_kernel_not_dlocal",
            residual_raw > tol["dlocal"],
            residual_raw,
            tol["dlocal"],
        ),
        _bool_verdict(
            "localized_kernel_dlocal",
            residual_localized <= tol["dlocal"],
            residual_localized,
            tol["dlocal"],
        ),
    ]
    return values, verdicts


def _bcl_diagnostics(
    spec: BclSpec, phi: StateVector, tol: dict[str, float]
) -> tuple[dict, list[Verdict], object, DensityMatrix]:
    from .hilbert import DensityMatrix, trace_distance
    from .premeasurement import premeasure

    with _stage("premeasure"):
        result, pointers = premeasure(spec, phi), spec.pointers
        kept, conditionals = result.conditionals
        amplitudes = result.final_state.amplitudes.reshape(spec.system_dim, spec.apparatus_dim)
        # a sector below the floor has no conditional state and enters as its sector vector
        weighted = np.array(result.sector_vectors)
        weighted[:, kept] = conditionals * np.sqrt(result.probabilities[kept])
        reconstruction = weighted @ pointers.T
        reconstruction_residual = float(np.linalg.norm(amplitudes - reconstruction))
        # sum over each sector of |<e|phi>|^2, independent of the transfer family
        coefficients = phi.amplitudes
        if spec.eigenvectors is not None:
            coefficients = coefficients.conj() @ spec.eigenvectors
        coefficient_mass = np.add.reduceat(np.abs(coefficients) ** 2, spec.sector_bounds[:-1])
        formula_residual = float(np.abs(result.probabilities - coefficient_mass).max())
        pointer_mixture = DensityMatrix(columns=pointers, weights=result.probabilities)
        marginal_residual = trace_distance(result.apparatus_marginal, pointer_mixture)

    values = {
        f"probability_{k}": float(p) for k, p in enumerate(result.probabilities)
    }
    verdicts = [
        _verdict(
            "probability_sum",
            abs(float(result.probabilities.sum()) - 1.0),
            tol["probability_sum"],
        ),
        _verdict("probability_formula", formula_residual, tol["probability_formula"]),
        _verdict("unitarity", spec.unitarity_deviation, tol["unitarity"]),
        _verdict("extension_map", spec.extension_residual, tol["extension_map"]),
        _verdict("reconstruction", reconstruction_residual, tol["reconstruction"]),
        _verdict("apparatus_marginal", marginal_residual, tol["apparatus_marginal"]),
    ]
    return values, verdicts, result, pointer_mixture


def _build_spec(scenario: dict) -> tuple[BclSpec, StateVector]:
    """The scenario's spec, one column matrix per family, and its initial state."""
    from .hilbert import StateVector
    from .premeasurement import BclSpec

    bcl = scenario["bcl"]
    degeneracies, basis, transfer = bcl["degeneracies"], bcl["basis"], bcl["transfer_family"]

    def columns(sectors: list) -> np.ndarray:  # of a family given sector by sector
        vectors = [vector for sector in sectors for vector in sector]
        return np.stack(vectors, axis=1).view(complex)[..., 0]

    with _stage("build spec"):
        if basis == "canonical":
            eigenvectors = None  # the identity
            pointers = np.eye(bcl["apparatus_dim"], len(degeneracies), dtype=complex)
            ready = pointers[:, 0]
        else:
            eigenvectors = columns(basis["system_eigenbasis"])
            pointers = columns([basis["pointer_basis"]])
            ready = basis.get("ready_state", basis["pointer_basis"][0]).view(complex)[:, 0]
        spec = BclSpec(
            eigenvalues=bcl["eigenvalues"],
            degeneracies=degeneracies,
            eigenvectors=eigenvectors,
            transfer=None if transfer == "default" else columns(transfer),
            pointers=pointers,
            ready_state=StateVector(ready),
        )
        return spec, StateVector.normalized(scenario["initial_state"].view(complex)[:, 0])


def _run_bcl(scenario: dict) -> tuple[dict, list[Verdict]]:
    spec, phi = _build_spec(scenario)
    values, verdicts, _, _ = _bcl_diagnostics(spec, phi, scenario["tolerances"])
    return values, verdicts


def _run_full_measurement(scenario: dict) -> tuple[dict, list[Verdict]]:
    from .hilbert import partial_trace, spectral_entropy, trace_distance, von_neumann_entropy
    from .objectification import (
        apply_rule2,
        observable_witness,
        pointer_block_coherence,
        shift_witness,
    )

    tol = scenario["tolerances"]
    spec, phi = _build_spec(scenario)
    values, verdicts, result, pointer_mixture = _bcl_diagnostics(spec, phi, tol)
    with _stage("objectify"):
        gemenge = apply_rule2(result)
        coherence_rule2 = pointer_block_coherence(gemenge, spec)
    with _stage("compare"):
        witness = (
            observable_witness(spec)
            if scenario["witness"] == "system_observable"
            else shift_witness(spec)
        )
        rho, dims = result.final_density, (spec.system_dim, spec.apparatus_dim)
        probabilities = result.probabilities[result.probabilities > 0.0]
        values.update(
            {
                "pointer_coherence_unitary": pointer_block_coherence(rho, spec),
                "pointer_coherence_rule2": coherence_rule2,
                "witness_expectation_unitary": witness.expectation(rho),
                "witness_expectation_rule2": witness.product_expectation(
                    gemenge.probabilities, gemenge.system_states, gemenge.pointer_states
                ),
                "entropy_unitary": von_neumann_entropy(rho),
                "entropy_rule2": spectral_entropy(gemenge.spectrum()),
                "entropy_expected": float(-(probabilities * np.log(probabilities)).sum()),
                "trace_distance_system_marginal": trace_distance(
                    partial_trace(rho, dims, keep=0), gemenge.system_marginal
                ),
                "trace_distance_apparatus_marginal": trace_distance(
                    result.apparatus_marginal, gemenge.apparatus_marginal
                ),
            }
        )
        gemenge_apparatus_residual = trace_distance(gemenge.apparatus_marginal, pointer_mixture)

    verdicts.extend(
        [
            _verdict(
                "marginal_system", values["trace_distance_system_marginal"], tol["marginal_system"]
            ),
            _verdict(
                "marginal_apparatus",
                values["trace_distance_apparatus_marginal"],
                tol["marginal_apparatus"],
            ),
            _verdict("apparatus_gemenge", gemenge_apparatus_residual, tol["apparatus_gemenge"]),
            _verdict(
                "entropy_gap",
                abs(values["entropy_rule2"] - values["entropy_expected"]),
                tol["entropy_gap"],
            ),
            _verdict("rule2_coherence", coherence_rule2, tol["rule2_coherence"]),
        ]
    )
    return values, verdicts


_RUNNERS = {
    "symmetrization": _run_symmetrization,
    "dlocal": _run_dlocal,
    "bcl": _run_bcl,
    "full_measurement": _run_full_measurement,
}


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute a validated scenario; deterministic for identical configs."""
    start = time.perf_counter()
    scenario = config.document
    values, verdicts = _RUNNERS[scenario["scenario_kind"]](scenario)
    duration = time.perf_counter() - start
    return RunReport(
        scenario=scenario,
        values={key: float(v) for key, v in values.items()},
        verdicts=tuple(verdicts),
        duration_seconds=duration,
    )


def _report_parts(report: RunReport, format: str) -> list[str]:
    if format == "json":
        return report._json_parts()
    if format == "csv":
        return [report.to_csv_text()]
    raise ValueError(f"unknown report format {format!r}")


def render_report(report: RunReport, format: str = "json") -> str:
    """Serialize a report to text in the requested format."""
    return "".join(_report_parts(report, format))


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def emit_report(report: RunReport, format: str, path) -> None:
    """Write a report to a file, rendered before it is opened (OSError propagates).

    The file is written with plain OS calls and no file object: the rendered
    pieces are joined into chunks of at most ``REPORT_WRITE_BYTES``
    characters (a longer piece is a chunk of its own), and each chunk is
    encoded as UTF-8 and written whole.  The report is never joined whole.
    """
    parts = _report_parts(report, format)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        chunk, size = [], 0
        for part in parts:
            if size + len(part) > REPORT_WRITE_BYTES and chunk:
                _write_all(fd, "".join(chunk).encode("utf-8"))
                chunk, size = [], 0
            chunk.append(part)
            size += len(part)
        _write_all(fd, "".join(chunk).encode("utf-8"))
    finally:
        os.close(fd)
