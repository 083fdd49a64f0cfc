"""Reference values computed with plain numpy from the generated inputs.

The oracle never calls pointerlab.  For the measurement kinds it computes
the outcome probabilities ``p_k = sum_l |<e_kl|phi>|^2`` and the expected
gemenge entropy ``-sum p_k ln p_k``.  For the lattice kinds it computes the
packet moments on the grid and the exact pair expectation of the
symmetrized position observable from the 2x2 orbital matrix elements; for
the near-orthogonal packets the workloads generate that is
``<x>_psi + <x>_phi``.  Each report is also checked for the exact metric key
set and verdict names its kind promises.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

BCL_VERDICTS = [
    "probability_sum",
    "probability_formula",
    "unitarity",
    "extension_map",
    "reconstruction",
    "apparatus_marginal",
]
FULL_MEASUREMENT_KEYS = [
    "pointer_coherence_unitary",
    "pointer_coherence_rule2",
    "witness_expectation_unitary",
    "witness_expectation_rule2",
    "entropy_unitary",
    "entropy_rule2",
    "entropy_expected",
    "trace_distance_system_marginal",
    "trace_distance_apparatus_marginal",
]
FULL_MEASUREMENT_VERDICTS = [
    "marginal_system",
    "marginal_apparatus",
    "apparatus_gemenge",
    "entropy_gap",
    "rule2_coherence",
]
SYMMETRIZATION_KEYS = [
    "single_particle_position_first",
    "single_particle_position_second",
    "two_particle_position_boson",
    "two_particle_position_fermion",
    "normalization_factor_boson",
    "normalization_factor_fermion",
    "packet_overlap_abs",
]
SYMMETRIZATION_VERDICTS = ["discrepancy_boson", "discrepancy_fermion", "exchange_sign_agreement"]
DLOCAL_KEYS = [
    "dlocal_two_particle_expectation",
    "single_particle_expectation",
    "dlocal_difference",
    "unlocalized_two_particle_expectation",
    "unlocalized_difference",
    "dlocal_residual_raw_kernel",
    "dlocal_residual_localized_kernel",
]
DLOCAL_VERDICTS = [
    "agreement",
    "unlocalized_discrepancy",
    "raw_kernel_not_dlocal",
    "localized_kernel_dlocal",
]
#: The program emits this verdict only for packets whose overlap is at most this.
ORTHOGONAL_OVERLAP = 1e-4

# Absolute tolerance on probabilities and entropies, and relative tolerance
# on lattice moments (scaled by max(1, |reference|)).  Both sit far above
# double roundoff at these sizes and far below any physical discrepancy.
MEASUREMENT_TOL = 1e-10
LATTICE_TOL = 1e-9
#: Largest pointer-coherence residual of an objectified state that is roundoff.
ROUNDOFF = 1e-12


def _complex_vector(pairs) -> np.ndarray:
    return np.array(
        [complex(p[0], p[1]) if isinstance(p, list) else complex(p) for p in pairs]
    )


def measurement_reference(document: dict) -> dict:
    """Expected keys, verdicts and values for a ``bcl``/``full_measurement`` document."""
    bcl = document["bcl"]
    degeneracies = bcl["degeneracies"]
    phi = _complex_vector(document["initial_state"])
    phi = phi / np.linalg.norm(phi)
    basis = bcl.get("basis", "canonical")
    if basis == "canonical":
        columns = np.eye(phi.size, dtype=complex)
        sectors = np.split(columns, np.cumsum(degeneracies)[:-1], axis=1)
    else:
        sectors = [
            np.column_stack([_complex_vector(v) for v in sector])
            for sector in basis["system_eigenbasis"]
        ]
    probabilities = [float(np.sum(np.abs(e.conj().T @ phi) ** 2)) for e in sectors]
    values = {f"probability_{k}": [p, MEASUREMENT_TOL] for k, p in enumerate(probabilities)}
    keys = list(values)
    verdicts = list(BCL_VERDICTS)
    if document["scenario_kind"] == "full_measurement":
        p = np.array(probabilities)
        p = p[p > 0.0]
        values["entropy_expected"] = [float(-np.sum(p * np.log(p))), MEASUREMENT_TOL]
        keys += FULL_MEASUREMENT_KEYS
        verdicts += FULL_MEASUREMENT_VERDICTS
    return {"keys": keys, "verdicts": verdicts, "values": values}


def _packet(coords: np.ndarray, dx: float, center: float, width: float) -> np.ndarray:
    raw = np.exp(-((coords - center) ** 2) / (4.0 * width**2))
    return raw / np.sqrt(dx * np.sum(raw**2))


def pair_position(psi: np.ndarray, phi: np.ndarray, x: np.ndarray, dx: float, sign: int) -> float:
    """``<X_1 + X_2>`` in ``nu (psi phi + sign phi psi)`` for real packets.

    ``x`` is the diagonal of the one-body position kernel (zero outside a
    domain for a localized kernel).  With overlap ``s = <psi|phi>`` and
    ``a_ab = <a|x|b>`` the value is
    ``2 nu^2 (a_psipsi + a_phiphi + 2 sign s a_psiphi)``, ``nu^-2 = 2 + 2 sign s^2``.
    """
    overlap = dx * np.dot(psi, phi)
    a_psi = dx * np.dot(psi, x * psi)
    a_phi = dx * np.dot(phi, x * phi)
    a_cross = dx * np.dot(psi, x * phi)
    nu_sq = 1.0 / (2.0 + 2.0 * sign * overlap**2)
    return float(2.0 * nu_sq * (a_psi + a_phi + 2.0 * sign * overlap * a_cross))


def lattice_reference(document: dict) -> dict:
    """Expected keys, verdicts and values for a ``symmetrization``/``dlocal`` document."""
    grid = document["grid"]
    dx, n = grid["dx"], grid["n_points"]
    coords = grid["x_min"] + dx * np.arange(n)
    (first, second) = document["packets"]
    psi = _packet(coords, dx, first["center"], first["width"])
    phi = _packet(coords, dx, second["center"], second["width"])
    x_psi = float(dx * np.dot(psi, coords * psi))
    x_phi = float(dx * np.dot(phi, coords * phi))
    overlap = float(abs(dx * np.dot(psi, phi)))

    def near(value: float) -> list[float]:
        return [value, LATTICE_TOL * max(1.0, abs(value))]

    if document["scenario_kind"] == "symmetrization":
        values = {
            "single_particle_position_first": near(x_psi),
            "single_particle_position_second": near(x_phi),
            "two_particle_position_boson": near(pair_position(psi, phi, coords, dx, 1)),
            "two_particle_position_fermion": near(pair_position(psi, phi, coords, dx, -1)),
            "normalization_factor_boson": near(1.0 / np.sqrt(2.0 + 2.0 * overlap**2)),
            "normalization_factor_fermion": near(1.0 / np.sqrt(2.0 - 2.0 * overlap**2)),
            "packet_overlap_abs": [overlap, 1e-12],
        }
        verdicts = list(SYMMETRIZATION_VERDICTS)
        if overlap <= ORTHOGONAL_OVERLAP:
            verdicts.append("normalization_factor_orthogonal")
        keys = list(SYMMETRIZATION_KEYS)
    else:
        domain = document["domain"]
        inside = (coords >= domain["lower"]) & (coords <= domain["upper"])
        values = {
            "single_particle_expectation": near(x_psi),
            "dlocal_two_particle_expectation": near(
                pair_position(psi, phi, np.where(inside, coords, 0.0), dx, 1)
            ),
            "unlocalized_two_particle_expectation": near(pair_position(psi, phi, coords, dx, 1)),
            "dlocal_residual_raw_kernel": near(float(np.max(np.abs(coords[~inside])))),
            "dlocal_residual_localized_kernel": [0.0, 0.0],
        }
        verdicts = list(DLOCAL_VERDICTS)
        keys = list(DLOCAL_KEYS)
    return {"keys": keys, "verdicts": verdicts, "values": values}


def parse_report(text: str, fmt: str) -> tuple[dict[str, float], dict[str, tuple[bool, float]]]:
    """Values, and (passed, residual) per verdict, from a JSON or CSV report."""
    if fmt == "json":
        payload = json.loads(text)["payload"]
        verdicts = {v["name"]: (bool(v["passed"]), float(v["residual"])) for v in payload["verdicts"]}
        return dict(payload["values"]), verdicts
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["metric", "value", "tolerance", "verdict"]:
        raise ValueError("unexpected CSV header")
    values, verdicts = {}, {}
    for metric, value, _tolerance, verdict in rows[1:]:
        if verdict:
            verdicts[metric] = (verdict == "pass", float(value))
        else:
            values[metric] = float(value)
    return values, verdicts


def check_report(expect: dict, text: str, fmt: str) -> tuple[list[str], list[str]]:
    """Compare a report with the reference; return (misses, failed verdict names)."""
    try:
        values, verdicts = parse_report(text, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable report: {exc}"], []
    misses = []
    if sorted(values) != sorted(expect["keys"]):
        misses.append(f"value keys {sorted(values)} != {sorted(expect['keys'])}")
    if sorted(verdicts) != sorted(expect["verdicts"]):
        misses.append(f"verdicts {sorted(verdicts)} != {sorted(expect['verdicts'])}")
    for key, (reference, tol) in expect["values"].items():
        got = values.get(key)
        if got is None or not abs(got - reference) <= tol:
            misses.append(f"{key}: got {got!r}, reference {reference!r} +- {tol:g}")
    # Objectification erases pointer coherence exactly; only roundoff may remain.
    coherence = verdicts.get("rule2_coherence", (True, 0.0))[1]
    if not coherence <= ROUNDOFF:
        misses.append(f"rule2_coherence residual {coherence!r} exceeds roundoff {ROUNDOFF:g}")
    return misses, [name for name, (passed, _) in verdicts.items() if not passed]


def classify(exit_code: int | None, misses: list[str], failed: list[str]) -> str:
    """``ok`` or ``error`` for one operation: it is ``ok`` only if the CLI
    exited 0, the report matched the oracle and every verdict passed."""
    return "ok" if exit_code == 0 and not misses and not failed else "error"
