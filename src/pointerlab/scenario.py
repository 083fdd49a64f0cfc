"""Declarative scenario files: schema, strict validation, default filling.

A scenario is a single JSON document.  Unknown keys are rejected with the
offending key path, because a silently ignored typo in a physics config
produces wrong science.  Complex amplitudes are written as ``[re, im]``
pairs (bare numbers are accepted for real amplitudes).  Validation here is
structural; physics-level checks such as basis orthonormality run when the
scenario is executed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .lattice import LatticeGrid
from .premeasurement import BclSpec, _canonical_families
from .hilbert import StateVector
from .tolerances import DENSE_DIM_CAP, SUPPORT_MASS_EPSILON

__all__ = [
    "ScenarioConfig",
    "GridConfig",
    "PacketConfig",
    "DomainConfig",
    "BclBlockConfig",
    "load_scenario",
    "validate_scenario_data",
    "TOLERANCE_DEFAULTS",
]

SCENARIO_KINDS = ("symmetrization", "dlocal", "bcl", "full_measurement")
WITNESS_KINDS = ("sigma_x_pattern", "system_observable")

_BCL_TOLERANCES = {
    "probability_sum": 1e-10,
    "probability_formula": 1e-12,
    "unitarity": 1e-10,
    "extension_map": 1e-10,
    "reconstruction": 1e-10,
    "apparatus_marginal": 1e-10,
}

TOLERANCE_DEFAULTS: dict[str, dict[str, float]] = {
    "symmetrization": {
        "discrepancy": 1e-5,
        "exchange_sign_agreement": 1e-8,
        "normalization_factor": 1e-8,
    },
    "dlocal": {
        "agreement": 1e-6,
        "unlocalized_discrepancy": 1e-4,
        "support_mass": SUPPORT_MASS_EPSILON,
        "dlocal": 0.0,
    },
    "bcl": dict(_BCL_TOLERANCES),
    "full_measurement": {
        **_BCL_TOLERANCES,
        "marginal_system": 1e-10,
        "marginal_apparatus": 1e-10,
        "apparatus_gemenge": 1e-12,
        "entropy_gap": 1e-8,
        "rule2_coherence": 0.0,
    },
}


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, "expected an object")
    return value


def _check_keys(mapping: dict, path: str, required: set[str], optional: set[str]) -> None:
    allowed = required | optional
    for key in mapping:
        if key not in allowed:
            raise _fail(path, f"unknown key {key!r}")
    for key in required:
        if key not in mapping:
            raise _fail(path, f"missing required key {key!r}")


def _finite_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, "expected a number")
    number = float(value)
    if not np.isfinite(number):
        raise _fail(path, "must be finite")
    return number


def _positive_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, "expected an integer")
    if value <= 0:
        raise _fail(path, "must be positive")
    return value


def _amplitude(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not np.isfinite(float(value)):
            raise _fail(path, "must be finite")
        return complex(float(value), 0.0)
    if isinstance(value, list) and len(value) == 2:
        re = _finite_float(value[0], f"{path}[0]")
        im = _finite_float(value[1], f"{path}[1]")
        return complex(re, im)
    raise _fail(path, "expected a number or an [re, im] pair")


def _amplitude_list(value, path: str) -> tuple[complex, ...]:
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a non-empty list of amplitudes")
    return tuple(_amplitude(entry, f"{path}[{i}]") for i, entry in enumerate(value))


def _amplitude_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


@dataclass(frozen=True, eq=False)
class GridConfig:
    x_min: float
    dx: float
    n_points: int

    def build(self) -> LatticeGrid:
        return LatticeGrid(x_min=self.x_min, dx=self.dx, n_points=self.n_points)

    def to_dict(self) -> dict:
        return {"x_min": self.x_min, "dx": self.dx, "n_points": self.n_points}


@dataclass(frozen=True, eq=False)
class PacketConfig:
    center: float
    width: float

    def to_dict(self) -> dict:
        return {"center": self.center, "width": self.width}


@dataclass(frozen=True, eq=False)
class DomainConfig:
    lower: float
    upper: float

    def to_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper}


@dataclass(frozen=True, eq=False)
class BclBlockConfig:
    """Premeasurement block: canonical bases by default, explicit on demand."""

    eigenvalues: tuple[float, ...]
    degeneracies: tuple[int, ...]
    apparatus_dim: int
    system_eigenbasis: tuple[tuple[tuple[complex, ...], ...], ...] | None = None
    pointer_basis: tuple[tuple[complex, ...], ...] | None = None
    ready_state: tuple[complex, ...] | None = None
    transfer_family: tuple[tuple[tuple[complex, ...], ...], ...] | None = None

    @property
    def system_dim(self) -> int:
        return sum(self.degeneracies)

    def build(self) -> BclSpec:
        if self.system_eigenbasis is None:
            eigenbasis, pointers = _canonical_families(self.degeneracies, self.apparatus_dim)
            ready = pointers[0]
        else:
            eigenbasis = tuple(
                tuple(StateVector(np.array(vec)) for vec in sector)
                for sector in self.system_eigenbasis
            )
            pointers = tuple(StateVector(np.array(vec)) for vec in self.pointer_basis)
            ready = (
                StateVector(np.array(self.ready_state))
                if self.ready_state is not None
                else pointers[0]
            )
        if self.transfer_family is None:
            transfer = eigenbasis
        else:
            transfer = tuple(
                tuple(StateVector(np.array(vec)) for vec in sector)
                for sector in self.transfer_family
            )
        return BclSpec(
            eigenvalues=self.eigenvalues,
            system_eigenbasis=eigenbasis,
            pointer_basis=pointers,
            ready_state=ready,
            transfer_family=transfer,
        )

    def to_dict(self) -> dict:
        data: dict = {
            "eigenvalues": list(self.eigenvalues),
            "degeneracies": list(self.degeneracies),
            "apparatus_dim": self.apparatus_dim,
        }
        if self.system_eigenbasis is None:
            data["basis"] = "canonical"
        else:
            data["basis"] = {
                "system_eigenbasis": [
                    [[_amplitude_pair(z) for z in vec] for vec in sector]
                    for sector in self.system_eigenbasis
                ],
                "pointer_basis": [
                    [_amplitude_pair(z) for z in vec] for vec in self.pointer_basis
                ],
            }
            if self.ready_state is not None:
                data["basis"]["ready_state"] = [_amplitude_pair(z) for z in self.ready_state]
        if self.transfer_family is None:
            data["transfer_family"] = "default"
        else:
            data["transfer_family"] = [
                [[_amplitude_pair(z) for z in vec] for vec in sector]
                for sector in self.transfer_family
            ]
        return data


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Fully validated scenario with every default filled in."""

    scenario_kind: str
    tolerances: dict[str, float]
    grid: GridConfig | None = None
    packets: tuple[PacketConfig, ...] = ()
    domain: DomainConfig | None = None
    bcl: BclBlockConfig | None = None
    initial_state: tuple[complex, ...] | None = None
    witness: str | None = None
    output_json: str | None = None
    output_csv: str | None = None

    def to_dict(self) -> dict:
        """Normalized echo of the scenario, key order fixed for reports."""
        data: dict = {"scenario_kind": self.scenario_kind}
        if self.grid is not None:
            data["grid"] = self.grid.to_dict()
        if self.packets:
            data["packets"] = [p.to_dict() for p in self.packets]
        if self.domain is not None:
            data["domain"] = self.domain.to_dict()
        if self.bcl is not None:
            data["bcl"] = self.bcl.to_dict()
        if self.initial_state is not None:
            data["initial_state"] = [_amplitude_pair(z) for z in self.initial_state]
        if self.witness is not None:
            data["witness"] = self.witness
        data["tolerances"] = dict(self.tolerances)
        data["output"] = {"json": self.output_json, "csv": self.output_csv}
        return data


def _parse_grid(value, path: str) -> GridConfig:
    mapping = _require_mapping(value, path)
    _check_keys(mapping, path, {"x_min", "dx", "n_points"}, set())
    n_points = _positive_int(mapping["n_points"], f"{path}.n_points")
    if n_points < 64 or n_points > 4096 or n_points & (n_points - 1):
        raise _fail(f"{path}.n_points", "must be a power of two between 64 and 4096")
    dx = _finite_float(mapping["dx"], f"{path}.dx")
    if dx <= 0:
        raise _fail(f"{path}.dx", "must be positive")
    return GridConfig(
        x_min=_finite_float(mapping["x_min"], f"{path}.x_min"), dx=dx, n_points=n_points
    )


def _parse_packets(value, path: str) -> tuple[PacketConfig, ...]:
    if not isinstance(value, list) or len(value) != 2:
        raise _fail(path, "expected a list of exactly two packets")
    packets = []
    for i, entry in enumerate(value):
        sub = f"{path}[{i}]"
        mapping = _require_mapping(entry, sub)
        _check_keys(mapping, sub, {"center", "width"}, set())
        width = _finite_float(mapping["width"], f"{sub}.width")
        if width <= 0:
            raise _fail(f"{sub}.width", "must be positive")
        packets.append(
            PacketConfig(center=_finite_float(mapping["center"], f"{sub}.center"), width=width)
        )
    return tuple(packets)


def _parse_domain(value, path: str) -> DomainConfig:
    mapping = _require_mapping(value, path)
    _check_keys(mapping, path, {"lower", "upper"}, set())
    lower = _finite_float(mapping["lower"], f"{path}.lower")
    upper = _finite_float(mapping["upper"], f"{path}.upper")
    if upper < lower:
        raise _fail(path, "upper must not be below lower")
    return DomainConfig(lower=lower, upper=upper)


def _parse_vector_list(value, path: str, count: int | None = None) -> tuple[tuple[complex, ...], ...]:
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a non-empty list of vectors")
    if count is not None and len(value) != count:
        raise _fail(path, f"expected exactly {count} vectors")
    return tuple(_amplitude_list(entry, f"{path}[{i}]") for i, entry in enumerate(value))


def _parse_sector_family(
    value, path: str, degeneracies: tuple[int, ...]
) -> tuple[tuple[tuple[complex, ...], ...], ...]:
    if not isinstance(value, list) or len(value) != len(degeneracies):
        raise _fail(path, f"expected one sector per eigenvalue ({len(degeneracies)})")
    sectors = []
    for k, sector in enumerate(value):
        sectors.append(_parse_vector_list(sector, f"{path}[{k}]", count=degeneracies[k]))
    return tuple(sectors)


def _parse_bcl(value, path: str) -> BclBlockConfig:
    mapping = _require_mapping(value, path)
    _check_keys(
        mapping,
        path,
        {"eigenvalues", "degeneracies"},
        {"apparatus_dim", "basis", "transfer_family"},
    )
    raw_eigenvalues = mapping["eigenvalues"]
    if not isinstance(raw_eigenvalues, list) or not raw_eigenvalues:
        raise _fail(f"{path}.eigenvalues", "expected a non-empty list")
    eigenvalues = tuple(
        _finite_float(v, f"{path}.eigenvalues[{i}]") for i, v in enumerate(raw_eigenvalues)
    )
    if len(set(eigenvalues)) != len(eigenvalues):
        raise _fail(f"{path}.eigenvalues", "must be distinct")
    raw_degeneracies = mapping["degeneracies"]
    if not isinstance(raw_degeneracies, list) or len(raw_degeneracies) != len(eigenvalues):
        raise _fail(f"{path}.degeneracies", "expected one entry per eigenvalue")
    degeneracies = tuple(
        _positive_int(v, f"{path}.degeneracies[{i}]") for i, v in enumerate(raw_degeneracies)
    )
    system_dim = sum(degeneracies)
    apparatus_dim = (
        _positive_int(mapping["apparatus_dim"], f"{path}.apparatus_dim")
        if "apparatus_dim" in mapping
        else len(eigenvalues)
    )
    if apparatus_dim < len(eigenvalues):
        raise _fail(f"{path}.apparatus_dim", "needs at least one dimension per sector")
    if system_dim * apparatus_dim > DENSE_DIM_CAP:
        raise _fail(path, f"system_dim * apparatus_dim exceeds the cap {DENSE_DIM_CAP}")

    eigenbasis = pointer = ready = None
    basis_value = mapping.get("basis", "canonical")
    if basis_value != "canonical":
        basis_path = f"{path}.basis"
        basis_map = _require_mapping(basis_value, basis_path)
        _check_keys(
            basis_map, basis_path, {"system_eigenbasis", "pointer_basis"}, {"ready_state"}
        )
        eigenbasis = _parse_sector_family(
            basis_map["system_eigenbasis"], f"{basis_path}.system_eigenbasis", degeneracies
        )
        pointer = _parse_vector_list(
            basis_map["pointer_basis"], f"{basis_path}.pointer_basis", count=len(eigenvalues)
        )
        if "ready_state" in basis_map:
            ready = _amplitude_list(basis_map["ready_state"], f"{basis_path}.ready_state")

    transfer_value = mapping.get("transfer_family", "default")
    transfer = (
        None
        if transfer_value == "default"
        else _parse_sector_family(transfer_value, f"{path}.transfer_family", degeneracies)
    )
    return BclBlockConfig(
        eigenvalues=eigenvalues,
        degeneracies=degeneracies,
        apparatus_dim=apparatus_dim,
        system_eigenbasis=eigenbasis,
        pointer_basis=pointer,
        ready_state=ready,
        transfer_family=transfer,
    )


def _parse_tolerances(value, path: str, kind: str) -> dict[str, float]:
    defaults = dict(TOLERANCE_DEFAULTS[kind])
    if value is None:
        return defaults
    mapping = _require_mapping(value, path)
    for key, entry in mapping.items():
        if key not in defaults:
            raise _fail(f"{path}.{key}", f"unknown tolerance for kind {kind!r}")
        number = _finite_float(entry, f"{path}.{key}")
        if number < 0:
            raise _fail(f"{path}.{key}", "must be nonnegative")
        defaults[key] = number
    return defaults


def _parse_output(value, path: str) -> tuple[str | None, str | None]:
    if value is None:
        return None, None
    mapping = _require_mapping(value, path)
    _check_keys(mapping, path, set(), {"json", "csv"})
    paths = []
    for key in ("json", "csv"):
        entry = mapping.get(key)
        if entry is not None and not isinstance(entry, str):
            raise _fail(f"{path}.{key}", "expected a path string")
        paths.append(entry)
    return paths[0], paths[1]


_KIND_KEYS: dict[str, tuple[set[str], set[str]]] = {
    "symmetrization": ({"grid", "packets"}, set()),
    "dlocal": ({"grid", "packets", "domain"}, set()),
    "bcl": ({"bcl", "initial_state"}, set()),
    "full_measurement": ({"bcl", "initial_state"}, {"witness"}),
}


def validate_scenario_data(data) -> ScenarioConfig:
    """Validate a parsed scenario document and fill defaults."""
    mapping = _require_mapping(data, "scenario")
    kind = mapping.get("scenario_kind")
    if kind not in SCENARIO_KINDS:
        raise _fail("scenario.scenario_kind", f"expected one of {SCENARIO_KINDS}")
    required, optional = _KIND_KEYS[kind]
    _check_keys(
        mapping,
        "scenario",
        required | {"scenario_kind"},
        optional | {"tolerances", "output"},
    )

    grid = _parse_grid(mapping["grid"], "scenario.grid") if "grid" in mapping else None
    packets = (
        _parse_packets(mapping["packets"], "scenario.packets") if "packets" in mapping else ()
    )
    domain = _parse_domain(mapping["domain"], "scenario.domain") if "domain" in mapping else None
    bcl = _parse_bcl(mapping["bcl"], "scenario.bcl") if "bcl" in mapping else None
    initial_state = (
        _amplitude_list(mapping["initial_state"], "scenario.initial_state")
        if "initial_state" in mapping
        else None
    )
    if bcl is not None and initial_state is not None:
        if len(initial_state) != bcl.system_dim:
            raise _fail(
                "scenario.initial_state",
                f"expected {bcl.system_dim} amplitudes for the configured system",
            )
        if all(abs(z) == 0.0 for z in initial_state):
            raise _fail("scenario.initial_state", "must not be the zero vector")

    witness = None
    if kind == "full_measurement":
        witness = mapping.get("witness", "sigma_x_pattern")
        if witness not in WITNESS_KINDS:
            raise _fail("scenario.witness", f"expected one of {WITNESS_KINDS}")

    tolerances = _parse_tolerances(mapping.get("tolerances"), "scenario.tolerances", kind)
    output_json, output_csv = _parse_output(mapping.get("output"), "scenario.output")
    return ScenarioConfig(
        scenario_kind=kind,
        tolerances=tolerances,
        grid=grid,
        packets=packets,
        domain=domain,
        bcl=bcl,
        initial_state=initial_state,
        witness=witness,
        output_json=output_json,
        output_csv=output_csv,
    )


def load_scenario(path) -> ScenarioConfig:
    """Read, parse and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return validate_scenario_data(data)
