"""Declarative scenario files: schema, strict validation, default filling.

A scenario is a single JSON document.  Unknown keys are rejected with the
offending key path, because a silently ignored typo in a physics config
produces wrong science.  Complex amplitudes are written as ``[re, im]``
pairs (bare numbers are accepted for real amplitudes).

Validation returns the document in normalized form, the one representation
of a scenario: keys in a fixed order, every default filled in, real numbers
as floats, counts as ints and every amplitude list as one read-only
``(n, 2)`` float array of ``[re, im]`` rows.  The vectors of one amplitude
family (every sector of ``system_eigenbasis`` or ``transfer_family``, the
whole ``pointer_basis``, or a single ``initial_state`` or ``ready_state``)
are converted together: when each vector has the configured length and
holds only pairs or only bare numbers, one ``np.fromiter`` and one
finiteness test cover the family (in batches of at most
``AMPLITUDE_BATCH_ENTRIES`` numbers), and each vector is a read-only view of
the family array.  Anything else sends the family to the walk, entry by
entry and in document order, so a mixed list normalizes to the same values
and a fault names the entry that holds it.  The runner reads the normalized
form and every report echoes it as its ``scenario``, so
validating the echo's JSON text gives the same text back.  Each JSON object
is parsed by one field table that lists its keys in echo order.  Validation
here is structural; physics-level checks such as basis orthonormality run
when the scenario is executed.
"""

from __future__ import annotations

import gc
import json
import math
import os
from itertools import chain, islice

import numpy as np

from .errors import ParseError, ValidationError
from .tolerances import (
    AMPLITUDE_BATCH_ENTRIES,
    DENSE_DIM_CAP,
    GRID_POINTS_MAX,
    GRID_POINTS_MIN,
    TOLERANCE_DEFAULTS,
)

__all__ = [
    "load_scenario",
    "validate_scenario_data",
    "TOLERANCE_DEFAULTS",
]

WITNESS_KINDS = ("sigma_x_pattern", "system_observable")


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, "expected an object")
    return value


def _record(value, path: str, fields: dict) -> dict:
    """Parse one JSON object against its field table, in the table's key order.

    A field maps to ``parse`` when its key is required, or to
    ``(parse, default)`` when it is optional: ``default(record)`` fills an
    absent key, and a ``None`` default leaves it out.  Both ``default`` and
    ``parse(value, path, record)`` see the fields parsed before theirs.
    """
    mapping = _require_mapping(value, path)
    for key in mapping:
        if key not in fields:
            raise _fail(path, f"unknown key {key!r}")
    for key, field in fields.items():
        if not isinstance(field, tuple) and key not in mapping:
            raise _fail(path, f"missing required key {key!r}")
    record: dict = {}
    for key, field in fields.items():
        parse, default = field if isinstance(field, tuple) else (field, None)
        if key in mapping:
            record[key] = parse(mapping[key], f"{path}.{key}", record)
        elif default is not None:
            record[key] = default(record)
    return record


def _number(value, path: str, record=None) -> float:
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _fail(path, "expected a number")
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            raise _fail(path, "must be finite") from None
    if not math.isfinite(value):
        raise _fail(path, "must be finite")
    return value


def _positive_number(value, path: str, record=None) -> float:
    number = _number(value, path)
    if number <= 0:
        raise _fail(path, "must be positive")
    return number


def _positive_int(value, path: str, record=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, "expected an integer")
    if value <= 0:
        raise _fail(path, "must be positive")
    return value


def _grid_size(value, path: str, record=None) -> int:
    n_points = _positive_int(value, path)
    if n_points < GRID_POINTS_MIN or n_points > GRID_POINTS_MAX or n_points & (n_points - 1):
        raise _fail(
            path, f"must be a power of two between {GRID_POINTS_MIN} and {GRID_POINTS_MAX}"
        )
    return n_points


def _amplitude(value) -> list[float]:
    """One amplitude as an ``[re, im]`` pair; a fault names its path below the entry."""
    if isinstance(value, list) and len(value) == 2:
        return [_number(value[0], "[0]"), _number(value[1], "[1]")]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [_number(value, ""), 0.0]
    raise _fail("", "expected a number or an [re, im] pair")


def _amplitude_family(vectors: list, length: int) -> np.ndarray | None:
    """Every vector of a family as one read-only ``(count, length, 2)`` array, else ``None``.

    Each vector must be a list of ``length`` entries, and each chunk of at
    most :data:`AMPLITUDE_BATCH_ENTRIES` numbers only pairs or only bare
    numbers, converted by one ``np.fromiter``; one finiteness test covers the
    family.  Anything else is left to the walk: booleans and strings, which
    numpy would convert, integers beyond the float range, non-finite values,
    other lengths and mixed lists.
    """
    if set(map(type, vectors)) != {list} or set(map(len, vectors)) != {length}:
        return None
    family = np.empty((len(vectors), length, 2))
    step = max(1, AMPLITUDE_BATCH_ENTRIES // (2 * length))
    for lo in range(0, len(vectors), step):
        entries = list(chain.from_iterable(vectors[lo : lo + step]))
        kinds = set(map(type, entries))
        if kinds == {list} and set(map(len, entries)) == {2}:
            numbers = list(chain.from_iterable(entries))
        elif kinds <= {int, float}:
            numbers = entries
        else:
            return None
        if not set(map(type, numbers)) <= {int, float}:
            return None
        try:
            array = np.fromiter(numbers, float, len(numbers))
        except OverflowError:  # an integer beyond the float range
            return None
        block = family[lo : lo + step]
        if numbers is entries:  # bare numbers have zero imaginary parts
            block[..., 0] = array.reshape(-1, length)
            block[..., 1] = 0.0
        else:
            block[...] = array.reshape(-1, length, 2)
    if not np.isfinite(family).all():
        return None
    family.setflags(write=False)
    return family


def _walk(value, path: str, length: int, factor: str) -> np.ndarray:
    """One amplitude list checked entry by entry, so a fault names the entry that holds it."""
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a non-empty list of amplitudes")
    pairs = []
    for i, entry in enumerate(value):
        try:
            pairs.append(_amplitude(entry))
        except ValidationError as exc:
            # the key path is built only for the entry that fails
            raise ValidationError(f"{path}[{i}]{exc}") from None
    if len(pairs) != length:
        raise _fail(path, f"expected {length} amplitudes for the configured {factor}")
    amplitudes = np.array(pairs, dtype=float)
    amplitudes.setflags(write=False)
    return amplitudes


def _sized_amplitudes(value, path: str, length: int, factor: str) -> np.ndarray:
    family = _amplitude_family([value], length)
    return _walk(value, path, length, factor) if family is None else family[0]


def _vector_count(value, path: str, count: int) -> None:
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a non-empty list of vectors")
    if len(value) != count:
        raise _fail(path, f"expected exactly {count} vectors")


def _walk_vectors(value, path: str, count: int, length: int, factor: str) -> list[np.ndarray]:
    _vector_count(value, path, count)
    return [_walk(entry, f"{path}[{i}]", length, factor) for i, entry in enumerate(value)]


def _vectors(value, path: str, count: int, length: int, factor: str) -> list[np.ndarray]:
    _vector_count(value, path, count)
    family = _amplitude_family(value, length)
    if family is None:
        return _walk_vectors(value, path, count, length, factor)
    return list(family)


def _sectors(value, path: str, degeneracies: list[int]) -> list:
    """A family given sector by sector, converted as one; any fault is found by the walk."""
    if not isinstance(value, list) or len(value) != len(degeneracies):
        raise _fail(path, f"expected one sector per eigenvalue ({len(degeneracies)})")
    system_dim = sum(degeneracies)
    if all(type(sector) is list and len(sector) == d for sector, d in zip(value, degeneracies)):
        family = _amplitude_family(list(chain.from_iterable(value)), system_dim)
        if family is not None:
            vectors = iter(family)
            return [list(islice(vectors, count)) for count in degeneracies]
    return [
        _walk_vectors(sector, f"{path}[{k}]", count, system_dim, "system")
        for k, (sector, count) in enumerate(zip(value, degeneracies))
    ]


def _width(value, path: str, record=None) -> float:
    width = _positive_number(value, path)
    if not math.isfinite(4.0 * width * width):  # a packet divides by 4 width^2
        raise _fail(path, "too large: 4 * width**2 overflows")
    return width


_GRID = {"x_min": _number, "dx": _positive_number, "n_points": _grid_size}
_PACKET = {"center": _number, "width": _width}
_DOMAIN = {"lower": _number, "upper": _number}


def _grid(value, path: str, doc: dict) -> dict:
    grid = _record(value, path, _GRID)
    x_min, dx = grid["x_min"], grid["dx"]
    extent = dx * grid["n_points"]
    if not math.isfinite(extent * extent):  # a packet squares distances across the grid
        raise _fail(path, "too large: (n_points * dx)**2 overflows")
    if not math.isfinite(max(abs(x_min), abs(x_min + extent)) / dx):  # a kernel holds x / dx
        raise _fail(path, "too large: |x| / dx overflows")
    return grid


def _packets(value, path: str, doc: dict) -> list[dict]:
    if not isinstance(value, list) or len(value) != 2:
        raise _fail(path, "expected a list of exactly two packets")
    return [_record(entry, f"{path}[{i}]", _PACKET) for i, entry in enumerate(value)]


def _domain(value, path: str, doc: dict) -> dict:
    domain = _record(value, path, _DOMAIN)
    if domain["upper"] < domain["lower"]:
        raise _fail(path, "upper must not be below lower")
    return domain


def _eigenvalue(value, path: str) -> float:
    eigenvalue = _number(value, path)
    if not math.isfinite(2.0 * eigenvalue):  # a witness expectation averages eigenvalues
        raise _fail(path, "too large: 2 * |eigenvalue| overflows")
    return eigenvalue


def _eigenvalues(value, path: str, bcl: dict) -> list[float]:
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a non-empty list")
    eigenvalues = [_eigenvalue(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if len(set(eigenvalues)) != len(eigenvalues):
        raise _fail(path, "must be distinct")
    return eigenvalues


def _degeneracies(value, path: str, bcl: dict) -> list[int]:
    if not isinstance(value, list) or len(value) != len(bcl["eigenvalues"]):
        raise _fail(path, "expected one entry per eigenvalue")
    return [_positive_int(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _apparatus_dim(value, path: str, bcl: dict) -> int:
    apparatus_dim = _positive_int(value, path)
    if apparatus_dim < len(bcl["eigenvalues"]):
        raise _fail(path, "needs at least one dimension per sector")
    return apparatus_dim


def _basis(value, path: str, bcl: dict) -> str | dict:
    if value == "canonical":
        return value
    apparatus_dim = bcl["apparatus_dim"]
    fields = {
        "system_eigenbasis": lambda v, p, _: _sectors(v, p, bcl["degeneracies"]),
        "pointer_basis": lambda v, p, _: _vectors(
            v, p, len(bcl["eigenvalues"]), apparatus_dim, "apparatus"
        ),
        "ready_state": (lambda v, p, _: _sized_amplitudes(v, p, apparatus_dim, "apparatus"), None),
    }
    return _record(value, path, fields)


def _transfer_family(value, path: str, bcl: dict) -> str | list:
    return value if value == "default" else _sectors(value, path, bcl["degeneracies"])


_BCL = {
    "eigenvalues": _eigenvalues,
    "degeneracies": _degeneracies,
    "apparatus_dim": (_apparatus_dim, lambda bcl: len(bcl["eigenvalues"])),
    "basis": (_basis, lambda bcl: "canonical"),
    "transfer_family": (_transfer_family, lambda bcl: "default"),
}


def _bcl(value, path: str, doc: dict) -> dict:
    bcl = _record(value, path, _BCL)
    if sum(bcl["degeneracies"]) * bcl["apparatus_dim"] > DENSE_DIM_CAP:
        raise _fail(path, f"system_dim * apparatus_dim exceeds the cap {DENSE_DIM_CAP}")
    return bcl


def _initial_state(value, path: str, doc: dict) -> np.ndarray:
    state = _sized_amplitudes(value, path, sum(doc["bcl"]["degeneracies"]), "system")
    if not state.any():
        raise _fail(path, "must not be the zero vector")
    return state


def _witness(value, path: str, doc: dict) -> str:
    if value not in WITNESS_KINDS:
        raise _fail(path, f"expected one of {WITNESS_KINDS}")
    return value


def _tolerances(value, path: str, doc: dict) -> dict[str, float]:
    kind = doc["scenario_kind"]
    tolerances = dict(TOLERANCE_DEFAULTS[kind])
    if value is None:
        return tolerances
    for key, entry in _require_mapping(value, path).items():
        if key not in tolerances:
            raise _fail(f"{path}.{key}", f"unknown tolerance for kind {kind!r}")
        number = _number(entry, f"{path}.{key}")
        if number < 0:
            raise _fail(f"{path}.{key}", "must be nonnegative")
        tolerances[key] = number
    return tolerances


def _path_string(value, path: str, output: dict) -> str | None:
    if value is not None and not isinstance(value, str):
        raise _fail(path, "expected a path string")
    return value


_OUTPUT = {"json": (_path_string, lambda output: None), "csv": (_path_string, lambda output: None)}


def _output(value, path: str, doc: dict) -> dict:
    return _record({} if value is None else value, path, _OUTPUT)


def _scenario_fields(kind_fields: dict) -> dict:
    return {
        # checked against the kind table before the record is parsed
        "scenario_kind": lambda value, path, doc: value,
        **kind_fields,
        "tolerances": (_tolerances, lambda doc: _tolerances(None, "", doc)),
        "output": (_output, lambda doc: _output(None, "", doc)),
    }


_SCENARIOS = {
    "symmetrization": _scenario_fields({"grid": _grid, "packets": _packets}),
    "dlocal": _scenario_fields({"grid": _grid, "packets": _packets, "domain": _domain}),
    "bcl": _scenario_fields({"bcl": _bcl, "initial_state": _initial_state}),
    "full_measurement": _scenario_fields(
        {
            "bcl": _bcl,
            "initial_state": _initial_state,
            "witness": (_witness, lambda doc: "sigma_x_pattern"),
        }
    ),
}
SCENARIO_KINDS = tuple(_SCENARIOS)


def validate_scenario_data(data) -> dict:
    """Validate a parsed scenario document and return it normalized."""
    mapping = _require_mapping(data, "scenario")
    kind = mapping.get("scenario_kind")
    if kind not in SCENARIO_KINDS:
        raise _fail("scenario.scenario_kind", f"expected one of {SCENARIO_KINDS}")
    return _record(mapping, "scenario", _SCENARIOS[kind])


def _read(path) -> bytes:
    """The bytes of the file at ``path``, read with plain OS calls and no file object.

    One ``os.read`` sized from ``os.fstat`` reads a regular file whole, and
    further reads continue to end of file (a file that grew, or a pipe).  An
    ``OSError`` names ``path``, also the ``EISDIR`` that ``os.read`` raises
    on a directory, which ``os.open`` opens.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = [os.read(fd, os.fstat(fd).st_size + 1)]
            while chunks[-1]:
                chunks.append(os.read(fd, 2**20))
        finally:
            os.close(fd)
    except OSError as exc:
        exc.filename = path
        raise
    return chunks[0] if len(chunks) <= 2 else b"".join(chunks)  # a whole read ends [data, b""]


def load_scenario(path) -> dict:
    """Read, parse and validate a scenario file.

    The file is read with plain OS calls, decoded once as strict UTF-8 and
    parsed by ``json.loads``; the bytes and the text are freed before
    validation starts.  A file that is not UTF-8 or JSON (a UTF-8 byte order
    mark included), nests past the parser's recursion limit or holds an
    integer past ``int``'s digit limit is a ``ParseError``; a file that
    cannot be read raises the ``OSError`` naming ``path``.  The parsed
    document holds one list per ``[re, im]`` pair and no reference cycle, so
    the cyclic garbage collector is paused until it is freed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        document = json.loads(_read(path).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    else:
        return validate_scenario_data(document)
    finally:
        if collecting:
            gc.enable()
