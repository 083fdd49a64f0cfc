"""Translating a lattice run: a metamorphic check that needs no oracle.

Shifting ``x_min``, both packet centres and the domain by ``k * dx`` moves
the whole layout rigidly along the grid.  Every verdict name and pass flag
stays; the one-particle positions move by the shift, the two-particle
positions by twice the shift, and ``nu`` and the packet overlap do not move.
dlocal values are not compared: the localized kernel answers the packets'
stray tails in proportion to ``|x|``, so its values move with the shift at
about 1e-8 relative.  For the same reason the dlocal layout keeps seven
widths between each packet and the domain edge, so that no shift here moves
its ``agreement`` residual across the tolerance.
"""

import copy

import pytest

from pointerlab import run_scenario
from pointerlab.scenario import validate_scenario_data

GRID = {"x_min": -20.0, "dx": 0.078125, "n_points": 512}

DOCUMENTS = {
    "disjoint": {
        "scenario_kind": "symmetrization",
        "grid": GRID,
        "packets": [{"center": 0.0, "width": 1.0}, {"center": 10.0, "width": 1.0}],
    },
    "overlapping": {
        "scenario_kind": "symmetrization",
        "grid": GRID,
        "packets": [{"center": -1.0, "width": 0.9}, {"center": 0.7, "width": 1.3}],
    },
    "dlocal": {
        "scenario_kind": "dlocal",
        "grid": GRID,
        "packets": [{"center": 0.0, "width": 1.0}, {"center": 14.0, "width": 1.0}],
        "domain": {"lower": -7.0, "upper": 7.0},
    },
}

#: How far each symmetrization value moves, in units of the shift.
MOVES = {
    "single_particle_position_first": 1,
    "single_particle_position_second": 1,
    "two_particle_position_boson": 2,
    "two_particle_position_fermion": 2,
    "normalization_factor_boson": 0,
    "normalization_factor_fermion": 0,
    "packet_overlap_abs": 0,
}


def shifted(document, steps):
    moved = copy.deepcopy(document)
    shift = steps * moved["grid"]["dx"]
    moved["grid"]["x_min"] += shift
    for packet in moved["packets"]:
        packet["center"] += shift
    if "domain" in moved:
        moved["domain"] = {edge: value + shift for edge, value in moved["domain"].items()}
    return moved, shift


@pytest.mark.parametrize("steps", [-37, 1, 200])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_translation_moves_positions_and_keeps_verdicts(name, steps):
    document = DOCUMENTS[name]
    base = run_scenario(validate_scenario_data(document))
    moved_document, shift = shifted(document, steps)
    moved = run_scenario(validate_scenario_data(moved_document))

    verdicts = [(v.name, v.passed) for v in base.verdicts]
    assert [(v.name, v.passed) for v in moved.verdicts] == verdicts
    if document["scenario_kind"] != "symmetrization":
        return
    assert base.values.keys() == MOVES.keys()
    for key, factor in MOVES.items():
        expected = base.values[key] + factor * shift
        assert abs(moved.values[key] - expected) <= 1e-12 * max(1.0, abs(expected)), key
