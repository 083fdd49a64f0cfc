"""Orbital pair formulas against a dense ``n x n`` pair array.

The dense reference builds the amplitude ``nu * (psi phi^T + sign * phi psi^T)``
with ``np.outer``, normalizes it by its quadrature norm and contracts the
registration observable ``a (x) 1 + 1 (x) a`` index by index.  Whole lattice
runs are checked against the same reference and against the one-call-per-value
composition in ``helpers.lattice_composition``, and a count pins that a run
applies each kernel once and forms one orbital matrix.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointerlab import (
    ExchangeSymmetry,
    KernelOperator,
    LatticeGrid,
    LatticeWavefunction,
    TwoParticleWavefunction,
    gaussian_packet,
    run_scenario,
)
from pointerlab.scenario import validate_scenario_data
from helpers import hermitian_kernel, lattice_composition, pair_expectation, quadrature_inner


def packet(grid, center, width, momentum):
    x = grid.coordinates
    raw = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * momentum * x)
    return LatticeWavefunction(grid, raw / np.sqrt(grid.dx * np.sum(np.abs(raw) ** 2)))


def dense_pair(psi, phi, sign):
    dx = psi.grid.dx
    raw = np.outer(psi.values, phi.values) + sign * np.outer(phi.values, psi.values)
    nu = 1.0 / np.sqrt(dx**2 * np.sum(np.abs(raw) ** 2))
    return nu, nu * raw


def dense_expectation(a, amplitude):
    # <Psi| a (x) 1 + 1 (x) a |Psi> = dx^3 sum conj(Psi_ij) (a_ik Psi_kj + a_jl Psi_il):
    # dx^2 for the pair quadrature, dx for the one kernel contraction
    conj = amplitude.conj()
    first = np.einsum("ij,ik,kj->", conj, a.matrix, amplitude)
    second = np.einsum("ij,jl,il->", conj, a.matrix, amplitude)
    return a.grid.dx**3 * (first + second)


def close(value, reference):
    return abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


packet_params = st.tuples(
    st.floats(-3.0, 3.0),  # center
    st.floats(1.0, 3.0),  # width
    st.floats(-2.0, 2.0),  # momentum
)


@settings(max_examples=80)
@given(
    n=st.sampled_from([16, 32, 64]),
    first=packet_params,
    second=packet_params,
    sym=st.sampled_from([ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION]),
    seed=st.integers(0, 2**32 - 1),
)
def test_orbital_pair_matches_dense_pair(n, first, second, sym, seed):
    grid = LatticeGrid(-8.0, 16.0 / n, n)
    psi = packet(grid, *first)
    phi = packet(grid, *second)
    overlap = abs(quadrature_inner(psi, phi))
    if sym is ExchangeSymmetry.FERMION:
        # 1 - |<psi|phi>|^2 is the fermion norm bracket; near zero both the
        # orbital formula and the dense array cancel to roundoff
        assume(1.0 - overlap**2 > 1e-3)
    kernel = hermitian_kernel(grid, seed)

    pair = TwoParticleWavefunction(psi, phi, sym)
    nu, amplitude = dense_pair(psi, phi, sym.sign)
    reference = dense_expectation(kernel, amplitude)

    assert close(pair.nu, nu)
    assert close(pair_expectation(kernel, pair), reference)


def dense_lattice_values(scenario):
    """Every value of a lattice run from dense pair amplitudes and direct quadrature sums.

    The position kernel is diagonal, so ``<Psi| x (x) 1 + 1 (x) x |Psi>`` is
    ``dx^2 * sum_ij |Psi_ij|^2 (x_i + x_j)``; a localized kernel puts
    ``x * chi_D`` in place of ``x``.
    """
    grid = LatticeGrid(**scenario["grid"])
    psi, phi = (gaussian_packet(grid, **packet).values for packet in scenario["packets"])
    dx, x = grid.dx, grid.x_min + grid.dx * np.arange(grid.n_points)

    def position(amplitude, coordinate):
        return dx**2 * np.sum(np.abs(amplitude) ** 2 * (coordinate[:, None] + coordinate[None, :]))

    def pair(sign):
        raw = np.outer(psi, phi) + sign * np.outer(phi, psi)
        nu = 1.0 / np.sqrt(dx**2 * np.sum(np.abs(raw) ** 2))
        return nu, nu * raw

    single = dx * np.sum(x * np.abs(psi) ** 2)
    if scenario["scenario_kind"] == "symmetrization":
        values = {
            "single_particle_position_first": single,
            "single_particle_position_second": dx * np.sum(x * np.abs(phi) ** 2),
            "packet_overlap_abs": abs(dx * np.sum(psi.conj() * phi)),
        }
        for name, sign in (("boson", 1), ("fermion", -1)):
            nu, amplitude = pair(sign)
            values[f"two_particle_position_{name}"] = position(amplitude, x)
            values[f"normalization_factor_{name}"] = nu
        return values
    inside = (x >= scenario["domain"]["lower"]) & (x <= scenario["domain"]["upper"])
    _, amplitude = pair(1)
    two_local = position(amplitude, np.where(inside, x, 0.0))
    two_raw = position(amplitude, x)
    return {
        "dlocal_two_particle_expectation": two_local,
        "single_particle_expectation": single,
        "dlocal_difference": abs(two_local - single),
        "unlocalized_two_particle_expectation": two_raw,
        "unlocalized_difference": abs(two_raw - single),
        "dlocal_residual_raw_kernel": np.max(np.abs(x[~inside]), initial=0.0),
        "dlocal_residual_localized_kernel": 0.0,
    }


def grid_for(x_min, dx, right_end):
    """The smallest power-of-two grid from ``x_min`` that reaches ``right_end``."""
    n_points = max(64, 2 ** math.ceil(math.log2((right_end - x_min) / dx + 1)))
    return {"x_min": x_min, "dx": dx, "n_points": n_points}


WIDTHS = st.floats(0.6, 1.5)


@st.composite
def symmetrization_documents(draw):
    """Two packets from far apart to fully overlapping, on a grid of 2.5 to 4 points per width."""
    x_min, first_width, second_width = draw(st.floats(-30.0, 10.0)), draw(WIDTHS), draw(WIDTHS)
    dx = min(first_width, second_width) / draw(st.floats(2.5, 4.0))
    first = x_min + 5.0 * first_width + draw(st.floats(0.0, 3.0))
    second = first + draw(st.floats(-4.0, 10.0))
    return {
        "scenario_kind": "symmetrization",
        "grid": grid_for(x_min, dx, max(first, second) + 5.0 * max(first_width, second_width)),
        "packets": [
            {"center": first, "width": first_width},
            {"center": second, "width": second_width},
        ],
    }


@st.composite
def dlocal_documents(draw):
    """A first packet inside the domain, a second beyond its upper edge.

    Each edge keeps 5.5 widths from its packet, leaving far less than the
    1e-6 support mass on the wrong side.  The lower edge lies on the grid,
    below it, or between points; either edge may sit exactly on a point.
    """
    x_min, first_width, second_width = draw(st.floats(-30.0, 10.0)), draw(WIDTHS), draw(WIDTHS)
    dx = min(first_width, second_width) / draw(st.floats(2.5, 4.0))
    first = x_min + 6.0 * first_width + draw(st.floats(0.0, 3.0))
    upper = first + 5.5 * first_width + draw(st.floats(0.0, 3.0))
    lower = draw(st.sampled_from([x_min - 1.0, x_min, first - 5.5 * first_width]))
    if draw(st.booleans()):  # snap both edges outward onto grid points
        upper = x_min + dx * math.ceil((upper - x_min) / dx)
        lower = x_min + dx * math.floor((lower - x_min) / dx)
    second = upper + 5.5 * second_width + draw(st.floats(0.0, 3.0))
    return {
        "scenario_kind": "dlocal",
        "grid": grid_for(x_min, dx, second + 6.0 * second_width),
        "packets": [
            {"center": first, "width": first_width},
            {"center": second, "width": second_width},
        ],
        "domain": {"lower": lower, "upper": upper},
    }


def assert_values_close(values, reference):
    assert values.keys() == reference.keys()
    for key, expected in reference.items():
        assert close(values[key], expected), (key, values[key], expected)


def check_run(document):
    scenario = validate_scenario_data(document)
    values = run_scenario(scenario).values
    assert_values_close(values, dense_lattice_values(scenario))
    assert_values_close(values, lattice_composition(scenario))


@settings(max_examples=60)
@given(document=symmetrization_documents())
def test_symmetrization_run_matches_dense_pairs_and_composition(document):
    grid = LatticeGrid(**document["grid"])
    psi, phi = (gaussian_packet(grid, **packet) for packet in document["packets"])
    # the fermion norm bracket 1 - |<psi|phi>|^2 cancels for nearly parallel packets
    assume(1.0 - abs(quadrature_inner(psi, phi)) ** 2 > 1e-2)
    check_run(document)


@settings(max_examples=60)
@given(document=dlocal_documents())
def test_dlocal_run_matches_dense_pairs_and_composition(document):
    check_run(document)


@pytest.mark.parametrize(
    "document, kernels, orbital_matrices",
    [
        (
            {
                "scenario_kind": "symmetrization",
                "grid": {"x_min": -20.0, "dx": 0.078125, "n_points": 512},
                "packets": [{"center": 0.0, "width": 1.0}, {"center": 1.5, "width": 1.2}],
            },
            1,
            1,  # which the fermion pair shares with the boson pair, with S
        ),
        (
            {
                "scenario_kind": "dlocal",
                "grid": {"x_min": -20.0, "dx": 0.078125, "n_points": 512},
                "packets": [{"center": 0.0, "width": 1.0}, {"center": 15.0, "width": 1.0}],
                "domain": {"lower": -5.0, "upper": 5.0},
            },
            2,  # the raw and the localized kernel
            1,
        ),
    ],
)
def test_a_run_applies_each_kernel_once(monkeypatch, document, kernels, orbital_matrices):
    applies, pairs = Counter(), []
    apply, post_init = KernelOperator.apply, TwoParticleWavefunction.__post_init__

    def counted_apply(self, values):
        applies[id(self)] += 1
        return apply(self, values)

    def recorded_post_init(self):
        post_init(self)
        pairs.append(self)

    monkeypatch.setattr(KernelOperator, "apply", counted_apply)
    monkeypatch.setattr(TwoParticleWavefunction, "__post_init__", recorded_post_init)
    run_scenario(validate_scenario_data(document))
    assert sorted(applies.values()) == [1] * kernels
    assert len({id(pair.orbitals) for pair in pairs}) == orbital_matrices
    if document["scenario_kind"] == "symmetrization":
        boson, fermion = pairs
        assert fermion.orbitals is boson.orbitals and fermion.overlaps is boson.overlaps
    else:
        assert len(pairs) == 1
