"""Diagonal kernels against their dense ``np.diag`` form, and the lattice run's memory.

A multiplication operator stored as its ``(n,)`` diagonal must give the same
expectations, localization and residual as the dense ``(n, n)`` kernel with
that diagonal.  The run-path test pins that no ``n x n`` array is allocated
by a ``symmetrization`` or ``dlocal`` scenario at the top of the grid ladder.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointerlab import (
    Domain,
    ExchangeSymmetry,
    KernelOperator,
    LatticeGrid,
    LatticeWavefunction,
    dlocal_residual,
    expectation_single,
    expectation_two_particle,
    localize,
    position_kernel,
    run_scenario,
    symmetrize,
)
from pointerlab.scenario import validate_scenario_data
from pointerlab.tolerances import INVARIANT_TOL


def random_wavefunction(grid, rng):
    raw = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    return LatticeWavefunction(grid, raw / np.sqrt(grid.dx * np.sum(np.abs(raw) ** 2)))


def close(value, reference):
    return abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


@settings(max_examples=60)
@given(
    n=st.integers(16, 256),
    x_min=st.floats(-10.0, 0.0),
    dx=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_matches_dense_diag(n, x_min, dx, seed):
    rng = np.random.default_rng(seed)
    grid = LatticeGrid(x_min, dx, n)
    d = rng.normal(size=n) / dx
    diagonal = KernelOperator(grid, d, hermitian=True)
    dense = KernelOperator(grid, np.diag(d), hermitian=True)
    assert diagonal.entries.shape == (n,)

    psi = random_wavefunction(grid, rng)
    phi = random_wavefunction(grid, rng)
    # near-parallel fermion orbitals cancel to roundoff in both forms
    assume(1.0 - abs(psi.inner(phi)) ** 2 > 1e-3)
    assert close(expectation_single(diagonal, psi), expectation_single(dense, psi))
    for sym in (ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION):
        pair = symmetrize(psi, phi, sym)
        assert close(expectation_two_particle(diagonal, pair), expectation_two_particle(dense, pair))

    for _ in range(3):
        domain = Domain.from_mask(rng.random(n) < rng.random())
        local, dense_local = localize(diagonal, domain), localize(dense, domain)
        assert local.entries.ndim == 1
        assert np.array_equal(local.kernel, dense_local.kernel)
        assert dlocal_residual(diagonal, domain) == dlocal_residual(dense, domain)
        assert dlocal_residual(local, domain) == dlocal_residual(dense_local, domain)

    skewed = d.astype(complex)
    skewed[rng.integers(n)] += 2j * INVARIANT_TOL
    with pytest.raises(ValueError, match="hermitian"):
        KernelOperator(grid, skewed, hermitian=True)
    with pytest.raises(ValueError, match="hermitian"):
        KernelOperator(grid, np.diag(skewed), hermitian=True)


def test_rejects_wrong_shape():
    grid = LatticeGrid(0.0, 0.5, 8)
    for shape in ((7,), (8, 7), (8, 8, 1)):
        with pytest.raises(ValueError, match="shape"):
            KernelOperator(grid, np.zeros(shape))


TOP_N = 4096
TOP_GRID = {"x_min": -20.0, "dx": 40.0 / TOP_N, "n_points": TOP_N}
TOP_SCENARIOS = {
    "symmetrization": {
        "scenario_kind": "symmetrization",
        "grid": TOP_GRID,
        "packets": [{"center": 0.0, "width": 1.0}, {"center": 10.0, "width": 1.0}],
    },
    "dlocal": {
        "scenario_kind": "dlocal",
        "grid": TOP_GRID,
        "packets": [{"center": 0.0, "width": 1.0}, {"center": 15.0, "width": 1.0}],
        "domain": {"lower": -5.0, "upper": 5.0},
    },
}


@pytest.mark.parametrize("kind", sorted(TOP_SCENARIOS))
def test_top_rung_run_allocates_no_dense_kernel(kind):
    config = validate_scenario_data(TOP_SCENARIOS[kind])
    assert position_kernel(LatticeGrid(**config.document["grid"])).entries.ndim == 1
    tracemalloc.start()
    try:
        report = run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed, [v for v in report.verdicts if not v.passed]
    # a sixty-fourth of one dense complex n x n kernel
    assert peak < TOP_N * TOP_N * 16 / 64, f"peak {peak} bytes"
