"""Diagonal kernels against numpy references on ``np.diag``.

A multiplication operator stored as its ``(n,)`` diagonal must give the same
expectations as the dense ``(n, n)`` kernel ``np.diag(d)``, the same
localization as ``np.diag(d)`` masked by the outer product of the domain,
and the residual read off that matrix: the largest of its ``dx``-weighted
absolute row and column sums outside the domain.
"""

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
    TwoParticleWavefunction,
    dlocal_residual,
    localize,
)
from pointerlab.tolerances import INVARIANT_TOL
from helpers import DenseKernel, close, expectation_single, pair_expectation, quadrature_inner


def random_wavefunction(grid, rng):
    raw = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    return LatticeWavefunction(grid, raw / np.sqrt(grid.dx * np.sum(np.abs(raw) ** 2)))


def dense_residual(matrix, mask, dx):
    """``dx`` times the largest absolute row or column sum of ``matrix`` outside ``mask``."""
    magnitude = np.abs(matrix)
    sums = np.maximum(magnitude.sum(axis=0), magnitude.sum(axis=1))
    return float(dx * sums[~mask].max(initial=0.0))


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
    diagonal = KernelOperator(grid, d)
    dense = DenseKernel(grid, np.diag(d))
    assert diagonal.entries.shape == (n,)

    psi = random_wavefunction(grid, rng)
    phi = random_wavefunction(grid, rng)
    # near-parallel fermion orbitals cancel to roundoff in both forms
    assume(1.0 - abs(quadrature_inner(psi, phi)) ** 2 > 1e-3)
    assert close(expectation_single(diagonal, psi), expectation_single(dense, psi))
    for sym in (ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION):
        pair = TwoParticleWavefunction(psi, phi, sym)
        assert close(pair_expectation(diagonal, pair), pair_expectation(dense, pair))

    for _ in range(3):
        domain = Domain(grid, rng.random(n) < rng.random())
        mask = domain.points
        dense_local = np.where(np.outer(mask, mask), np.diag(d), 0)
        local = localize(diagonal, domain)
        assert local.entries.ndim == 1
        assert np.array_equal(np.diag(local.entries), dense_local)
        assert dlocal_residual(diagonal, domain) == dense_residual(np.diag(d), mask, dx)
        assert dlocal_residual(local, domain) == dense_residual(dense_local, mask, dx)

    skewed = d.astype(complex)
    skewed[rng.integers(n)] += 2j * INVARIANT_TOL
    with pytest.raises(ValueError, match="hermitian"):
        KernelOperator(grid, skewed)


def test_rejects_wrong_shape():
    grid = LatticeGrid(0.0, 0.5, 8)
    for shape in ((7,), (8, 7), (8, 8, 1), (8, 8)):
        with pytest.raises(ValueError, match="shape"):
            KernelOperator(grid, np.zeros(shape))
