"""Orbital pair formulas against a dense ``n x n`` pair array.

The dense reference builds the amplitude ``nu * (psi phi^T + sign * phi psi^T)``
with ``np.outer``, normalizes it by its quadrature norm and contracts the
registration observable ``a (x) 1 + 1 (x) a`` index by index.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointerlab import (
    ExchangeSymmetry,
    KernelOperator,
    LatticeGrid,
    LatticeWavefunction,
    expectation_two_particle,
    symmetrize,
)


def packet(grid, center, width, momentum):
    x = grid.coordinates
    raw = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * momentum * x)
    return LatticeWavefunction(grid, raw / np.sqrt(grid.dx * np.sum(np.abs(raw) ** 2)))


def hermitian_kernel(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.n_points
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return KernelOperator(grid, (raw + raw.conj().T) / grid.dx, hermitian=True)


def dense_pair(psi, phi, sign):
    dx = psi.grid.dx
    raw = np.outer(psi.values, phi.values) + sign * np.outer(phi.values, psi.values)
    nu = 1.0 / np.sqrt(dx**2 * np.sum(np.abs(raw) ** 2))
    return nu, nu * raw


def dense_expectation(a, amplitude):
    # <Psi| a (x) 1 + 1 (x) a |Psi> = dx^3 sum conj(Psi_ij) (a_ik Psi_kj + a_jl Psi_il):
    # dx^2 for the pair quadrature, dx for the one kernel contraction
    conj = amplitude.conj()
    first = np.einsum("ij,ik,kj->", conj, a.kernel, amplitude)
    second = np.einsum("ij,jl,il->", conj, a.kernel, amplitude)
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
    overlap = abs(psi.inner(phi))
    if sym is ExchangeSymmetry.FERMION:
        # 1 - |<psi|phi>|^2 is the fermion norm bracket; near zero both the
        # orbital formula and the dense array cancel to roundoff
        assume(1.0 - overlap**2 > 1e-3)
    kernel = hermitian_kernel(grid, seed)

    pair = symmetrize(psi, phi, sym)
    nu, amplitude = dense_pair(psi, phi, sym.sign)
    reference = dense_expectation(kernel, amplitude)

    assert close(pair.nu, nu)
    assert close(expectation_two_particle(kernel, pair), reference)
