"""Kronecker-product witnesses held as congruences, against their dense matrices.

A ``KroneckerProduct`` holds each factor as a column matrix ``M`` and a real
symmetric tridiagonal core ``T = (d, e)`` on its columns, the operator
``M T M^dagger``.  Each example builds two: a random Hermitian ``H`` given as
``(M V, eigvalsh(H), 0)`` from ``eigh(H)``, checked against ``M H M^dagger``
itself, and a random real band ``(d, e)``, so the off-diagonal term is read.
Both of their expectations are compared with ``tr(rho W)`` on the
dense matrix ``helpers.dense(rho)`` to ``1e-12 * max(1, |ref|)``: ``expectation`` on
random mixtures of up to ``dim + 2`` columns, and ``product_expectation`` on
random product mixtures ``sum_j w_j |f_j><f_j| (x) |s_j><s_j|`` given by
their factors.  The bases are Haar columns, with fewer columns than
dimensions on either side (as for a pointer basis with ``K < d_pointer``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import DensityMatrix, KroneckerProduct
from helpers import close, dense, kronecker_entries, random_unitary


def random_hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return z + z.conj().T


def unit_columns(rng, dim, count):
    z = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    return z / np.linalg.norm(z, axis=0)


def spectral_factor(basis, hermitian):
    """``M H M^dagger`` as ``(M V, eigvalsh(H), 0)`` for ``H = V diag(eigvalsh(H)) V^dagger``."""
    values, vectors = np.linalg.eigh(hermitian)
    return basis @ vectors, values, np.zeros(len(values) - 1)


@settings(max_examples=80)
@given(
    d_system=st.integers(1, 4),
    d_pointer=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_congruence_expectations_match_dense_trace(d_system, d_pointer, data, seed):
    rng = np.random.default_rng(seed)
    # fewer columns than dimensions leaves part of each space outside the witness
    n_system = data.draw(st.integers(1, d_system))
    n_pointer = data.draw(st.integers(1, d_pointer))
    system = random_unitary(rng, d_system)[:, :n_system]
    pointers = random_unitary(rng, d_pointer)[:, :n_pointer]
    h_system, h_pointer = random_hermitian(rng, n_system), random_hermitian(rng, n_pointer)
    spectral = KroneckerProduct(
        system=spectral_factor(system, h_system), apparatus=spectral_factor(pointers, h_pointer)
    )
    banded = KroneckerProduct(
        system=(system, rng.normal(size=n_system), rng.normal(size=n_system - 1)),
        apparatus=(pointers, rng.normal(size=n_pointer), rng.normal(size=n_pointer - 1)),
    )
    congruences = np.kron(
        system @ h_system @ system.conj().T, pointers @ h_pointer @ pointers.conj().T
    )
    assert close(kronecker_entries(spectral), congruences)
    dim = d_system * d_pointer
    rank = data.draw(st.integers(1, dim + 2))
    rho = DensityMatrix(columns=unit_columns(rng, dim, rank), weights=rng.dirichlet(np.ones(rank)))
    # a product mixture, read through its factors and through its columns f_j (x) s_j
    weights = rng.dirichlet(np.ones(rank))
    first, second = unit_columns(rng, d_system, rank), unit_columns(rng, d_pointer, rank)
    products = np.einsum("ij,kj->ikj", first, second).reshape(dim, rank)
    product_rho = DensityMatrix(columns=products, weights=weights)
    for witness, matrix in ((spectral, congruences), (banded, kronecker_entries(banded))):
        assert witness.factor_dims == (d_system, d_pointer)
        assert close(matrix, matrix.conj().T)
        assert close(witness.expectation(rho), np.trace(dense(rho) @ matrix).real)
        reference = np.trace(dense(product_rho) @ matrix).real
        assert close(witness.product_expectation(weights, first, second), reference)
        assert close(witness.expectation(product_rho), reference)
