"""Kronecker-product witnesses held as congruences, against their dense matrices.

A ``KroneckerProduct`` holds each factor as a column matrix ``M`` and a real
symmetric tridiagonal core ``T = (d, e)`` on its columns, the operator
``M T M^dagger``.  Each example builds two: a random Hermitian ``H`` given as
``(M V, eigvalsh(H), 0)`` from ``eigh(H)``, checked against ``M H M^dagger``
itself, and a random real band ``(d, e)``, so the off-diagonal term is read.
Both of their expectations are compared with ``tr(rho W)`` on the dense
matrix ``helpers.dense(rho)`` to ``1e-12 * max(1, |ref|)``: ``expectation``,
which reads one pure state's amplitude matrix ``B``, summed over random
mixtures of up to ``dim + 2`` columns, and ``product_expectation`` on
random product mixtures ``sum_j w_j |f_j><f_j| (x) |s_j><s_j|`` given by
their factors.  The bases are Haar columns, with fewer columns than
dimensions on either side (as for a pointer basis with ``K < d_pointer``).
A factor may omit its basis, meaning the identity on its core's length, as
the observable witness's apparatus factor does; ``kronecker_entries`` then
forms that identity itself, and an amplitude matrix or factors of another
shape are refused.  The public cores stay real, and every apply reads the
complex copies cast at construction, with unchanged value bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import DensityMatrix, DimensionMismatch, KroneckerProduct, hilbert
from helpers import close, dense, kronecker_entries, random_unitary


def random_hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return z + z.conj().T


def unit_columns(rng, dim, count):
    z = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    return z / np.linalg.norm(z, axis=0)


def mixture_expectation(witness, weights, columns):
    """``sum_j w_j <v_j|W|v_j>``, each term read on the amplitude matrix of column ``v_j``."""
    dims = witness.factor_dims
    return sum(w * witness.expectation(v.reshape(dims)) for w, v in zip(weights, columns.T))


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
        value = mixture_expectation(witness, rho.weights, rho.columns)
        assert close(value, np.trace(dense(rho) @ matrix).real)
        reference = np.trace(dense(product_rho) @ matrix).real
        assert close(witness.product_expectation(weights, first, second), reference)
        assert close(mixture_expectation(witness, weights, products), reference)


def identity_factor(rng, n):
    """A factor with no basis: a random real band on ``n`` entries, ``M`` the identity."""
    return None, rng.normal(size=n), rng.normal(size=n - 1)


@settings(max_examples=60)
@given(
    d_system=st.integers(1, 4),
    d_pointer=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_identity_factors_match_dense_trace(d_system, d_pointer, data, seed):
    # a factor without a basis reads as its core on the identity, on either side or both
    rng = np.random.default_rng(seed)
    n_system = data.draw(st.integers(1, d_system))
    system = random_unitary(rng, d_system)[:, :n_system]
    banded = (system, rng.normal(size=n_system), rng.normal(size=n_system - 1))
    dim, rank = d_system * d_pointer, data.draw(st.integers(1, d_system * d_pointer + 2))
    rho = DensityMatrix(columns=unit_columns(rng, dim, rank), weights=rng.dirichlet(np.ones(rank)))
    weights = rng.dirichlet(np.ones(rank))
    first, second = unit_columns(rng, d_system, rank), unit_columns(rng, d_pointer, rank)
    products = np.einsum("ij,kj->ikj", first, second).reshape(dim, rank)
    product_rho = DensityMatrix(columns=products, weights=weights)
    for witness in (
        KroneckerProduct(banded, identity_factor(rng, d_pointer)),
        KroneckerProduct(identity_factor(rng, d_system), identity_factor(rng, d_pointer)),
    ):
        matrix = kronecker_entries(witness)  # forms the identity basis itself
        assert witness.factor_dims == (d_system, d_pointer)
        assert witness.apparatus[0] is None
        value = mixture_expectation(witness, rho.weights, rho.columns)
        assert close(value, np.trace(dense(rho) @ matrix).real)
        reference = np.trace(dense(product_rho) @ matrix).real
        assert close(witness.product_expectation(weights, first, second), reference)
        assert close(mixture_expectation(witness, weights, products), reference)


def test_identity_factor_refuses_mismatched_states_and_factors():
    rng = np.random.default_rng(7)
    witness = KroneckerProduct(
        (random_unitary(rng, 2), np.ones(2), np.zeros(1)), (None, np.ones(3), np.ones(2))
    )
    assert witness.factor_dims == (2, 3)
    for shape in ((3, 2), (6,), (1, 6), (6, 0), (2, 3, 1), (2, 2)):  # only (2, 3) is B's shape
        with pytest.raises(DimensionMismatch):
            witness.expectation(np.full(shape, 0.5 + 0.5j))
    two, three = unit_columns(rng, 2, 2), unit_columns(rng, 3, 2)
    for weights, first, second in (
        ([0.5, 0.5], two, unit_columns(rng, 2, 2)),  # apparatus rows differ from r
        ([0.5, 0.5], two, unit_columns(rng, 4, 2)),
        ([0.5, 0.5], three, three),  # system rows differ
        ([0.5, 0.5], two, three[:, :1]),  # columns differ
        ([1.0], two, three),  # weights differ from the columns
    ):
        with pytest.raises(DimensionMismatch):
            witness.product_expectation(weights, first, second)
    # without a basis, the core's own length r is checked against its off-diagonal
    flip = (None, np.zeros(2), np.ones(1))
    for diagonal, off in (
        (np.ones(3), np.ones(3)),
        (np.ones(0), np.ones(0)),
        (np.ones((2, 2)), np.ones(1)),
        (1.0, np.ones(0)),
    ):
        with pytest.raises(ValueError, match="r diagonal and r - 1 off-diagonal"):
            KroneckerProduct(flip, (None, diagonal, off))
    with pytest.raises(ValueError, match="must be real"):
        KroneckerProduct(flip, (None, np.array([1.0, 1j]), np.zeros(1)))
    with pytest.raises(ValueError, match="finite"):
        KroneckerProduct(flip, (None, np.ones(2), [np.inf]))


def test_cores_stay_real_and_are_cast_once(monkeypatch):
    # the public cores are real and read-only; every apply gets the complex copies made at
    # construction, and a value keeps the bytes of the float-core product it replaced
    rng = np.random.default_rng(11)
    witness = KroneckerProduct(
        (random_unitary(rng, 3)[:, :2], rng.normal(size=2), rng.normal(size=1)),
        (None, rng.normal(size=3), rng.normal(size=2)),
    )
    for _, diagonal, off in (witness.system, witness.apparatus):
        assert diagonal.dtype == off.dtype == float
        assert not (diagonal.flags.writeable or off.flags.writeable)
    amplitudes = unit_columns(rng, 9, 1).reshape(3, 3)
    weights, first, second = [0.5, 0.5], unit_columns(rng, 3, 2), unit_columns(rng, 3, 2)
    values = witness.expectation(amplitudes), witness.product_expectation(weights, first, second)

    def float_core_apply(diagonal, off, x):  # the apply with the cast left to each product
        assert diagonal.dtype == off.dtype == complex
        diagonal, off = diagonal.real.copy(), off.real.copy()
        out = x * diagonal
        out[..., :-1] += off * x[..., 1:]
        out[..., 1:] += off * x[..., :-1]
        return out

    monkeypatch.setattr(hilbert, "_tridiagonal_apply", float_core_apply)
    assert values == (
        witness.expectation(amplitudes),
        witness.product_expectation(weights, first, second),
    )
