"""A pure bipartite state is read only through its amplitude matrix, whose shape is its spec's.

A premeasured state on ``C^2 (x) C^3`` is the ``2 x 3`` matrix ``B`` of
``result.amplitudes``.  Its marginals are the columns of ``B`` and of
``B^T``, so a product state has a pure system marginal of dimension 2 and a
pure apparatus marginal of dimension 3, with no factor dims given apart
from the state.  The witnesses and ``pointer_block_coherence`` refuse a
``3 x 2`` matrix for a ``(2, 3)`` spec.  A transposed square matrix has the
right shape and cannot be told apart.
"""

import numpy as np
import pytest

from pointerlab import (
    DimensionMismatch,
    StateVector,
    observable_witness,
    pointer_block_coherence,
    premeasure,
    shift_witness,
)
from helpers import canonical_spec, dense, product_result


def test_product_state_marginals_are_pure_on_their_own_factors():
    rng = np.random.default_rng(0)
    a, b = (
        StateVector.normalized(rng.normal(size=n) + 1j * rng.normal(size=n)) for n in (2, 3)
    )
    result = product_result(a, b)
    assert result.amplitudes.shape == (2, 3)
    assert not result.amplitudes.flags.writeable
    assert np.max(np.abs(result.amplitudes - np.outer(a.amplitudes, b.amplitudes))) < 1e-15
    for marginal, dim in ((result.system_marginal, 2), (result.apparatus_marginal, 3)):
        assert marginal.dim == dim
        eigenvalues = np.linalg.eigvalsh(dense(marginal))
        assert np.max(np.abs(eigenvalues - np.eye(dim)[-1])) < 1e-12


def test_transposed_amplitude_matrix_is_refused():
    spec = canonical_spec([1.0, -1.0], [1, 1], apparatus_dim=3)
    result = premeasure(spec, StateVector(np.array([1, 1j]) / np.sqrt(2)))
    transposed = result.amplitudes.T
    assert transposed.shape == (3, 2)
    for witness in (shift_witness(spec), observable_witness(spec)):
        assert witness.factor_dims == (2, 3)
        witness.expectation(result.amplitudes)
        with pytest.raises(DimensionMismatch):
            witness.expectation(transposed)
    pointer_block_coherence(result.amplitudes, spec)
    with pytest.raises(DimensionMismatch):
        pointer_block_coherence(transposed, spec)
