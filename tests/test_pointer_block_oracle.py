"""Pointer blocks, gemenge matrix, spectra and witnesses against dense oracles.

The dense reference builds ``P_k = 1 (x) |pi_k><pi_k|`` on the full product
space and takes the Frobenius norm of ``sum_{k != l} P_k rho P_l``.  The
gemenge state is checked against the Kronecker sum of its branch
projectors, the entropy against a fresh ``eigvalsh`` of the dense matrix,
and the witness expectations against ``tr(rho W)``.  A pure state with one
sector near probability 1 and the rest near 1e-20 checks that the pure-state
coherence keeps its small terms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import (
    StateVector,
    apply_rule2,
    outer,
    pointer_block_coherence,
    premeasure,
    shift_witness,
    von_neumann_entropy,
)
from helpers import (
    canonical_spec,
    close,
    dense,
    dense_coherence,
    dense_entropy,
    gemenge_density_matrix,
    kronecker_entries,
    random_bcl_spec,
    random_state,
)


def dense_gemenge(gemenge):
    matrix = 0
    for p, s, a in zip(gemenge.probabilities, gemenge.system_states.T, gemenge.pointer_states.T):
        matrix = matrix + p * np.kron(np.outer(s, s.conj()), np.outer(a, a.conj()))
    return matrix


@settings(max_examples=60)
@given(
    degeneracies=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    extra_apparatus=st.integers(0, 2),  # > 0 leaves K < d_pointer
    state=st.sampled_from(["random_pure", "premeasured", "gemenge"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pointer_blocks_match_dense_projectors(degeneracies, extra_apparatus, state, seed):
    rng = np.random.default_rng(seed)
    spec = random_bcl_spec(
        rng, degeneracies, apparatus_dim=len(degeneracies) + extra_apparatus
    )
    dims = (spec.system_dim, spec.apparatus_dim)
    if state == "random_pure":
        psi = random_state(rng, dims[0] * dims[1])
        rho, read = outer(psi), psi.amplitudes.reshape(dims)
    else:
        result = premeasure(spec, random_state(rng, spec.system_dim))
        gemenge = apply_rule2(result)
        rho_unitary = outer(result.final_state)
        rho_rule2 = gemenge_density_matrix(gemenge, dims)
        if state == "premeasured":
            rho, read = rho_unitary, result.amplitudes
        else:
            rho, read = rho_rule2, gemenge
        assert np.max(np.abs(dense(rho_rule2) - dense_gemenge(gemenge))) <= 1e-12
        # complex and not symmetric on random bases, so W and W^T differ
        witness = shift_witness(spec)
        rule2 = witness.product_expectation(
            gemenge.probabilities, gemenge.system_states, gemenge.pointer_states
        )
        for expectation, reference_state in (
            (witness.expectation(result.amplitudes), rho_unitary),
            (rule2, rho_rule2),
        ):
            trace = np.trace(dense(reference_state) @ kronecker_entries(witness)).real
            assert close(expectation, trace)

    assert close(von_neumann_entropy(rho), dense_entropy(dense(rho)))
    value = pointer_block_coherence(read, spec)
    reference = dense_coherence(dense(rho), spec.pointers, spec.system_dim)

    assert close(value, reference)
    if state == "gemenge":
        # objectification leaves no pointer-off-diagonal block, even in a
        # rotated pointer basis
        assert value <= 1e-12



@pytest.mark.parametrize("sectors", [2, 8])
@pytest.mark.parametrize("pointers", ["canonical", "haar"])
def test_pure_state_coherence_keeps_sectors_near_probability_1e_20(pointers, sectors):
    # sector 0 holds amplitude 1 and the others 1e-10, so n_0 = 1 and n_l = 1e-20:
    # the coherence is sqrt(2 n_0 sum_l n_l), and a (sum n)^2 - sum n^2 form
    # cancels it to 0 or to about 1e-8
    rng = np.random.default_rng(sectors)
    if pointers == "canonical":
        spec = canonical_spec(range(sectors), [1] * sectors)
        basis = np.eye(sectors)
    else:
        spec = random_bcl_spec(rng, [1] * sectors, transfer="identity")
        basis = spec.eigenvectors
    phases = np.exp(2j * np.pi * rng.uniform(size=sectors - 1))
    result = premeasure(spec, StateVector(basis @ np.concatenate(([1.0], 1e-10 * phases))))
    value = pointer_block_coherence(result.amplitudes, spec)
    reference = dense_coherence(dense(outer(result.final_state)), spec.pointers, sectors)
    assert abs(value / (1e-10 * np.sqrt(2 * (sectors - 1))) - 1.0) <= 1e-6
    if pointers == "canonical":
        assert abs(value - reference) <= 1e-12 * reference, (value, reference)
    else:
        # a rotated pointer basis leaves roundoff of about 1e-16 of the one
        # large column in each small one, in the run's amplitudes and in the
        # dense oracle alike, so they agree to that, not relative to 1e-10
        assert abs(value - reference) <= 1e-14, (value, reference)
