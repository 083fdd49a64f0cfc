"""Pointer blocks, gemenge matrix, spectra and witnesses against dense oracles.

The dense reference builds ``P_k = 1 (x) |pi_k><pi_k|`` on the full product
space and takes the Frobenius norm of ``sum_{k != l} P_k rho P_l``.  The
gemenge state is checked against the Kronecker sum of its branch
projectors, the Gram spectrum against a fresh ``eigvalsh`` of the dense
matrix, and the witness expectations against ``tr(rho W)``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import (
    apply_rule2,
    outer,
    pointer_block_coherence,
    premeasure,
    shift_witness,
)
from helpers import (
    close,
    dense,
    dense_coherence,
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
        rho = outer(random_state(rng, dims[0] * dims[1]))
    else:
        result = premeasure(spec, random_state(rng, spec.system_dim))
        gemenge = apply_rule2(result)
        rho_unitary = outer(result.final_state)
        rho_rule2 = gemenge_density_matrix(gemenge, dims)
        rho = rho_unitary if state == "premeasured" else rho_rule2
        assert np.max(np.abs(dense(rho_rule2) - dense_gemenge(gemenge))) <= 1e-12
        # complex and not symmetric on random bases, so W and W^T differ
        witness = shift_witness(spec)
        rule2 = witness.product_expectation(
            gemenge.probabilities, gemenge.system_states, gemenge.pointer_states
        )
        for expectation, reference_state in (
            (witness.expectation(result.final_density), rho_unitary),
            (rule2, rho_rule2),
        ):
            trace = np.trace(dense(reference_state) @ kronecker_entries(witness)).real
            assert close(expectation, trace)

    assert close(rho.eigenvalues(), np.linalg.eigvalsh(dense(rho)))
    value = pointer_block_coherence(rho, spec)
    reference = dense_coherence(dense(rho), spec.pointers, spec.system_dim)

    assert close(value, reference)
    if state == "gemenge":
        # objectification leaves no pointer-off-diagonal block, even in a
        # rotated pointer basis
        assert value <= 1e-12

