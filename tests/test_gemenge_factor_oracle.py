"""The rule-2 gemenge read through its factors, against its dense branch columns.

A ``GemengeDecomposition`` holds the weights ``p``, the system columns
``Phi`` and the pointer columns ``Psi``, and a run's compare stage reads
every rule-2 quantity from them through the witness, entropy, marginal and
``pointer_block_coherence`` functions.  The oracle is the same state built
as ``r`` branch columns ``Phi_k (x) psi_k`` of length ``D``
(``helpers.gemenge_density_matrix``) and materialized as a ``D x D``
matrix, which the numpy references of ``helpers`` read.  Each factor
identity must agree with it to ``1e-12 * max(1, |ref|)``: the spectrum, the
entropy, the pointer-block coherence, the witness expectations, both
marginals and both trace distances to the premeasured state's marginals.
The coherence is also checked on a gemenge whose pointer states are
rotated off the spec's, where it is not zero, and with one sector per chunk
of its Gram stack.  The last test pins that the objectify and compare
stages of a run allocate less than one ``D x r`` branch matrix.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import (
    GemengeDecomposition,
    StateVector,
    apply_rule2,
    observable_witness,
    outer,
    pointer_block_coherence,
    premeasure,
    run_scenario,
    shift_witness,
    trace_distance,
)
from pointerlab import objectification, runner
from pointerlab.hilbert import spectral_entropy
from pointerlab.scenario import validate_scenario_data
from pointerlab.tolerances import PROBABILITY_FLOOR
from helpers import (
    close,
    dense,
    dense_coherence,
    dense_entropy,
    dense_partial_trace,
    dense_trace_distance,
    gemenge_density_matrix,
    kronecker_entries,
    random_bcl_spec,
    random_unitary,
)


@settings(max_examples=60)
@given(
    degeneracies=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    extra_apparatus=st.integers(0, 2),  # > 0 leaves K < d_pointer
    transfer=st.sampled_from(["identity", "sector_unitary"]),
    floored=st.integers(0, 4),  # sectors pushed below the probability floor
    faint=st.sampled_from([0.0, 1e-8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_identities_match_branch_columns(
    degeneracies, extra_apparatus, transfer, floored, faint, seed
):
    rng = np.random.default_rng(seed)
    sectors = len(degeneracies)
    spec = random_bcl_spec(
        rng, degeneracies, apparatus_dim=sectors + extra_apparatus, transfer=transfer
    )
    d_system, d_pointer = spec.system_dim, spec.apparatus_dim
    coefficients = rng.normal(size=d_system) + 1j * rng.normal(size=d_system)
    below = rng.choice(sectors, size=min(floored, sectors - 1), replace=False)
    coefficients[np.isin(np.repeat(np.arange(sectors), degeneracies), below)] *= faint
    result = premeasure(spec, StateVector.normalized(spec.eigenvectors @ coefficients))
    gemenge = apply_rule2(result)
    assert gemenge.probabilities.size == np.sum(result.probabilities >= PROBABILITY_FLOOR)
    assert gemenge.probabilities.size <= sectors - below.size

    dims = (d_system, d_pointer)
    oracle = gemenge_density_matrix(gemenge, dims)
    matrix = dense(oracle)
    rank = gemenge.probabilities.size
    assert close(np.sort(gemenge.spectrum()), np.linalg.eigvalsh(matrix)[-rank:])

    coherence = pointer_block_coherence(gemenge, spec)
    assert close(coherence, dense_coherence(matrix, spec.pointers, d_system))
    assert coherence <= 1e-12
    # pointer states off the spec's pointers carry coherence; with one sector
    # per chunk every pair of sectors meets through the running sum
    rotated = GemengeDecomposition(
        gemenge.probabilities, gemenge.system_states, random_unitary(rng, d_pointer)[:, :rank]
    )
    for state in (gemenge, rotated):
        reference = dense_coherence(
            dense(gemenge_density_matrix(state, dims)), spec.pointers, d_system
        )
        assert close(pointer_block_coherence(state, spec), reference)
        with mock.patch.object(objectification, "GRAM_STACK_ENTRIES", 1):
            assert close(pointer_block_coherence(state, spec), reference)

    for keep, marginal in ((0, gemenge.system_marginal), (1, gemenge.apparatus_marginal)):
        assert close(dense(marginal), dense_partial_trace(matrix, d_system, d_pointer, keep))

    rho_unitary = outer(result.final_state)
    for witness in (shift_witness(spec), observable_witness(spec)):
        rule2 = witness.product_expectation(
            gemenge.probabilities, gemenge.system_states, gemenge.pointer_states
        )
        assert close(rule2, np.trace(matrix @ kronecker_entries(witness)).real)
    assert close(spectral_entropy(gemenge.spectrum()), dense_entropy(matrix))
    unitary = dense(rho_unitary)
    for keep, distance in (
        (0, trace_distance(result.system_marginal, gemenge.system_marginal)),
        (1, trace_distance(result.apparatus_marginal, gemenge.apparatus_marginal)),
    ):
        reference = dense_trace_distance(
            dense_partial_trace(unitary, d_system, d_pointer, keep),
            dense_partial_trace(matrix, d_system, d_pointer, keep),
        )
        assert close(distance, reference)


def test_objectify_and_compare_allocate_less_than_one_branch_matrix(monkeypatch):
    # ds = da = K = 64, so D = 4096 and every one of the r = 64 sectors is kept
    levels = 64
    rng = np.random.default_rng(64)
    config = validate_scenario_data(
        {
            "scenario_kind": "full_measurement",
            "bcl": {"eigenvalues": list(range(levels)), "degeneracies": [1] * levels},
            "initial_state": rng.normal(size=(levels, 2)).tolist(),
        }
    )
    diagnostics = runner._bcl_diagnostics

    def trace_after_premeasure(*args):
        outcome = diagnostics(*args)
        tracemalloc.start()
        return outcome

    monkeypatch.setattr(runner, "_bcl_diagnostics", trace_after_premeasure)
    try:
        report = run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed, [v.name for v in report.verdicts if not v.passed]
    branch_matrix = levels**2 * levels * np.dtype(complex).itemsize  # D x r
    assert peak < branch_matrix, f"peak {peak / 2**20:.2f} MiB"
