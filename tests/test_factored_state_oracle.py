"""Factored states and Kronecker witnesses against dense formulas on ``helpers.dense``.

A ``DensityMatrix`` holds weighted columns and a witness its Kronecker
factors.  Every quantity read from those factors (trace, padded spectrum,
both partial traces, pointer coherence, witness expectation, entropy, trace
distance) is compared with the textbook formula on the materialized
``dim x dim`` matrix.  The top rung runs a canonical ``full_measurement`` at
the dimension cap and pins that the run path allocates no ``dim x dim``
array, and a tall shape that the premeasurement diagnostics allocate no
``d_system x d_system`` array, that a canonical run forms none at all
and that a witness holds no square core, and the wide
observable run (``ds = K = 1``, ``da = 4096``) no apparatus identity.  The
marginals of a run are mixtures, so a run never diagonalizes a dense matrix
with ``eigh``; the spectrum of a mixture wider than its dimension comes from
its ``dim x dim`` matrix rather than its Gram matrix, and a trace distance of
thin mixtures from their joint column span.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import (
    DensityMatrix,
    StateVector,
    apply_rule2,
    observable_witness,
    outer,
    partial_trace,
    pointer_block_coherence,
    premeasure,
    run_scenario,
    shift_witness,
    trace_distance,
    von_neumann_entropy,
)
from pointerlab.runner import _bcl_diagnostics
from pointerlab.scenario import TOLERANCE_DEFAULTS, validate_scenario_data
from pointerlab.tolerances import DENSE_DIM_CAP, ENTROPY_EIGENVALUE_FLOOR
from helpers import (
    close,
    dense,
    dense_coherence,
    eigenbasis,
    gemenge_density_matrix,
    haar_document,
    kronecker_entries,
    qr_unitary,
    random_bcl_spec,
    random_state,
    transfer_family,
)


def random_mixture(rng, dim, rank, first=None):
    """``rank`` random, generally non-orthogonal columns with unit total trace.

    ``first``, if given, is taken as the first column.
    """
    columns = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    if first is not None:
        columns[:, 0] = first
    probabilities = rng.dirichlet(np.ones(rank))
    return DensityMatrix(
        columns=columns, weights=probabilities / np.sum(np.abs(columns) ** 2, axis=0)
    )


def dense_partial_trace(matrix, d_system, d_pointer, keep):
    blocks = matrix.reshape(d_system, d_pointer, d_system, d_pointer)
    return np.einsum("ijkj->ik", blocks) if keep == 0 else np.einsum("ijil->jl", blocks)


def dense_entropy(matrix):
    eigenvalues = np.linalg.eigvalsh(matrix)
    kept = eigenvalues[eigenvalues > ENTROPY_EIGENVALUE_FLOOR]
    return float(max(0.0, -np.sum(kept * np.log(kept))))


@settings(max_examples=60)
@given(
    degeneracies=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    extra_apparatus=st.integers(0, 2),  # > 0 leaves K < d_pointer
    transfer=st.sampled_from(["identity", "sector_unitary"]),
    state=st.sampled_from(["premeasured", "gemenge", "mixture", "overfull_mixture"]),
    sigma_excess=st.integers(-2, 2),  # r_rho + r_sigma - dim, where r_sigma >= 1 allows
    repeat=st.booleans(),  # sigma's first column repeats rho's
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_quantities_match_dense_formulas(
    degeneracies, extra_apparatus, transfer, state, sigma_excess, repeat, seed
):
    rng = np.random.default_rng(seed)
    spec = random_bcl_spec(
        rng, degeneracies, apparatus_dim=len(degeneracies) + extra_apparatus, transfer=transfer
    )
    d_system, d_pointer = spec.system_dim, spec.apparatus_dim
    dims, dim = (d_system, d_pointer), d_system * d_pointer
    if state in ("premeasured", "gemenge"):
        result = premeasure(spec, random_state(rng, d_system))
        rho = (
            outer(result.final_state)
            if state == "premeasured"
            else gemenge_density_matrix(apply_rule2(result), dims)
        )
    else:
        # an overfull mixture has more columns than dimensions
        rank = dim + 2 if state == "overfull_mixture" else int(rng.integers(1, 5))
        rho = random_mixture(rng, dim, rank)
    matrix = dense(rho)

    assert close(np.sum(rho.eigenvalues()), np.trace(matrix).real)
    assert close(rho.eigenvalues(), np.linalg.eigvalsh(matrix))
    for keep in (0, 1):
        reduced = dense(partial_trace(rho, dims, keep))
        assert close(reduced, dense_partial_trace(matrix, d_system, d_pointer, keep))
    assert close(
        pointer_block_coherence(rho, spec),
        dense_coherence(matrix, spec.pointers, d_system),
    )
    for witness in (shift_witness(spec), observable_witness(spec)):
        assert close(witness.expectation(rho), np.trace(matrix @ kronecker_entries(witness)).real)
    assert close(von_neumann_entropy(rho), dense_entropy(matrix))

    sigma = random_mixture(
        rng,
        dim,
        max(1, dim - rho.columns.shape[1] + sigma_excess),
        first=rho.columns[:, 0] if repeat else None,
    )
    reference = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(dense(rho) - dense(sigma))))
    assert close(trace_distance(rho, sigma), reference)


def test_top_rung_allocates_no_dense_product_matrix():
    # one sector per level, K = d_system = d_pointer = 64, D = 4096
    levels = int(np.sqrt(DENSE_DIM_CAP))
    rng = np.random.default_rng(4096)
    config = validate_scenario_data(
        {
            "scenario_kind": "full_measurement",
            "bcl": {"eigenvalues": list(range(levels)), "degeneracies": [1] * levels},
            "initial_state": rng.normal(size=(levels, 2)).tolist(),
        }
    )
    tracemalloc.start()
    try:
        report = run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed, [v.name for v in report.verdicts if not v.passed]
    # one D x D complex array alone is 256 MiB; the README promises under 10 MiB
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_tall_diagnostics_allocate_no_system_square_array():
    # ds = 1024, da = K = 2: one ds x ds complex array is 16 MiB
    rng = np.random.default_rng(1024)
    spec = random_bcl_spec(rng, [512, 512])
    phi = random_state(rng, spec.system_dim)
    tracemalloc.start()
    try:
        _, verdicts, _, _ = _bcl_diagnostics(spec, phi, TOLERANCE_DEFAULTS["bcl"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v.passed for v in verdicts), [v.name for v in verdicts if not v.passed]
    assert peak < spec.system_dim**2 * 16, f"peak {peak / 2**20:.1f} MiB"


def test_tall_canonical_run_holds_no_gram_matrix_past_its_spec():
    # ds = 1024, da = K = 2 and ds = 4096, da = K = 1, the largest ds the cap
    # admits: a canonical eigenbasis and the default family are held as None,
    # so no ds x ds array (16 and 256 MiB here) is formed, and the run's
    # largest arrays are a few of ds * da entries
    for levels, sectors in ((1024, 2), (4096, 1)):
        rng = np.random.default_rng(levels)
        config = validate_scenario_data(
            {
                "scenario_kind": "full_measurement",
                "bcl": {
                    "eigenvalues": [float(k) for k in range(sectors)],
                    "degeneracies": [levels // sectors] * sectors,
                },
                "initial_state": rng.normal(size=(levels, 2)).tolist(),
            }
        )
        tracemalloc.start()
        try:
            report = run_scenario(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed, [v.name for v in report.verdicts if not v.passed]
        size = levels * sectors * 16  # one ds x da complex array
        assert peak < 32 * size, f"ds = {levels}: peak {peak / size:.1f} x ds * da * 16 bytes"


def traced_witness(spec, rng, builder):
    """Traced peak of building a witness and taking both of its expectations.

    The spec, its premeasurement, the unitary state and the gemenge are all
    built before tracing starts.  Also returns the two expectations.
    """
    result = premeasure(spec, random_state(rng, spec.system_dim))
    gemenge, rho = apply_rule2(result), result.final_density
    factors = (gemenge.probabilities, gemenge.system_states, gemenge.pointer_states)
    tracemalloc.start()
    try:
        witness = builder(spec)
        values = witness.expectation(rho), witness.product_expectation(*factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, values


def test_witnesses_allocate_no_square_core():
    # ds = 1024, da = K = 2: one ds x ds complex array is 16 MiB, and a dense
    # core, its complex copy and its Hermitian check took three of them
    rng = np.random.default_rng(1023)
    spec = random_bcl_spec(rng, [512, 512])
    for builder in (shift_witness, observable_witness):
        peak, _ = traced_witness(spec, rng, builder)
        assert peak < spec.system_dim**2 * 16 / 16, f"{builder.__name__}: {peak / 2**20:.2f} MiB"
    # ds = 2, da = 1024, K = 2: the observable witness's apparatus factor is its
    # core alone, so it holds no da x da identity basis (16 MiB here)
    spec = random_bcl_spec(rng, [1, 1], apparatus_dim=1024)
    peak, (unitary, rule2) = traced_witness(spec, rng, observable_witness)
    assert peak < spec.apparatus_dim**2 * 16 / 16, f"{peak / 2**20:.2f} MiB"
    assert abs(unitary - rule2) < 1e-10


def test_wide_observable_run_holds_no_apparatus_identity():
    # ds = K = 1, da = 4096, the widest shape the cap admits: a da x da complex
    # identity basis alone would be 256 MiB
    config = validate_scenario_data(
        {
            "scenario_kind": "full_measurement",
            "bcl": {"eigenvalues": [1.0], "degeneracies": [1], "apparatus_dim": DENSE_DIM_CAP},
            "initial_state": [1.0],
            "witness": "system_observable",
        }
    )
    tracemalloc.start()
    try:
        report = run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed, [v.name for v in report.verdicts if not v.passed]
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("witness", ["sigma_x_pattern", "system_observable"])
def test_haar_random_run_never_calls_eigh(monkeypatch, witness):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called on the full_measurement path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    report = run_scenario(validate_scenario_data(haar_document(witness)))
    assert report.all_passed, [v.name for v in report.verdicts if not v.passed]


def test_haar_random_run_builds_no_state_per_basis_vector(monkeypatch):
    # the families and the sector vectors stay column matrices: only the
    # initial, ready and final states are StateVectors
    document = haar_document("sigma_x_pattern")
    config = validate_scenario_data(document)
    calls = []
    validate = StateVector.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(StateVector, "__post_init__", counted)
    report = run_scenario(config)
    assert report.all_passed, [v.name for v in report.verdicts if not v.passed]
    assert len(calls) <= 3, len(calls)


@settings(max_examples=30)
@given(
    degeneracies=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    extra_apparatus=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_marginal_mixtures_match_dense_products(degeneracies, extra_apparatus, seed):
    rng = np.random.default_rng(seed)
    spec = random_bcl_spec(rng, degeneracies, apparatus_dim=len(degeneracies) + extra_apparatus)
    phi = random_state(rng, spec.system_dim)
    tolerances = TOLERANCE_DEFAULTS["bcl"]
    _, verdicts, result, pointer_mixture = _bcl_diagnostics(spec, phi, tolerances)
    assert all(v.passed for v in verdicts)
    # the extension residual matches the dense max_c ||U (e_c (x) ready) - t_c (x) pi_k(c)||
    ready = spec.ready_state.amplitudes
    domain = np.einsum("ic,a->cia", eigenbasis(spec), ready).reshape(spec.system_dim, -1)
    sector_pointers = np.repeat(spec.pointers, spec.degeneracies, axis=1)
    targets = np.einsum("ic,ac->cia", transfer_family(spec), sector_pointers)
    targets = targets.reshape(spec.system_dim, -1)
    reference = np.max(np.linalg.norm(domain @ qr_unitary(spec).T - targets, axis=1))
    extension = next(v.residual for v in verdicts if v.name == "extension_map")
    assert close(extension, reference), (extension, reference)

    amplitudes = result.final_state.amplitudes.reshape(spec.system_dim, spec.apparatus_dim)
    marginal = dense(result.apparatus_marginal)
    assert np.max(np.abs(marginal - amplitudes.T @ amplitudes.conj())) <= 1e-12
    pointers = spec.pointers
    expected = (pointers * result.probabilities) @ pointers.conj().T
    assert np.max(np.abs(dense(pointer_mixture) - expected)) <= 1e-12


def test_wide_mixture_spectrum_allocates_no_gram_matrix():
    # the system marginal of a rule-2 state at the cap: 4096 columns in 64 dims
    levels = int(np.sqrt(DENSE_DIM_CAP))
    rng = np.random.default_rng(64)
    spec = random_bcl_spec(rng, [1] * levels, transfer="identity")
    result = premeasure(spec, random_state(rng, levels))
    dims = (levels, levels)
    rho_rule2 = gemenge_density_matrix(apply_rule2(result), dims)
    tracemalloc.start()
    try:
        reduced = partial_trace(rho_rule2, dims, keep=0)
        spectrum = reduced.eigenvalues()
        entropy = von_neumann_entropy(reduced)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reduced.columns.shape == (levels, DENSE_DIM_CAP)
    # a 4096 x 4096 complex Gram matrix alone is 256 MiB
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    # the marginal is sum_k p_k |t_k><t_k| over the orthonormal transfer family
    transfer, probabilities = transfer_family(spec), result.probabilities
    expected = np.linalg.eigvalsh((transfer * probabilities) @ transfer.conj().T)
    assert np.max(np.abs(spectrum - expected)) <= 1e-12
    assert np.max(np.abs(spectrum - np.sort(probabilities))) <= 1e-12
    assert close(entropy, dense_entropy((transfer * probabilities) @ transfer.conj().T))


def test_trace_distance_of_thin_mixtures_allocates_no_dense_state():
    # two 2-column mixtures: one 2048 x 2048 complex matrix alone is 64 MiB
    rng = np.random.default_rng(2048)
    rho, sigma = (random_mixture(rng, 2048, 2) for _ in range(2))
    tracemalloc.start()
    try:
        distance = trace_distance(rho, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < distance <= 1.0
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
