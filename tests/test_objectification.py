import numpy as np
import pytest

from pointerlab import (
    DimensionMismatch,
    GemengeDecomposition,
    KroneckerProduct,
    StateVector,
    apply_rule2,
    observable_witness,
    outer,
    pointer_block_coherence,
    premeasure,
    shift_witness,
    trace_distance,
    von_neumann_entropy,
)
from pointerlab.hilbert import spectral_entropy
from helpers import (
    canonical_spec,
    dense,
    dense_partial_trace,
    eigenbasis,
    from_dense,
    gemenge_density_matrix,
    kronecker_entries,
    random_bcl_spec,
    random_state,
)

LN2 = 0.6931471805599453
INV_SQRT2 = 1.0 / np.sqrt(2.0)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def qubit_spec():
    return canonical_spec([1.0, -1.0], [1, 1])


def bell_case():
    spec = qubit_spec()
    result = premeasure(spec, StateVector(np.array([1, 1]) / np.sqrt(2)))
    return spec, result, apply_rule2(result)


def rule2_expectation(witness, gemenge):
    return witness.product_expectation(
        gemenge.probabilities, gemenge.system_states, gemenge.pointer_states
    )


class TestApplyRule2:
    def test_eigenstate_single_component(self):
        spec = qubit_spec()
        result = premeasure(spec, StateVector(eigenbasis(spec)[:, 0]))
        gemenge = apply_rule2(result)
        assert gemenge.probabilities.shape == (1,)
        assert gemenge.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        # with nothing to erase, the objectified state is the unitary projector
        dims = (2, 2)
        rho = gemenge_density_matrix(gemenge, dims)
        assert np.max(np.abs(dense(rho) - dense(outer(result.final_state)))) < 1e-12

    def test_bell_two_components(self):
        spec, result, gemenge = bell_case()
        assert np.allclose(gemenge.probabilities, [0.5, 0.5], atol=1e-12)
        assert np.array_equal(gemenge.pointer_states, spec.pointers)

    def test_probabilities_pass_through_bitwise(self):
        rng = np.random.default_rng(41)
        spec = random_bcl_spec(rng, (1, 1, 1))
        result = premeasure(spec, random_state(rng, spec.system_dim))
        gemenge = apply_rule2(result)
        assert np.array_equal(gemenge.probabilities, result.probabilities)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError, match="sum off"):
            GemengeDecomposition([0.4, 0.4], np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="one pointer column per component"):
            GemengeDecomposition([0.5, 0.5], np.eye(2), np.eye(2, 1))
        from pointerlab import BasisNotOrthonormal

        with pytest.raises(BasisNotOrthonormal, match="system states"):
            GemengeDecomposition([0.5, 0.5], np.eye(2)[:, [0, 0]], np.eye(2))
        # a column of norm 2 fails the same Gram check
        with pytest.raises(BasisNotOrthonormal, match="pointer states"):
            GemengeDecomposition([0.5, 0.5], np.eye(2), np.diag([1.0, 2.0]))


class TestGemengeDensityMatrix:
    def test_single_component_is_product_projector(self):
        u, v = StateVector([0, 1]), StateVector([1, 0])
        gemenge = GemengeDecomposition([1.0], u.amplitudes[:, None], v.amplitudes[:, None])
        rho = gemenge_density_matrix(gemenge, (2, 2))
        product = StateVector(np.kron(u.amplitudes, v.amplitudes))
        assert np.array_equal(dense(rho), dense(outer(product)))

    def test_bell_mixture_rank_and_entropy(self):
        _, _, gemenge = bell_case()
        rho = gemenge_density_matrix(gemenge, (2, 2))
        eigenvalues = np.linalg.eigvalsh(dense(rho))
        assert np.allclose(eigenvalues, [0, 0, 0.5, 0.5], atol=1e-12)
        assert abs(von_neumann_entropy(rho) - LN2) < 1e-8

    def test_trace_one_for_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            spec = random_bcl_spec(rng, (2, 1))
            result = premeasure(spec, random_state(rng, spec.system_dim))
            gemenge = apply_rule2(result)
            rho = gemenge_density_matrix(
                gemenge, (spec.system_dim, spec.apparatus_dim)
            )
            assert abs(np.trace(dense(rho)) - 1.0) < 1e-12


class TestPointerBlockCoherence:
    def test_gemenge_output_is_block_diagonal(self):
        spec, _, gemenge = bell_case()
        assert pointer_block_coherence(gemenge, spec) == 0.0

    def test_bell_projector_coherence(self):
        spec, result, _ = bell_case()
        value = pointer_block_coherence(result.amplitudes, spec)
        assert abs(value - INV_SQRT2) < 1e-10

    def test_product_state_single_block(self):
        spec = qubit_spec()
        rng = np.random.default_rng(43)
        amplitudes = np.outer(random_state(rng, 2).amplitudes, spec.pointers[:, 0])
        assert pointer_block_coherence(amplitudes, spec) == 0.0

    def test_rejects_state_off_the_spec_space(self):
        rng = np.random.default_rng(48)
        with pytest.raises(DimensionMismatch):
            pointer_block_coherence(random_state(rng, 6).amplitudes.reshape(2, 3), qubit_spec())


class TestCompareStates:
    def test_bell_witness_erasure(self):
        spec, result, gemenge = bell_case()
        witness = shift_witness(spec)
        assert np.array_equal(kronecker_entries(witness), np.kron(SIGMA_X, SIGMA_X))
        amplitudes = result.amplitudes
        assert abs(witness.expectation(amplitudes) - 1.0) < 1e-10
        assert abs(rule2_expectation(witness, gemenge)) < 1e-10
        assert abs(pointer_block_coherence(amplitudes, spec) - INV_SQRT2) < 1e-10
        assert trace_distance(result.system_marginal, gemenge.system_marginal) < 1e-10
        assert trace_distance(result.apparatus_marginal, gemenge.apparatus_marginal) < 1e-10
        assert von_neumann_entropy(outer(result.final_state)) < 1e-9
        assert abs(spectral_entropy(gemenge.spectrum()) - LN2) < 1e-8

    def test_observable_witness_survives(self):
        spec, result, gemenge = bell_case()
        witness = observable_witness(spec)
        gap = witness.expectation(result.amplitudes) - rule2_expectation(witness, gemenge)
        assert abs(gap) < 1e-10

    def test_eigenstate_reports_zero_everything(self):
        spec = qubit_spec()
        result = premeasure(spec, StateVector(eigenbasis(spec)[:, 0]))
        gemenge = apply_rule2(result)
        assert pointer_block_coherence(result.amplitudes, spec) < 1e-10
        assert trace_distance(result.system_marginal, gemenge.system_marginal) < 1e-10
        assert trace_distance(result.apparatus_marginal, gemenge.apparatus_marginal) < 1e-10
        assert von_neumann_entropy(outer(result.final_state)) < 1e-9
        assert spectral_entropy(gemenge.spectrum()) < 1e-9

    def test_rejects_non_hermitian_witness(self):
        # a core is a real band, so a complex one is the only non-Hermitian form
        flip = (np.eye(2), np.zeros(2), np.ones(1))
        with pytest.raises(ValueError, match="must be real"):
            KroneckerProduct((np.eye(2), np.zeros(2), np.array([1j])), flip)
        with pytest.raises(ValueError, match="must be real"):
            KroneckerProduct(flip, (np.eye(2), np.array([1.0, 1j]), np.zeros(1)))
        for basis, diagonal, off in (
            (np.eye(2)[:, :1], np.zeros(2), np.ones(1)),  # a core on more columns than M has
            (np.eye(2), np.zeros(1), np.ones(1)),
            (np.eye(2), np.zeros(2), np.ones(2)),
            (np.eye(2), np.zeros(2), np.ones(0)),
            (np.eye(2), np.zeros((2, 2)), np.ones(1)),
            (np.ones(2), np.zeros(2), np.ones(1)),
        ):
            with pytest.raises(ValueError, match="r diagonal and r - 1 off-diagonal"):
                KroneckerProduct(flip, (basis, diagonal, off))

    def test_product_expectation_rejects_mismatched_factors(self):
        witness = shift_witness(qubit_spec())
        one, two = np.eye(2)[:, :1], np.eye(2)
        for weights, first, second in (
            ([0.5, 0.5], two, one),  # columns differ
            ([0.5, 0.5], np.eye(3, 2), two),  # system rows differ from the factor dims
            ([0.5, 0.5], two, np.eye(3, 2)),  # apparatus rows differ
            ([0.5, 0.5], np.ones(2), two),  # not a column matrix
            ([1.0], two, two),  # weights differ from the columns
            ([1.0, 0.0, 0.0], two, two),
        ):
            with pytest.raises(DimensionMismatch):
                witness.product_expectation(weights, first, second)
        assert witness.product_expectation([1.0], one, one) == 0.0


class TestInvariantProperties:
    def test_marginal_preservation_random_cases(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            spec = random_bcl_spec(rng, (2, 1, 1))
            result = premeasure(spec, random_state(rng, spec.system_dim))
            gemenge = apply_rule2(result)
            dims = (spec.system_dim, spec.apparatus_dim)
            rho_rule2 = dense(gemenge_density_matrix(gemenge, dims))
            marginals = (result.system_marginal, result.apparatus_marginal)
            for keep, marginal in enumerate(marginals):
                reference = from_dense(dense_partial_trace(rho_rule2, *dims, keep))
                assert trace_distance(marginal, reference) < 1e-10

    def test_apparatus_marginal_is_pointer_mixture(self):
        rng = np.random.default_rng(45)
        spec = random_bcl_spec(rng, (1, 2))
        result = premeasure(spec, random_state(rng, spec.system_dim))
        gemenge = apply_rule2(result)
        dims = (spec.system_dim, spec.apparatus_dim)
        rho_rule2 = gemenge_density_matrix(gemenge, dims)
        mixture = np.zeros((spec.apparatus_dim, spec.apparatus_dim), dtype=complex)
        for k, pointer in enumerate(spec.pointers.T):
            mixture += result.probabilities[k] * np.outer(pointer, pointer.conj())
        marginal = dense_partial_trace(dense(rho_rule2), *dims, keep=1)
        assert np.max(np.abs(marginal - mixture)) < 1e-12
        assert trace_distance(gemenge.apparatus_marginal, from_dense(mixture)) < 1e-12

    def test_pointer_diagonal_witness_agreement(self):
        rng = np.random.default_rng(46)
        spec = random_bcl_spec(rng, (1, 1, 1))
        result = premeasure(spec, random_state(rng, spec.system_dim))
        gemenge = apply_rule2(result)
        # each term S_k (x) |pi_k><pi_k|; the sum of terms follows by linearity.  S_k is
        # a random real symmetric matrix, given by its eigenpairs, or a random band
        ds = spec.system_dim
        projector = (np.ones(1), np.zeros(0))
        for pointer in spec.pointers.T:
            block = rng.normal(size=(ds, ds))
            values, vectors = np.linalg.eigh(block + block.T)
            band = (np.eye(ds), rng.normal(size=ds), rng.normal(size=ds - 1))
            for system in ((vectors, values, np.zeros(ds - 1)), band):
                term = KroneckerProduct(system, (pointer[:, None], *projector))
                gap = term.expectation(result.amplitudes) - rule2_expectation(term, gemenge)
                assert abs(gap) < 1e-10

    def test_entropy_gap(self):
        rng = np.random.default_rng(47)
        spec = random_bcl_spec(rng, (2, 2))
        result = premeasure(spec, random_state(rng, spec.system_dim))
        gemenge = apply_rule2(result)
        p = result.probabilities[result.probabilities > 1e-15]
        assert von_neumann_entropy(outer(result.final_state)) < 1e-9
        assert abs(spectral_entropy(gemenge.spectrum()) - float(-np.sum(p * np.log(p)))) < 1e-8

    def test_purity_boundary(self):
        spec = qubit_spec()
        pure_result = premeasure(spec, StateVector(eigenbasis(spec)[:, 1]))
        pure_gemenge = apply_rule2(pure_result)
        assert pure_gemenge.probabilities.shape == (1,)
        dims = (2, 2)
        rho = gemenge_density_matrix(pure_gemenge, dims)
        assert abs(np.max(np.linalg.eigvalsh(dense(rho))) - 1.0) < 1e-12

        _, _, mixed_gemenge = bell_case()
        mixed_rho = gemenge_density_matrix(mixed_gemenge, dims)
        assert np.max(np.linalg.eigvalsh(dense(mixed_rho))) < 0.5 + 1e-12
