import numpy as np
import pytest

from pointerlab import (
    DensityMatrix,
    StateVector,
    outer,
    premeasure,
    trace_distance,
    von_neumann_entropy,
)
from pointerlab.hilbert import gram_residual
from helpers import (
    canonical_spec,
    dense,
    from_dense,
    product_result,
    random_state,
    random_unitary,
)

LN2 = 0.6931471805599453


def random_density(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = z @ z.conj().T
    return from_dense(mat / np.trace(mat))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])

    def test_normalized_constructor(self):
        s = StateVector.normalized([3.0, 4.0])
        assert np.allclose(s.amplitudes, [0.6, 0.8])
        with pytest.raises(ValueError):
            StateVector.normalized([0.0, 0.0])

    def test_normalized_survives_an_overflowing_norm(self):
        huge = StateVector.normalized([1e308, -1e308j])
        assert np.array_equal(huge.amplitudes, StateVector.normalized([1.0, -1j]).amplitudes)

    def test_amplitudes_read_only(self):
        s = StateVector([1.0, 0.0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5


class TestTensorOp:
    # the operator Kronecker convention behind the np.kron products in
    # premeasurement and objectification: (M (x) N)(u (x) v) = (Mu) (x) (Nv)
    def test_acts_factorwise(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        n = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        left = np.kron(m, n) @ np.kron(u, v)
        right = np.kron(m @ u, n @ v)
        assert np.max(np.abs(left - right)) < 1e-12


class TestPartialTrace:
    # a premeasured state's marginals, the columns of its amplitude matrix B and of B^T
    def test_product_basis_state(self):
        result = premeasure(canonical_spec([1.0, -1.0], [1, 1]), StateVector([1, 0]))
        expected = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(dense(result.system_marginal), expected)
        assert np.allclose(dense(result.apparatus_marginal), expected)

    def test_bell_state(self):
        spec = canonical_spec([1.0, -1.0], [1, 1])
        result = premeasure(spec, StateVector(np.array([1, 1]) / np.sqrt(2)))
        assert np.array_equal(result.final_state.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))
        for reduced in (result.system_marginal, result.apparatus_marginal):
            assert np.max(np.abs(dense(reduced) - np.eye(2) / 2)) < 1e-12

    def test_keeps_product_factor_of_pure_state(self):
        rng = np.random.default_rng(4)
        u, v = random_state(rng, 2), random_state(rng, 3)
        result = product_result(u, v)
        product = np.kron(u.amplitudes, v.amplitudes)
        assert np.max(np.abs(result.final_state.amplitudes - product)) < 1e-15
        assert np.max(np.abs(dense(result.apparatus_marginal) - dense(outer(v)))) < 1e-12


class TestEntropy:
    def test_pure_state(self):
        rng = np.random.default_rng(5)
        assert abs(von_neumann_entropy(outer(random_state(rng, 4)))) < 1e-9

    def test_maximally_mixed_qubit(self):
        rho = from_dense(np.eye(2) / 2)
        assert abs(von_neumann_entropy(rho) - LN2) < 1e-9

    def test_biased_qubit(self):
        # scalar oracle: -sum(p ln p) on the known spectrum
        expected = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
        assert abs(expected - 0.5623351446188083) < 1e-15
        rho = from_dense(np.diag([0.25, 0.75]))
        assert abs(von_neumann_entropy(rho) - expected) < 1e-9
        # the entropy reads the spectrum stored at construction, so it is shared
        # state and must refuse writes
        with pytest.raises(ValueError):
            rho.eigenvalues()[0] = 1.0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 5)
        u = random_unitary(rng, 5)
        rotated = from_dense(u @ dense(rho) @ u.conj().T)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9


class TestOuter:
    def test_basis_projector(self):
        assert np.array_equal(
            dense(outer(StateVector([1, 0]))), np.diag([1.0, 0.0]).astype(complex)
        )

    def test_uniform_projector(self):
        rho = outer(StateVector(np.array([1, 1]) / np.sqrt(2)))
        assert np.max(np.abs(dense(rho) - 0.5)) < 1e-15

    def test_trace_and_idempotence(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = outer(random_state(rng, 5))
            assert abs(np.trace(dense(rho)) - 1.0) < 1e-12
            assert np.max(np.abs(dense(rho) @ dense(rho) - dense(rho))) < 1e-10


class TestGramDeviation:
    # max |G - I| over the Gram matrix G = V^dagger V, the spec's pointer check
    def test_orthonormal_family(self):
        rng = np.random.default_rng(8)
        columns = random_unitary(rng, 4)
        assert gram_residual(columns.conj().T @ columns).max() < 1e-12

    def test_repeated_vector(self):
        v = np.array([1.0, 0.0])
        columns = np.column_stack([v, v])
        assert gram_residual(columns.conj().T @ columns).max() == 1.0


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        # a mixture is Hermitian by construction; the dense oracle refuses the rest
        with pytest.raises(ValueError):
            from_dense(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            from_dense(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative weight"):
            from_dense(np.diag([1.5, -0.5]))

    def test_mixture_positivity_is_the_sign_of_its_weights(self):
        columns = np.eye(2)
        with pytest.raises(ValueError, match="negative weight"):
            DensityMatrix(columns=columns, weights=[1.5, -0.5])
        with pytest.raises(ValueError, match="one weight per column"):
            DensityMatrix(columns=columns, weights=[1.0])
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(columns=columns, weights=[0.5, 0.4])
        rho = DensityMatrix(columns=columns, weights=[0.25, 0.75])
        assert np.array_equal(dense(rho), np.diag([0.25, 0.75]).astype(complex))


class TestTraceDistance:
    def test_identical_states(self):
        rho = from_dense(np.eye(2) / 2)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = outer(StateVector([1, 0]))
        b = outer(StateVector([0, 1]))
        assert abs(trace_distance(a, b) - 1.0) < 1e-12
