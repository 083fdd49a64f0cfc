import json
from functools import cached_property
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import (
    BclSpec,
    DimensionMismatch,
    MeasurementConditionViolated,
    SpecInvalid,
    StateVector,
    apply_rule2,
    observable_witness,
    outer,
    partial_trace,
    premeasure,
    trace_distance,
    von_neumann_entropy,
)
from pointerlab import objectification, premeasurement, run_scenario
from pointerlab.hilbert import gram_residual
from pointerlab.premeasurement import PremeasurementResult
from pointerlab.scenario import validate_scenario_data
from pointerlab.tolerances import INVARIANT_TOL
from helpers import (
    basis_state,
    canonical_spec,
    close,
    dense,
    eigenbasis,
    from_dense,
    haar_document,
    kronecker_entries,
    qr_unitary,
    random_bcl_spec,
    random_state,
    transfer_family,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def qubit_spec():
    return canonical_spec([1.0, -1.0], [1, 1])


class TestBclSpecInvariants:
    def test_canonical_shape(self):
        spec = qubit_spec()
        assert spec.system_dim == 2 and spec.apparatus_dim == 2
        assert spec.degeneracies == (1, 1)

    def test_rejects_duplicate_eigenvalues(self):
        with pytest.raises(SpecInvalid):
            canonical_spec([1.0, 1.0], [1, 1])

    def test_rejects_incomplete_eigenbasis(self):
        e = np.eye(3, 2)
        with pytest.raises(SpecInvalid, match="degeneracies sum to 2 but the system dimension is 3"):
            BclSpec(
                eigenvalues=(1.0, -1.0),
                degeneracies=(1, 1),
                eigenvectors=e,
                transfer=e,
                pointers=np.eye(2),
                ready_state=StateVector([1, 0]),
            )

    def test_rejects_non_orthonormal_eigenbasis(self):
        e = np.array([[1, 1], [0, 0]])
        with pytest.raises(SpecInvalid, match="system eigenbasis is not orthonormal"):
            BclSpec(
                eigenvalues=(1.0, -1.0),
                degeneracies=(1, 1),
                eigenvectors=e,
                transfer=e,
                pointers=np.eye(2),
                ready_state=StateVector([1, 0]),
            )

    def test_rejects_wrong_pointer_count(self):
        with pytest.raises(SpecInvalid, match="one pointer state per eigenvalue sector"):
            BclSpec(
                eigenvalues=(1.0, -1.0),
                degeneracies=(1, 1),
                eigenvectors=np.eye(2),
                transfer=np.eye(2),
                pointers=np.eye(2, 1),
                ready_state=StateVector([1, 0]),
            )

    @pytest.mark.parametrize(
        "pointers, transfer, message",
        [
            (np.diag([1.0, 2.0]), np.eye(2), "pointer basis is not orthonormal"),
            (np.eye(2), np.diag([1.0, 2.0]), "transfer row 1 is not orthonormal"),
        ],
        ids=["pointer", "transfer"],
    )
    def test_rejects_unnormalized_column(self, pointers, transfer, message):
        # a column of norm 2 shows on the diagonal of its Gram product
        with pytest.raises(SpecInvalid, match=message):
            BclSpec(
                eigenvalues=(1.0, -1.0),
                degeneracies=(1, 1),
                eigenvectors=np.eye(2),
                transfer=transfer,
                pointers=pointers,
                ready_state=StateVector([1, 0]),
            )

    def test_rejects_non_orthonormal_transfer_row(self):
        transfer = np.eye(3)[:, [0, 0, 2]]
        with pytest.raises(SpecInvalid, match="transfer row 0 is not orthonormal"):
            BclSpec(
                eigenvalues=(1.0, -1.0),
                degeneracies=(2, 1),
                eigenvectors=np.eye(3),
                transfer=transfer,
                pointers=np.eye(2),
                ready_state=StateVector([1, 0]),
            )

    def test_rejects_non_orthonormal_later_transfer_row(self):
        transfer = np.eye(4)[:, [0, 1, 1, 3]]
        with pytest.raises(SpecInvalid, match="transfer row 1 is not orthonormal"):
            BclSpec(
                eigenvalues=(1.0, 0.0, -1.0),
                degeneracies=(1, 2, 1),
                eigenvectors=np.eye(4),
                transfer=transfer,
                pointers=np.eye(3),
                ready_state=basis_state(3, 0),
            )

    def test_rejects_misshapen_families(self):
        with pytest.raises(SpecInvalid, match="transfer family has shape"):
            BclSpec(
                eigenvalues=(1.0, -1.0),
                degeneracies=(1, 1),
                eigenvectors=np.eye(2),
                transfer=np.eye(2, 3),
                pointers=np.eye(2),
                ready_state=StateVector([1, 0]),
            )
        with pytest.raises(SpecInvalid, match="pointer states and ready state"):
            BclSpec(
                eigenvalues=(1.0, -1.0),
                degeneracies=(1, 1),
                eigenvectors=np.eye(2),
                transfer=np.eye(2),
                pointers=np.eye(3, 2),
                ready_state=StateVector([1, 0]),
            )

    def test_identity_families_are_held_as_none(self, monkeypatch):
        # None is the identity E and the default family T = E: only P is checked
        grams = []
        residual = premeasurement.gram_residual
        monkeypatch.setattr(
            premeasurement, "gram_residual", lambda g: grams.append(g.shape) or residual(g)
        )
        spec = canonical_spec([1.0, 0.0, -1.0], [2, 1, 1], apparatus_dim=5)
        assert spec.eigenvectors is None and spec.transfer is None
        assert spec.system_dim == 4 and grams == [(3, 3)]
        assert spec.unitarity_deviation == spec.extension_residual == 0.0
        assert spec.measurement_residual == 0.0

    @pytest.mark.parametrize(
        "transfer, message",
        [
            (np.diag([1.0, 2.0]), "transfer row 1 is not orthonormal"),
            (np.eye(3), r"transfer family has shape \(3, 3\), not \(2, 2\)"),
        ],
        ids=["unnormalized", "misshapen"],
    )
    def test_explicit_transfer_on_the_identity_is_checked(self, transfer, message):
        with pytest.raises(SpecInvalid, match=message):
            BclSpec(
                eigenvalues=(1.0, -1.0),
                degeneracies=(1, 1),
                eigenvectors=None,
                transfer=transfer,
                pointers=np.eye(2),
                ready_state=StateVector([1, 0]),
            )

    def test_matrices_are_read_only_copies(self):
        eigenvectors = np.eye(2, dtype=complex)
        spec = BclSpec(
            eigenvalues=(1.0, -1.0),
            degeneracies=(1, 1),
            eigenvectors=eigenvectors,
            transfer=eigenvectors,
            pointers=np.eye(2),
            ready_state=StateVector([1, 0]),
        )
        assert eigenvectors.flags.writeable
        assert not spec.eigenvectors.flags.writeable and not spec.pointers.flags.writeable
        assert spec.eigenvectors.flags.c_contiguous

    def test_system_observable_reconstruction(self):
        rng = np.random.default_rng(21)
        spec = random_bcl_spec(rng, (2, 1))
        # O (x) I carries e (x) a into o e (x) a for every apparatus basis vector a
        observable = kronecker_entries(observable_witness(spec))
        bounds = spec.sector_bounds
        for o, lo, hi in zip(spec.eigenvalues, bounds[:-1], bounds[1:]):
            for vec in eigenbasis(spec)[:, lo:hi].T:
                for pointer in np.eye(spec.apparatus_dim):
                    product = np.kron(vec, pointer)
                    assert np.max(np.abs(observable @ product - o * product)) < 1e-10


class TestBuildUnitary:
    def test_default_transfer_satisfies_condition(self):
        spec = qubit_spec()
        premeasure(spec, basis_state(2, 0))
        assert spec.measurement_residual < 1e-12

    def test_cross_sector_duplicate_fails_condition(self):
        # each one-vector row is orthonormal, so the spec itself is accepted
        spec = BclSpec(
            eigenvalues=(1.0, -1.0),
            degeneracies=(1, 1),
            eigenvectors=np.eye(2),
            transfer=np.array([[1, 1], [0, 0]]),
            pointers=np.eye(2),
            ready_state=StateVector([1, 0]),
        )
        with pytest.raises(MeasurementConditionViolated, match=r"residual 1\.000e\+00"):
            premeasure(spec, basis_state(2, 0))
        assert spec.measurement_residual == 1.0

    def test_sector_unitaries_preserve_condition(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            spec = random_bcl_spec(rng, (2, 2, 1), transfer="sector_unitary")
            premeasure(spec, random_state(rng, spec.system_dim))
            assert spec.measurement_residual <= INVARIANT_TOL

    def test_qubit_columns(self):
        spec = qubit_spec()
        unitary = qr_unitary(spec)
        ready = spec.ready_state.amplitudes
        for k in range(2):
            eigvec, pointer = eigenbasis(spec)[:, k], spec.pointers[:, k]
            image = premeasure(spec, StateVector(eigvec)).final_state.amplitudes
            assert np.max(np.abs(image - np.kron(eigvec, pointer))) < 1e-10
            assert np.max(np.abs(image - unitary @ np.kron(eigvec, ready))) < 1e-10

    def test_random_spec_unitarity_and_extension(self):
        rng = np.random.default_rng(23)
        spec = random_bcl_spec(rng, (2, 1, 1))
        unitary = qr_unitary(spec)
        dim = spec.system_dim * spec.apparatus_dim
        assert spec.unitarity_deviation < 1e-10
        assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(dim))) < 1e-10
        assert np.max(np.abs(unitary @ unitary.conj().T - np.eye(dim))) < 1e-10
        bounds = spec.sector_bounds
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            for c in range(lo, hi):
                image = unitary @ np.kron(eigenbasis(spec)[:, c], spec.ready_state.amplitudes)
                expected = np.kron(transfer_family(spec)[:, c], spec.pointers[:, k])
                assert np.max(np.abs(image - expected)) < 1e-10

    def test_condition_violation_refused(self):
        spec = BclSpec(
            eigenvalues=(1.0, -1.0),
            degeneracies=(1, 1),
            eigenvectors=np.eye(2),
            transfer=np.array([[1, 1], [0, 0]]),
            pointers=np.eye(2),
            ready_state=StateVector([1, 0]),
        )
        with pytest.raises(MeasurementConditionViolated):
            premeasure(spec, StateVector([1, 0]))


class TestPremeasure:
    def test_eigenstate_input(self):
        spec = qubit_spec()
        result = premeasure(spec, StateVector(eigenbasis(spec)[:, 0]))
        assert np.allclose(result.probabilities, [1.0, 0.0], atol=1e-12)
        assert result.conditionals[0].tolist() == [0]  # sector 1 has no conditional state
        expected = np.kron(transfer_family(spec)[:, 0], spec.pointers[:, 0])
        assert np.max(np.abs(result.final_state.amplitudes - expected)) < 1e-10

    def test_uniform_superposition_gives_bell_pair(self):
        spec = qubit_spec()
        phi = StateVector(np.array([1, 1]) / np.sqrt(2))
        result = premeasure(spec, phi)
        assert np.allclose(result.probabilities, [0.5, 0.5], atol=1e-12)
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(result.final_state.amplitudes - bell)) < 1e-12

    def test_degenerate_sector(self):
        rng = np.random.default_rng(24)
        spec = random_bcl_spec(rng, (2, 1))
        lo, hi = spec.sector_bounds[:2]
        phi = StateVector.normalized(eigenbasis(spec)[:, lo:hi].sum(axis=1))
        result = premeasure(spec, phi)
        assert abs(result.probabilities[0] - 1.0) < 1e-12
        expected = StateVector.normalized(transfer_family(spec)[:, lo:hi].sum(axis=1))
        kept, conditionals = result.conditionals
        assert kept.tolist() == [0]
        overlap = abs(np.vdot(conditionals[:, 0], expected.amplitudes))
        assert abs(overlap - 1.0) < 1e-12

    def test_probability_law(self):
        rng = np.random.default_rng(25)
        spec = random_bcl_spec(rng, (1, 2, 1))
        for _ in range(50):
            phi = random_state(rng, spec.system_dim)
            result = premeasure(spec, phi)
            assert abs(float(np.sum(result.probabilities)) - 1.0) < 1e-10
            bounds = spec.sector_bounds
            for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                mass = sum(
                    abs(np.vdot(v, phi.amplitudes)) ** 2 for v in eigenbasis(spec)[:, lo:hi].T
                )
                assert abs(result.probabilities[k] - mass) < 1e-12

    def test_conditional_states_orthonormal_and_entropy(self):
        rng = np.random.default_rng(26)
        spec = random_bcl_spec(rng, (2, 1, 1))
        phi = random_state(rng, spec.system_dim)
        result = premeasure(spec, phi)
        _, conditionals = result.conditionals
        kept = conditionals.shape[1]
        assert np.max(np.abs(conditionals.conj().T @ conditionals - np.eye(kept))) < 1e-10
        dims = (spec.system_dim, spec.apparatus_dim)
        system_marginal = partial_trace(outer(result.final_state), dims, keep=0)
        p = result.probabilities[result.probabilities > 1e-15]
        expected_entropy = float(-np.sum(p * np.log(p)))
        assert abs(von_neumann_entropy(system_marginal) - expected_entropy) < 1e-8

    def test_conditionals_are_read_only(self):
        # both arrays are cached on the frozen result and read again by rule 2
        rng = np.random.default_rng(28)
        spec = random_bcl_spec(rng, (2, 1, 1))
        result = premeasure(spec, random_state(rng, spec.system_dim))
        before = apply_rule2(result)
        kept, conditionals = result.conditionals
        with pytest.raises(ValueError, match="read-only"):
            conditionals[:] = 0
        with pytest.raises(ValueError, match="read-only"):
            kept[:] = 0
        after = apply_rule2(result)
        assert np.array_equal(after.probabilities, before.probabilities)
        assert np.array_equal(after.system_states, before.system_states)
        assert np.array_equal(after.pointer_states, before.pointer_states)

    def test_deterministic(self):
        rng = np.random.default_rng(27)
        spec = random_bcl_spec(rng, (2, 2))
        phi = random_state(rng, spec.system_dim)
        first = premeasure(spec, phi)
        second = premeasure(spec, phi)
        assert np.array_equal(first.probabilities, second.probabilities)
        assert np.array_equal(first.final_state.amplitudes, second.final_state.amplitudes)
        assert np.array_equal(first.sector_vectors, second.sector_vectors)

    def test_completion_seed_independence(self):
        rng = np.random.default_rng(28)
        # degenerate sectors, pointers spanning the apparatus, apparatus_dim > K
        for degeneracies, apparatus_dim in (
            ((2, 1), None),
            ((1, 1, 1, 1), None),
            ((3, 1, 2), 5),
            ((1, 2), 4),
            ((4,), 3),
        ):
            spec = random_bcl_spec(rng, degeneracies, apparatus_dim=apparatus_dim)
            phi = random_state(rng, spec.system_dim)
            ready = spec.ready_state.amplitudes
            dim = spec.system_dim * spec.apparatus_dim
            unitaries = {seed: qr_unitary(spec, seed) for seed in (0, 5)}
            for unitary in unitaries.values():
                assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(dim))) < INVARIANT_TOL
                bounds = spec.sector_bounds
                for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                    for c in range(lo, hi):
                        image = unitary @ np.kron(eigenbasis(spec)[:, c], ready)
                        expected = np.kron(transfer_family(spec)[:, c], spec.pointers[:, k])
                        assert np.linalg.norm(image - expected) < 1e-12
            # the seeds must give genuinely different completions, or the
            # comparison below tests nothing
            assert np.max(np.abs(unitaries[0] - unitaries[5])) > 0.1
            final = premeasure(spec, phi).final_state.amplitudes
            for unitary in unitaries.values():
                assert np.max(np.abs(final - unitary @ np.kron(phi.amplitudes, ready))) < 1e-10

    def test_run_factorizes_nothing(self, monkeypatch):
        rng = np.random.default_rng(30)
        spec = random_bcl_spec(rng, (2, 1), apparatus_dim=4)
        phi = random_state(rng, spec.system_dim)
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kw: calls.append(1) or qr(*args, **kw))
        premeasure(spec, phi)
        assert not calls

    def test_unitarity_residual_forms_no_product(self):
        rng = np.random.default_rng(32)
        spec = random_bcl_spec(rng, (2, 1), apparatus_dim=4)
        # a ready state 3e-11 off unit norm, inside StateVector's check: its term is the largest
        ready = StateVector(spec.ready_state.amplitudes * (1.0 + 3e-11))
        spec = BclSpec(
            eigenvalues=spec.eigenvalues,
            degeneracies=spec.degeneracies,
            eigenvectors=spec.eigenvectors,
            transfer=spec.transfer,
            pointers=spec.pointers,
            ready_state=ready,
        )
        eigenbasis, transfer, pointers = (
            gram_residual(m.conj().T @ m).max()
            for m in (spec.eigenvectors, spec.transfer, spec.pointers)
        )
        ready_residual = abs(np.vdot(ready.amplitudes, ready.amplitudes) - 1.0)
        assert spec.measurement_residual == transfer
        assert spec.unitarity_deviation == max(eigenbasis, transfer, pointers, ready_residual)
        assert abs(spec.unitarity_deviation - 6e-11) < 1e-15
        # a stored float: reading it forms no product
        assert type(vars(spec)["unitarity_deviation"]) is float

    def test_full_measurement_run_builds_shared_states_once(self, monkeypatch):
        # one |psi><psi| of the final state and one division into conditional
        # states serve the diagnostics, rule 2 and the comparison
        outers, divisions = [], []
        build_outer = premeasurement.outer
        counted_outer = lambda phi: outers.append(phi) or build_outer(phi)  # noqa: E731
        monkeypatch.setattr(premeasurement, "outer", counted_outer)
        monkeypatch.setattr(objectification, "outer", counted_outer, raising=False)
        divide = PremeasurementResult.conditionals.func
        counted = cached_property(lambda result: divisions.append(result) or divide(result))
        counted.__set_name__(PremeasurementResult, "conditionals")
        monkeypatch.setattr(PremeasurementResult, "conditionals", counted)
        report = run_scenario(validate_scenario_data(haar_document("sigma_x_pattern")))
        assert report.all_passed
        assert len(outers) == 1
        assert len(divisions) == 1

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            premeasure(qubit_spec(), StateVector([1, 0, 0]))

    def test_final_state_reconstruction(self):
        rng = np.random.default_rng(31)
        spec = random_bcl_spec(rng, (2, 1, 1))
        result = premeasure(spec, random_state(rng, spec.system_dim))
        rebuilt = np.zeros(spec.system_dim * spec.apparatus_dim, dtype=complex)
        kept, conditionals = result.conditionals
        for k, conditional in zip(kept, conditionals.T):
            rebuilt += np.sqrt(result.probabilities[k]) * np.kron(conditional, spec.pointers[:, k])
        assert np.linalg.norm(result.final_state.amplitudes - rebuilt) < 1e-10

    @pytest.mark.parametrize("scenario", ["bcl_qubit.json", "rule2_qubit.json"])
    def test_floored_sector_enters_the_reconstruction(self, scenario):
        # sector 1 has probability 1e-14, below the floor: no conditional
        # state, but its amplitude 1e-7 is still part of the final state
        bundled = resources.files("pointerlab").joinpath("scenarios", scenario)
        document = json.loads(bundled.read_text())
        document["initial_state"] = [1.0, 1e-7]
        report = run_scenario(validate_scenario_data(document))
        verdicts = {v.name: v for v in report.verdicts}
        assert verdicts["reconstruction"].residual <= 1e-15
        assert report.all_passed


DERIVED_SPECS = st.fixed_dictionaries(
    {
        "degeneracies": st.lists(st.integers(1, 3), min_size=1, max_size=4),
        "extra_apparatus": st.integers(0, 2),  # > 0 leaves K < d_pointer
        "transfer": st.sampled_from(["identity", "sector_unitary"]),
    }
)


class TestDerivedResult:
    @settings(max_examples=60)
    @given(
        case=DERIVED_SPECS,
        zeroed=st.lists(st.booleans(), max_size=4),  # sectors of probability exactly 0
        seed=st.integers(0, 2**32 - 1),
    )
    def test_probabilities_and_final_state_follow_from_the_sector_vectors(
        self, case, zeroed, seed
    ):
        rng = np.random.default_rng(seed)
        degeneracies = case["degeneracies"]
        spec = random_bcl_spec(
            rng,
            degeneracies,
            apparatus_dim=len(degeneracies) + case["extra_apparatus"],
            transfer=case["transfer"],
        )
        shape = (spec.system_dim, len(degeneracies))
        vectors = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        vectors[:, [k for k, zero in enumerate(zeroed[: shape[1] - 1]) if zero]] = 0.0
        vectors /= np.linalg.norm(vectors)
        result = PremeasurementResult(spec, vectors)
        assert close(result.probabilities, (np.abs(vectors) ** 2).sum(axis=0))
        assert result.probabilities.min() >= 0.0
        dense_state = sum(
            np.kron(vectors[:, k], spec.pointers[:, k]) for k in range(len(degeneracies))
        )
        assert close(result.final_state.amplitudes, dense_state)
        assert not result.sector_vectors.flags.writeable
        assert not result.probabilities.flags.writeable

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2,), (1, 2, 2)])
    def test_sector_vectors_of_another_shape_refused(self, shape):
        vectors = np.zeros(shape, dtype=complex)
        vectors.flat[0] = 1.0
        with pytest.raises(DimensionMismatch, match="sector vectors have shape"):
            PremeasurementResult(qubit_spec(), vectors)

    def test_probabilities_off_unit_sum_refused(self):
        with pytest.raises(SpecInvalid, match="sum off"):
            PremeasurementResult(qubit_spec(), np.eye(2) * 0.5)


class TestApparatusMarginal:
    def test_bell_case(self):
        spec = qubit_spec()
        result = premeasure(spec, StateVector(np.array([1, 1]) / np.sqrt(2)))
        marginal = result.apparatus_marginal
        assert np.max(np.abs(dense(marginal) - np.eye(2) / 2)) < 1e-12

    def test_eigenstate_case(self):
        spec = qubit_spec()
        result = premeasure(spec, StateVector(eigenbasis(spec)[:, 0]))
        expected = outer(StateVector(spec.pointers[:, 0]))
        assert np.max(np.abs(dense(result.apparatus_marginal) - dense(expected))) < 1e-12

    def test_spectrum_matches_probabilities(self):
        rng = np.random.default_rng(29)
        spec = random_bcl_spec(rng, (1, 1, 1))
        phi = random_state(rng, spec.system_dim)
        result = premeasure(spec, phi)
        marginal = result.apparatus_marginal
        eigenvalues = np.sort(marginal.eigenvalues())
        expected = np.sort(result.probabilities)
        assert np.max(np.abs(eigenvalues - expected)) < 1e-10

    def test_matches_pointer_mixture(self):
        rng = np.random.default_rng(30)
        spec = random_bcl_spec(rng, (2, 1), apparatus_dim=3)
        phi = random_state(rng, spec.system_dim)
        result = premeasure(spec, phi)
        mixture = np.zeros((3, 3), dtype=complex)
        for k, pointer in enumerate(spec.pointers.T):
            mixture += result.probabilities[k] * np.outer(pointer, pointer.conj())
        assert trace_distance(result.apparatus_marginal, from_dense(mixture)) < 1e-10
