"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Criteria 1, 2 and 8 execute bundled scenarios end to end;
the rest are property suites over randomized specs with independent oracles.
"""

from importlib import resources

import numpy as np
import pytest

from pointerlab import (
    Domain,
    StateVector,
    apply_rule2,
    dlocal_residual,
    load_scenario,
    localize,
    position_kernel,
    premeasure,
    run_scenario,
    trace_distance,
)
from pointerlab.lattice import LatticeGrid
from helpers import (
    dense,
    dense_partial_trace,
    from_dense,
    gemenge_density_matrix,
    qr_unitary,
    random_bcl_spec,
    random_degeneracies,
    random_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
LN2 = 0.6931471805599453


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def _bundled(name: str):
    with resources.as_file(
        resources.files("pointerlab").joinpath("scenarios", name)
    ) as path:
        return load_scenario(path)


@pytest.fixture(scope="module")
def random_specs():
    # 20 valid specs, system dims 2-6, mixed degeneracies, apparatus dim = sector count
    rng = np.random.default_rng(2026)
    specs = []
    for i in range(20):
        system_dim = 2 + i % 5
        degeneracies = random_degeneracies(rng, system_dim)
        specs.append(random_bcl_spec(rng, degeneracies, transfer="sector_unitary"))
    return specs


@pytest.fixture(scope="module")
def premeasure_cases(random_specs):
    # 100 random initial states per spec, reused by criteria 5-7
    rng = np.random.default_rng(4096)
    cases = []
    for spec in random_specs:
        states = [random_state(rng, spec.system_dim) for _ in range(100)]
        cases.append((spec, [premeasure(spec, phi) for phi in states], states))
    return cases


def test_criterion_1_discrepancy_theorem():
    report = run_scenario(_bundled("discrepancy.json"))
    expected = (
        report.values["single_particle_position_first"]
        + report.values["single_particle_position_second"]
    )
    residual = max(
        abs(report.values["two_particle_position_boson"] - 10.0),
        abs(report.values["two_particle_position_fermion"] - 10.0),
        abs(report.values["two_particle_position_boson"] - expected),
        abs(report.values["two_particle_position_fermion"] - expected),
    )
    _report(1, "discrepancy-theorem", residual < 1e-5, f"max residual {residual:.3e}")


def test_criterion_2_cluster_separability_agreement():
    report = run_scenario(_bundled("dlocal_agreement.json"))
    difference = report.values["dlocal_difference"]
    unlocalized = abs(report.values["unlocalized_difference"] - 15.0)
    passed = difference < 1e-6 and unlocalized < 1e-4
    _report(
        2,
        "cluster-separability-agreement",
        passed,
        f"localized diff {difference:.3e}, unlocalized offset {unlocalized:.3e}",
    )


def test_criterion_3_dlocality_predicate():
    grid = LatticeGrid(-20.0, 0.078125, 512)
    domain = Domain.from_interval(grid, -5.0, 5.0)
    kernel = position_kernel(grid)
    localized = localize(kernel, domain)
    raw_local = dlocal_residual(kernel, domain) <= 0.0
    localized_local = dlocal_residual(localized, domain) <= 0.0

    # independent oracle: feed every exterior delta spike through the kernel
    exterior = np.flatnonzero(~domain.points)
    raw_responds = False
    localized_responds = False
    for j in exterior:
        spike = np.zeros(grid.n_points)
        spike[j] = 1.0
        for mat, flag in ((np.diag(kernel.entries), "raw"), (np.diag(localized.entries), "loc")):
            response = max(
                float(np.max(np.abs(grid.dx * mat @ spike))),
                float(np.max(np.abs(grid.dx * mat.T @ spike))),
            )
            if response > 0.0:
                if flag == "raw":
                    raw_responds = True
                else:
                    localized_responds = True
    passed = (not raw_local) and localized_local and raw_responds and not localized_responds
    _report(
        3,
        "dlocality-predicate",
        passed,
        f"raw d-local={raw_local}, localized d-local={localized_local}, "
        f"oracle raw_responds={raw_responds}, localized_responds={localized_responds}",
    )


def test_criterion_4_unitarity_and_extension(random_specs):
    worst_unitarity = 0.0
    worst_extension = 0.0
    for spec in random_specs:
        unitary = qr_unitary(spec)
        dim = spec.system_dim * spec.apparatus_dim
        worst_unitarity = max(
            worst_unitarity,
            spec.unitarity_deviation,
            float(np.max(np.abs(unitary.conj().T @ unitary - np.eye(dim)))),
        )
        bounds = spec.sector_bounds
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            for c in range(lo, hi):
                eigvec = spec.eigenvectors[:, c]
                expected = np.kron(spec.transfer[:, c], spec.pointers[:, k])
                for image in (
                    unitary @ np.kron(eigvec, spec.ready_state.amplitudes),
                    premeasure(spec, StateVector(eigvec)).final_state.amplitudes,
                ):
                    worst_extension = max(
                        worst_extension, float(np.linalg.norm(image - expected))
                    )
    passed = worst_unitarity < 1e-10 and worst_extension < 1e-10
    _report(
        4,
        "bcl-unitarity-and-extension",
        passed,
        f"20 specs: max unitarity {worst_unitarity:.3e}, max extension {worst_extension:.3e}",
    )


def test_criterion_5_probability_law(premeasure_cases):
    worst_sum = 0.0
    worst_formula = 0.0
    total = 0
    for spec, results, states in premeasure_cases:
        for result, phi in zip(results, states):
            total += 1
            worst_sum = max(worst_sum, abs(float(np.sum(result.probabilities)) - 1.0))
            bounds = spec.sector_bounds
            for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                mass = sum(
                    abs(np.vdot(v, phi.amplitudes)) ** 2 for v in spec.eigenvectors[:, lo:hi].T
                )
                worst_formula = max(
                    worst_formula, abs(float(result.probabilities[k]) - mass)
                )
    passed = worst_sum < 1e-10 and worst_formula < 1e-12
    _report(
        5,
        "probability-law",
        passed,
        f"{total} states: max sum residual {worst_sum:.3e}, max formula residual {worst_formula:.3e}",
    )


def test_criterion_6_apparatus_marginal(premeasure_cases):
    worst = 0.0
    for spec, results, _ in premeasure_cases:
        pointer_projectors = [np.outer(p, p.conj()) for p in spec.pointers.T]
        for result in results:
            mixture = sum(
                p * proj for p, proj in zip(result.probabilities, pointer_projectors)
            )
            worst = max(
                worst,
                trace_distance(result.apparatus_marginal, from_dense(mixture)),
            )
    _report(6, "apparatus-marginal", worst < 1e-10, f"max trace distance {worst:.3e}")


def test_criterion_7_rule2_marginal_preservation(premeasure_cases):
    worst = 0.0
    for spec, results, _ in premeasure_cases:
        dims = (spec.system_dim, spec.apparatus_dim)
        for result in results:
            rho_rule2 = dense(gemenge_density_matrix(apply_rule2(result), dims))
            marginals = (result.system_marginal, result.apparatus_marginal)
            for keep, marginal in enumerate(marginals):
                reference = from_dense(dense_partial_trace(rho_rule2, *dims, keep))
                worst = max(worst, trace_distance(marginal, reference))
    _report(7, "rule2-marginal-preservation", worst < 1e-10, f"max trace distance {worst:.3e}")


def test_criterion_8_correlation_erasure():
    report = run_scenario(_bundled("rule2_qubit.json"))
    coherence_residual = abs(report.values["pointer_coherence_unitary"] - INV_SQRT2)
    rule2_coherence = report.values["pointer_coherence_rule2"]
    witness_unitary = abs(report.values["witness_expectation_unitary"] - 1.0)
    witness_rule2 = abs(report.values["witness_expectation_rule2"])
    entropy_gap = abs(
        (report.values["entropy_rule2"] - report.values["entropy_unitary"]) - LN2
    )
    passed = (
        coherence_residual < 1e-10
        and rule2_coherence == 0.0
        and witness_unitary < 1e-10
        and witness_rule2 < 1e-10
        and entropy_gap < 1e-8
    )
    _report(
        8,
        "correlation-erasure",
        passed,
        f"coherence residual {coherence_residual:.3e}, rule2 coherence {rule2_coherence!r}, "
        f"witness residuals {witness_unitary:.3e}/{witness_rule2:.3e}, entropy gap {entropy_gap:.3e}",
    )


def test_criterion_9_completion_independence(random_specs):
    rng = np.random.default_rng(99)
    worst = 0.0
    for spec in random_specs[:6]:
        phi = random_state(rng, spec.system_dim)
        final = premeasure(spec, phi).final_state.amplitudes
        start = np.kron(phi.amplitudes, spec.ready_state.amplitudes)
        base, other = (qr_unitary(spec, seed) for seed in (0, 11))
        assert np.max(np.abs(base - other)) > 0.1  # two genuinely different completions
        for unitary in (base, other):
            worst = max(worst, float(np.max(np.abs(final - unitary @ start))))
    _report(9, "completion-independence", worst < 1e-10, f"max output deviation {worst:.3e}")


def _brute_force_expansion(spec, phi):
    # independent oracle: explicit loops over the defining expansion
    probabilities = []
    conditionals = []
    bounds = spec.sector_bounds
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        combined = np.zeros(spec.system_dim, dtype=complex)
        for c in range(lo, hi):
            eigvec, transfer_vec = spec.eigenvectors[:, c], spec.transfer[:, c]
            coefficient = 0.0 + 0.0j
            for i in range(spec.system_dim):
                coefficient += np.conj(eigvec[i]) * phi.amplitudes[i]
            combined = combined + coefficient * transfer_vec
        weight = 0.0
        for i in range(spec.system_dim):
            weight += abs(combined[i]) ** 2
        probabilities.append(weight)
        conditionals.append(combined / np.sqrt(weight) if weight > 1e-12 else None)
    return probabilities, conditionals


def test_criterion_10_degenerate_eigenvalue_path():
    rng = np.random.default_rng(10)
    spec = random_bcl_spec(rng, (2, 1), transfer="sector_unitary")
    lo, hi = spec.sector_bounds[:2]
    phi = StateVector(spec.eigenvectors[:, lo:hi].sum(axis=1) / np.sqrt(2.0))
    result = premeasure(spec, phi)
    oracle_p, oracle_states = _brute_force_expansion(spec, phi)

    p_residual = abs(float(result.probabilities[0]) - 1.0)
    expected = spec.transfer[:, lo:hi].sum(axis=1) / np.sqrt(2.0)
    kept, conditionals = result.conditionals
    assert kept.tolist() == [0]
    state_residual = float(np.max(np.abs(conditionals[:, 0] - expected)))
    oracle_p_residual = max(
        abs(float(result.probabilities[k]) - oracle_p[k]) for k in range(2)
    )
    oracle_state_residual = float(np.max(np.abs(conditionals[:, 0] - oracle_states[0])))
    passed = (
        p_residual < 1e-12
        and state_residual < 1e-12
        and oracle_p_residual < 1e-12
        and oracle_state_residual < 1e-12
    )
    _report(
        10,
        "degenerate-eigenvalue-path",
        passed,
        f"p residual {p_residual:.3e}, state residual {state_residual:.3e}, "
        f"oracle residuals {oracle_p_residual:.3e}/{oracle_state_residual:.3e}",
    )
