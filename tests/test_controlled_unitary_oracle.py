"""The controlled premeasurement unitary against a dense QR completion.

The reference ``qr_unitary`` (in ``helpers``) completes the domain columns
``e (x) ready`` and range columns ``t (x) pointer`` each to a full
orthonormal basis with one complete-mode QR, a nonzero seed re-pairing the
range complement through a Haar unitary.  A run applies only the prescribed
isometry, so every completion must agree with its final state on every
``phi (x) ready``: on the domain images ``e_c (x) ready`` and on the images
of random states.  The spec's extension residual, read off its eigenbasis
Gram product, must match the residual of those domain images.
Premeasurement allocates no ``d_system x d_system`` array beyond the spec's
own matrices.  Its sector vectors, one product of the placed coefficients
with ``T^T``, must match the per-sector loop ``T_k E_k^dagger phi`` with
either family explicit or ``None``, and a wrong contraction in that product
or in the result's final state fails a run verdict.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import BclSpec, PremeasurementResult, StateVector, premeasure, premeasurement
from pointerlab.runner import _bcl_diagnostics
from pointerlab.scenario import TOLERANCE_DEFAULTS
from helpers import (
    close,
    eigenbasis,
    extension_images_residual,
    qr_unitary,
    random_bcl_spec,
    random_state,
    traced_peak,
    transfer_family,
)

RESULT_POST_INIT = PremeasurementResult.__post_init__


@settings(max_examples=40)
@given(
    degeneracies=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    extra_apparatus=st.integers(0, 2),  # > 0 leaves K < d_pointer
    transfer=st.sampled_from(["identity", "sector_unitary"]),
    canonical=st.booleans(),  # E held as None
    seed=st.integers(0, 2**32 - 1),
)
def test_controlled_unitary_matches_qr_completion(
    degeneracies, extra_apparatus, transfer, canonical, seed
):
    rng = np.random.default_rng(seed)
    spec = random_bcl_spec(
        rng,
        degeneracies,
        apparatus_dim=len(degeneracies) + extra_apparatus,
        transfer=transfer,
        canonical=canonical,
    )
    dim = spec.system_dim * spec.apparatus_dim
    ready = spec.ready_state.amplitudes
    completions = [qr_unitary(spec, completion_seed) for completion_seed in (0, 11)]
    eigenvectors = eigenbasis(spec)
    domain = np.einsum("ic,j->ijc", eigenvectors, ready).reshape(dim, -1)
    expected_images = completions[0] @ domain
    for completion in completions:
        assert np.max(np.abs(completion.conj().T @ completion - np.eye(dim))) <= 1e-12
    assert np.max(np.abs(completions[1] @ domain - expected_images)) <= 1e-12
    assert spec.unitarity_deviation <= 1e-12
    # the images of e_c (x) ready, one premeasurement per eigenvector
    images = np.stack(
        [premeasure(spec, StateVector(e)).final_state.amplitudes for e in eigenvectors.T],
        axis=1,
    )
    assert np.max(np.abs(images - expected_images)) <= 1e-12
    for _ in range(3):
        phi = random_state(rng, spec.system_dim)
        start = np.kron(phi.amplitudes, ready)
        computed = premeasure(spec, phi).final_state.amplitudes
        for completion in completions:
            assert np.max(np.abs(computed - completion @ start)) <= 1e-12


@settings(max_examples=40)
@given(
    degeneracies=st.lists(st.integers(1, 64), min_size=1, max_size=4),  # d_s up to 256
    extra_apparatus=st.integers(0, 2),  # > 0 leaves K < d_pointer
    transfer=st.sampled_from(["identity", "sector_unitary"]),
    perturbed=st.booleans(),  # E off orthonormal by about 2e-11, inside the spec's check
    seed=st.integers(0, 2**32 - 1),
)
def test_extension_residual_matches_the_domain_images(
    degeneracies, extra_apparatus, transfer, perturbed, seed
):
    rng = np.random.default_rng(seed)
    spec = random_bcl_spec(
        rng, degeneracies, apparatus_dim=len(degeneracies) + extra_apparatus, transfer=transfer
    )
    if perturbed:
        shape = spec.eigenvectors.shape
        # the scaling puts 2e-11 on each diagonal entry of E^dagger E - I, which the
        # random 1e-12 part cannot cancel: a random part alone can sit below 1e-12
        eigenvectors = spec.eigenvectors * (1.0 + 1e-11) + 1e-12 * (
            rng.normal(size=shape) + 1j * rng.normal(size=shape)
        )
        spec = BclSpec(
            eigenvalues=spec.eigenvalues,
            degeneracies=spec.degeneracies,
            eigenvectors=eigenvectors,
            transfer=spec.transfer,
            pointers=spec.pointers,
            ready_state=spec.ready_state,
        )
    residual = spec.extension_residual
    assert abs(residual - extension_images_residual(spec)) <= 1e-12
    if perturbed:
        assert residual > 1e-12


def pointers_untransposed(self):
    """:class:`PremeasurementResult` construction contracting the sector vectors
    with ``P`` in place of ``P^T`` for the final state."""
    RESULT_POST_INIT(self)
    final_state = StateVector((self.sector_vectors @ self.spec.pointers).reshape(-1))
    object.__setattr__(self, "final_state", final_state)


def sectors_mispaired(spec, sector_vectors):
    """:func:`premeasure`'s product ``(C T^T)^T`` with the rows of ``C`` rolled by
    one sector, so that column ``k`` holds sector ``k - 1``'s vector."""
    return PremeasurementResult(spec, np.roll(sector_vectors, 1, axis=1))


@pytest.mark.parametrize(
    "owner, method, mutant",
    [
        (PremeasurementResult, "__post_init__", pointers_untransposed),
        (premeasurement, "PremeasurementResult", sectors_mispaired),
    ],
    ids=["images-pointers_untransposed", "premeasure-sectors_mispaired"],
)
def test_a_wrong_contraction_fails_a_run_verdict(monkeypatch, owner, method, mutant):
    # Haar bases with da == K, so that P is square and both mutants run
    rng = np.random.default_rng(21)
    spec = random_bcl_spec(rng, [2, 2, 2])
    phi = random_state(rng, spec.system_dim)
    tolerances = TOLERANCE_DEFAULTS["bcl"]
    _, verdicts, _, _ = _bcl_diagnostics(spec, phi, tolerances)
    assert all(v.passed for v in verdicts)
    monkeypatch.setattr(owner, method, mutant)
    _, verdicts, _, _ = _bcl_diagnostics(spec, phi, tolerances)
    failed = {v.name for v in verdicts if not v.passed}
    assert failed & {"reconstruction", "probability_formula"}, failed


def test_premeasure_allocates_no_system_square_array():
    # ds = 512, da = K = 8: one ds x ds complex array is 4 MiB
    rng = np.random.default_rng(512)
    spec = random_bcl_spec(rng, [64] * 8)
    phi = random_state(rng, spec.system_dim)
    result, peak = traced_peak(lambda: premeasure(spec, phi))
    assert abs(result.probabilities.sum() - 1.0) <= 1e-12
    assert peak < spec.system_dim**2 * 16, f"peak {peak / 2**20:.1f} MiB"


def runs(draw_runs):
    """Degeneracies made of runs ``(size, length)`` of equal-size sectors."""
    return [size for size, length in draw_runs for _ in range(length)]


DEGENERACIES = st.one_of(
    st.integers(1, 8).map(lambda sectors: [1] * sectors),  # all 1s: one run
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4).map(runs),  # mixed
    st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),  # all unequal
)


@settings(max_examples=60)
@given(
    degeneracies=DEGENERACIES,
    canonical=st.booleans(),  # E held as None, the identity
    transfer=st.sampled_from(["identity", "sector_unitary"]),  # "identity": T held as None
    seed=st.integers(0, 2**32 - 1),
)
def test_sector_vectors_match_the_per_sector_loop(degeneracies, canonical, transfer, seed):
    rng = np.random.default_rng(seed)
    spec = random_bcl_spec(rng, degeneracies, transfer=transfer, canonical=canonical)
    assert (spec.eigenvectors is None) == canonical
    assert (spec.transfer is None) == (transfer == "identity")
    phi = random_state(rng, spec.system_dim)
    eigenvectors, family, bounds = eigenbasis(spec), transfer_family(spec), spec.sector_bounds
    loop = np.stack(
        [
            family[:, lo:hi] @ (eigenvectors[:, lo:hi].conj().T @ phi.amplitudes)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ],
        axis=1,
    )
    assert close(premeasure(spec, phi).sector_vectors, loop)
