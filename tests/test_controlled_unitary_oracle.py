"""The controlled premeasurement unitary against a dense QR completion.

The reference is the construction the factored unitary replaced: the domain
columns ``e (x) ready`` and range columns ``t (x) pointer`` are each
completed to a full orthonormal basis with one complete-mode QR, a nonzero
seed re-pairs the range complement through a Haar unitary, and
``U = range_full @ domain_full^dagger``.  The two unitaries differ off the
fixed columns, so they must agree on every ``phi (x) ready``, and in
particular on the domain images ``e_c (x) ready`` the ``extension_map``
verdict reads, whether the images are formed in one chunk or a few columns
at a time, and on the images of arbitrary product inputs.  Building the
unitary allocates no ``d_system x d_system`` array: it holds ``E`` and ``T``
as the spec's own matrices.  The sector sums, one batched product per run of
equal-size sectors, must match the per-sector loop they replaced.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import build_premeasurement_unitary, premeasure
from helpers import close, random_bcl_spec, random_state


def qr_unitary(spec, completion_seed=0):
    pointers = np.repeat(spec.pointers, spec.degeneracies, axis=1)
    total_dim = spec.system_dim * spec.apparatus_dim
    domain = np.einsum("ic,j->ijc", spec.eigenvectors, spec.ready_state.amplitudes)
    image = np.einsum("ic,jc->ijc", spec.transfer, pointers)
    domain, image = domain.reshape(total_dim, -1), image.reshape(total_dim, -1)
    completed = []
    for columns in (domain, image):
        basis, _ = np.linalg.qr(columns, mode="complete")
        basis[:, : columns.shape[1]] = columns
        completed.append(basis)
    domain_full, range_full = completed
    if completion_seed != 0:
        fixed = image.shape[1]
        free = total_dim - fixed
        rng = np.random.default_rng(completion_seed)
        q, r = np.linalg.qr(rng.normal(size=(free, free)) + 1j * rng.normal(size=(free, free)))
        range_full[:, fixed:] @= q * (np.diag(r) / np.abs(np.diag(r)))
    return range_full @ domain_full.conj().T


@settings(max_examples=40)
@given(
    degeneracies=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    extra_apparatus=st.integers(0, 2),  # > 0 leaves K < d_pointer
    transfer=st.sampled_from(["identity", "sector_unitary"]),
    chunk_rows=st.integers(1, 4),  # domain images formed per chunk
    seed=st.integers(0, 2**32 - 1),
)
def test_controlled_unitary_matches_qr_completion(
    degeneracies, extra_apparatus, transfer, chunk_rows, seed
):
    rng = np.random.default_rng(seed)
    spec = random_bcl_spec(
        rng, degeneracies, apparatus_dim=len(degeneracies) + extra_apparatus, transfer=transfer
    )
    dim = spec.system_dim * spec.apparatus_dim
    reference = qr_unitary(spec)
    domain = np.einsum("ic,j->ijc", spec.eigenvectors, spec.ready_state.amplitudes)
    expected_images = reference @ domain.reshape(dim, -1)
    ready = spec.ready_state.amplitudes
    for completion_seed in (0, 11):
        unitary = build_premeasurement_unitary(spec, completion_seed=completion_seed)
        entries = unitary.entries
        assert np.max(np.abs(entries.conj().T @ entries - np.eye(dim))) <= 1e-12
        assert unitary.deviation <= 1e-12
        # the images of e_c (x) ready from the columns of E^dagger E, in chunks of columns
        gram = spec.eigenbasis_gram
        chunks = [
            unitary.images(unitary.sector_sums(gram[:, first : first + chunk_rows]))
            for first in range(0, spec.system_dim, chunk_rows)
        ]
        images = np.concatenate(chunks).reshape(spec.system_dim, dim).T
        assert np.max(np.abs(images - expected_images)) <= 1e-12
        # the images of arbitrary product inputs x_j (x) ready, x_j = E c_j
        for count in (1, 2, 3):
            coefficients = rng.normal(size=(spec.system_dim, count)) + 1j * rng.normal(
                size=(spec.system_dim, count)
            )
            inputs = np.einsum("ij,a->jia", spec.eigenvectors @ coefficients, ready)
            expected = inputs.reshape(count, dim) @ entries.T
            computed = unitary.images(unitary.sector_sums(coefficients)).reshape(count, dim)
            assert close(computed, expected)
        for _ in range(3):
            phi = random_state(rng, spec.system_dim)
            expected = reference @ np.kron(phi.amplitudes, ready)
            coefficients = spec.eigenvectors.conj().T @ phi.amplitudes
            computed = unitary.images(unitary.sector_sums(coefficients[:, None])).reshape(-1)
            assert np.max(np.abs(computed - expected)) <= 1e-12

    phi = random_state(rng, spec.system_dim)
    base = premeasure(spec, phi, completion_seed=0).final_state.amplitudes
    other = premeasure(spec, phi, completion_seed=11).final_state.amplitudes
    assert np.max(np.abs(base - other)) <= 1e-12
    start = np.kron(phi.amplitudes, spec.ready_state.amplitudes)
    assert np.max(np.abs(other - qr_unitary(spec, 11) @ start)) <= 1e-12


def test_build_allocates_no_system_square_array():
    # ds = 512, da = K = 8: one ds x ds complex array is 4 MiB
    rng = np.random.default_rng(512)
    spec = random_bcl_spec(rng, [64] * 8)
    tracemalloc.start()
    try:
        unitary = build_premeasurement_unitary(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unitary.deviation <= 1e-12
    assert peak < spec.system_dim**2 * 16, f"peak {peak / 2**20:.1f} MiB"


def loop_sector_sums(spec, coefficients):
    """``Q_k x_j = T_k c_jk``, one product per sector: the loop the batched sums replaced."""
    bounds = spec.sector_bounds
    return np.stack(
        [
            coefficients[lo:hi].T @ spec.transfer[:, lo:hi].T
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    )


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
    count=st.integers(1, 3),
    strided=st.booleans(),  # a column block of a larger matrix, as the extension check reads
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_sector_sums_match_the_per_sector_loop(degeneracies, count, strided, seed):
    rng = np.random.default_rng(seed)
    spec = random_bcl_spec(rng, degeneracies)
    unitary = build_premeasurement_unitary(spec)
    width = count + 2 if strided else count
    shape = (spec.system_dim, width)
    matrix = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coefficients = matrix[:, 1 : 1 + count] if strided else matrix
    sums = unitary.sector_sums(coefficients)
    assert sums.shape == (len(degeneracies), count, spec.system_dim)
    assert close(sums, loop_sector_sums(spec, coefficients))


@pytest.mark.parametrize(
    "degeneracies, products",
    [((1,) * 6, 1), ((2, 2, 1, 1, 1, 3), 3), ((1, 2, 3), 3), ((2, 1, 2), 3)],
)
def test_sector_sums_take_one_product_per_run_of_equal_sectors(
    monkeypatch, degeneracies, products
):
    rng = np.random.default_rng(40)
    unitary = build_premeasurement_unitary(random_bcl_spec(rng, degeneracies))
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kw: calls.append(1) or matmul(*args, **kw))
    unitary.sector_sums(np.eye(sum(degeneracies), 2, dtype=complex))
    assert len(calls) == products
