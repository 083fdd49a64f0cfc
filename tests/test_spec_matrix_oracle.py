"""Column-matrix spec formulas against vector-by-vector loops.

The references walk the eigenbasis, transfer and pointer families one
column at a time, sector by sector at the spec's sector bounds: each sector vector is the sum of
``<e|phi> t`` over the sector, the observable witness the sum of
``o |e><e|`` tensored with the apparatus identity, and the shift witness
the Kronecker product of the adjacent couplings ``sum_i |m_i><m_{i+1}| +
h.c.`` of the eigenbasis and the pointers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import StateVector, observable_witness, premeasure, shift_witness
from pointerlab.tolerances import PROBABILITY_FLOOR
from helpers import (
    close,
    eigenbasis,
    kronecker_entries,
    random_bcl_spec,
    random_state,
    transfer_family,
)


def sectors(spec):
    """The column ranges of the spec's sectors."""
    bounds = spec.sector_bounds
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def loop_premeasure(spec, phi):
    probabilities, conditionals = [], []
    eigenvectors, transfer = eigenbasis(spec), transfer_family(spec)
    for sector in sectors(spec):
        sector_vec = np.zeros(spec.system_dim, dtype=complex)
        for c in sector:
            sector_vec += np.vdot(eigenvectors[:, c], phi.amplitudes) * transfer[:, c]
        p = float(np.real(np.vdot(sector_vec, sector_vec)))
        probabilities.append(p)
        conditionals.append(sector_vec / np.sqrt(p) if p >= PROBABILITY_FLOOR else None)
    return np.array(probabilities), conditionals


def loop_observable(spec):
    matrix = np.zeros((spec.system_dim, spec.system_dim), dtype=complex)
    eigenvectors = eigenbasis(spec)
    for o, sector in zip(spec.eigenvalues, sectors(spec)):
        for c in sector:
            vec = eigenvectors[:, c]
            matrix += o * np.outer(vec, vec.conj())
    return matrix


def loop_adjacent_coupling(vectors, dim):
    matrix = np.zeros((dim, dim), dtype=complex)
    for first, second in zip(vectors, vectors[1:]):
        matrix += np.outer(first, second.conj()) + np.outer(second, first.conj())
    return matrix


def loop_shift_witness(spec):
    flat_basis = [eigenbasis(spec)[:, c] for sector in sectors(spec) for c in sector]
    return np.kron(
        loop_adjacent_coupling(flat_basis, spec.system_dim),
        loop_adjacent_coupling(list(spec.pointers.T), spec.apparatus_dim),
    )


@settings(max_examples=60)
@given(
    degeneracies=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    extra_apparatus=st.integers(0, 2),  # > 0 leaves K < d_pointer
    transfer=st.sampled_from(["identity", "sector_unitary"]),
    state=st.sampled_from(["random", "first_sector"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spec_matrices_match_vector_loops(degeneracies, extra_apparatus, transfer, state, seed):
    rng = np.random.default_rng(seed)
    spec = random_bcl_spec(
        rng, degeneracies, apparatus_dim=len(degeneracies) + extra_apparatus, transfer=transfer
    )
    if state == "random":
        phi = random_state(rng, spec.system_dim)
    else:
        # every other sector then falls below the floor and has no conditional state
        phi = StateVector.normalized(eigenbasis(spec)[:, sectors(spec)[0]].sum(axis=1))

    result = premeasure(spec, phi)
    probabilities, conditionals = loop_premeasure(spec, phi)
    assert close(result.probabilities, probabilities)
    kept, states = result.conditionals
    assert kept.tolist() == [k for k, reference in enumerate(conditionals) if reference is not None]
    for k, conditional in zip(kept, states.T):
        assert close(conditional, conditionals[k])

    observable = np.kron(loop_observable(spec), np.eye(spec.apparatus_dim))
    assert close(kronecker_entries(observable_witness(spec)), observable)
    assert close(kronecker_entries(shift_witness(spec)), loop_shift_witness(spec))
