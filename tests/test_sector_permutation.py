"""Permuting the sectors of a spec permutes what premeasurement reads off them.

A metamorphic check with no oracle (Chen, Cheung and Yiu, "Metamorphic
testing", HKUST-CS98-01, 1998).  Each sector moves with its eigenvalue, its
degeneracy, its column blocks of ``E`` and ``T`` and its pointer column.
The outcome probabilities and the columns of ``sector_vectors`` must then
move the same way, and the final state, a sum over the sectors, must stay.
The degeneracies are unequal, so the permutation moves each sector's
coefficients to other columns of the matrix ``C`` that ``premeasure``
multiplies by ``T^T``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import BclSpec, premeasure
from helpers import close, random_bcl_spec, random_state


@st.composite
def permuted_sectors(draw):
    """Unequal degeneracies and a permutation of their sectors other than the identity."""
    degeneracies = draw(
        st.lists(st.integers(1, 3), min_size=2, max_size=5).filter(lambda d: len(set(d)) > 1)
    )
    order = draw(
        st.permutations(range(len(degeneracies))).filter(lambda o: o != sorted(o))
    )
    return degeneracies, order


@settings(max_examples=60)
@given(
    case=permuted_sectors(),
    extra_apparatus=st.integers(0, 2),  # > 0 leaves K < d_pointer
    transfer=st.sampled_from(["identity", "sector_unitary"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_permuting_sectors_permutes_probabilities_and_sector_vectors(
    case, extra_apparatus, transfer, seed
):
    degeneracies, order = case
    rng = np.random.default_rng(seed)
    spec = random_bcl_spec(
        rng, degeneracies, apparatus_dim=len(degeneracies) + extra_apparatus, transfer=transfer
    )
    bounds = spec.sector_bounds
    columns = np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in order])
    eigenvectors = spec.eigenvectors[:, columns]
    permuted = BclSpec(
        eigenvalues=[spec.eigenvalues[k] for k in order],
        degeneracies=[spec.degeneracies[k] for k in order],
        eigenvectors=eigenvectors,
        transfer=None if transfer == "identity" else spec.transfer[:, columns],
        pointers=spec.pointers[:, order],
        ready_state=spec.ready_state,
    )
    phi = random_state(rng, spec.system_dim)
    base, moved = premeasure(spec, phi), premeasure(permuted, phi)
    assert close(moved.probabilities, base.probabilities[order])
    assert close(moved.sector_vectors, base.sector_vectors[:, order])
    assert close(moved.final_state.amplitudes, base.final_state.amplitudes)
