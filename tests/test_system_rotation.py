"""Rotating the system leaves a ``full_measurement`` run unchanged.

A metamorphic check with no oracle (Chen, Cheung and Yiu, "Metamorphic
testing", HKUST-CS98-01, 1998).  One Haar unitary ``V`` multiplies the
eigenbasis, an explicit transfer family and the initial state.  The
probabilities ``|<e|phi>|^2`` stay, the conditional system states and the
final state turn by ``V`` (``V (x) 1`` on the product space), and both
witnesses turn with the eigenbasis they are built from.  So every value of
the run, from premeasurement through the compare stage, must agree within
``1e-10``, and every verdict must pass or fail alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import run_scenario
from pointerlab.scenario import validate_scenario_data
from helpers import pairs, random_unitary


def sectors_of(columns, bounds):
    return [pairs(columns[:, lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def document(degeneracies, apparatus_dim, eigenbasis, transfer, pointers, state, witness):
    """An explicit-basis ``full_measurement``; ``transfer`` is ``None`` for the default family."""
    bounds = np.cumsum([0, *degeneracies])
    return {
        "scenario_kind": "full_measurement",
        "bcl": {
            "eigenvalues": [float(k) for k in range(len(degeneracies))],
            "degeneracies": degeneracies,
            "apparatus_dim": apparatus_dim,
            "basis": {
                "system_eigenbasis": sectors_of(eigenbasis, bounds),
                "pointer_basis": pairs(pointers),
            },
            "transfer_family": "default" if transfer is None else sectors_of(transfer, bounds),
        },
        "initial_state": pairs(state[:, None])[0],
        "witness": witness,
        "tolerances": {"rule2_coherence": 1e-12},
    }


@settings(max_examples=60)
@given(
    degeneracies=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    extra_apparatus=st.integers(0, 2),  # > 0 leaves K < d_pointer
    explicit_transfer=st.booleans(),
    witness=st.sampled_from(["sigma_x_pattern", "system_observable"]),
    confined=st.booleans(),  # the state lies in one sector
    seed=st.integers(0, 2**32 - 1),
)
def test_rotating_the_system_changes_no_value_and_no_verdict(
    degeneracies, extra_apparatus, explicit_transfer, witness, confined, seed
):
    rng = np.random.default_rng(seed)
    system_dim, sectors = sum(degeneracies), len(degeneracies)
    apparatus_dim = sectors + extra_apparatus
    eigenbasis = random_unitary(rng, system_dim)
    transfer = random_unitary(rng, system_dim) if explicit_transfer else None
    pointers = random_unitary(rng, apparatus_dim)[:, :sectors]
    state = rng.normal(size=system_dim) + 1j * rng.normal(size=system_dim)
    if confined:
        bounds = np.cumsum([0, *degeneracies])
        k = rng.integers(sectors)
        state = eigenbasis[:, bounds[k] : bounds[k + 1]] @ state[: degeneracies[k]]
    rotation = random_unitary(rng, system_dim)

    reports = [
        run_scenario(
            validate_scenario_data(
                document(
                    degeneracies,
                    apparatus_dim,
                    turn @ eigenbasis,
                    None if transfer is None else turn @ transfer,
                    pointers,
                    turn @ state,
                    witness,
                )
            )
        )
        for turn in (np.eye(system_dim), rotation)
    ]
    base, rotated = reports
    assert list(rotated.values) == list(base.values)
    gaps = {key: abs(rotated.values[key] - value) for key, value in base.values.items()}
    assert max(gaps.values()) <= 1e-10, gaps
    assert [(v.name, v.passed) for v in rotated.verdicts] == [
        (v.name, v.passed) for v in base.verdicts
    ]
