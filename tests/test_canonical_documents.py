"""Whole canonical-basis documents, drawn at random, obey the Born rule and pass.

Each draw is a ``bcl`` or ``full_measurement`` document with the canonical
bases and the default transfer family: random degeneracies, an apparatus
of ``K`` to ``K + 3`` levels, either witness and a random complex initial
state, sometimes with one amplitude scaled by 1e-7 so that its sector may
fall below the probability floor.  The document goes through validation and
``run_scenario``.  In the canonical eigenbasis sector ``k`` is the run of
coordinates ``bounds[k]:bounds[k + 1]``, so the Born rule
``p_k = ||E_k^dagger phi||^2`` is a plain sum of squared moduli of the
normalized state; each ``probability_k`` must match it within 1e-12, and
every verdict must pass at the default tolerances.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import run_scenario
from pointerlab.scenario import validate_scenario_data
from helpers import pairs


@settings(max_examples=150)
@given(
    kind=st.sampled_from(["bcl", "full_measurement"]),
    degeneracies=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    extra_apparatus=st.integers(0, 3),  # > 0 leaves K < d_pointer
    witness=st.sampled_from(["sigma_x_pattern", "system_observable"]),
    faint=st.booleans(),  # one amplitude scaled by 1e-7
    seed=st.integers(0, 2**32 - 1),
)
def test_a_canonical_document_obeys_the_born_rule_and_passes(
    kind, degeneracies, extra_apparatus, witness, faint, seed
):
    rng = np.random.default_rng(seed)
    system_dim, sectors = sum(degeneracies), len(degeneracies)
    state = rng.normal(size=system_dim) + 1j * rng.normal(size=system_dim)
    if faint:
        state[rng.integers(system_dim)] *= 1e-7
    document = {
        "scenario_kind": kind,
        "bcl": {
            "eigenvalues": [float(v) for v in rng.permutation(2 * sectors)[:sectors] - sectors],
            "degeneracies": degeneracies,
            "apparatus_dim": sectors + extra_apparatus,
            "basis": "canonical",
            "transfer_family": "default",
        },
        "initial_state": pairs(state[:, None])[0],
    }
    if kind == "full_measurement":
        document["witness"] = witness

    report = run_scenario(validate_scenario_data(document))

    weights = np.abs(state) ** 2 / np.sum(np.abs(state) ** 2)
    bounds = np.cumsum([0, *degeneracies])
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        assert abs(report.values[f"probability_{k}"] - weights[lo:hi].sum()) <= 1e-12
    assert report.all_passed, [v for v in report.verdicts if not v.passed]
