"""Whole canonical-basis documents, drawn at random, obey the Born rule and pass.

Each draw is a ``bcl`` or ``full_measurement`` document with the canonical
bases and either the default transfer family or an explicit sector-wise
unitary one: random degeneracies, an apparatus of ``K`` to ``K + 3`` levels,
either witness and a random complex initial state, sometimes with one
amplitude scaled by 1e-7 so that its sector may fall below the probability
floor.  The document goes through validation and ``run_scenario``.  In the
canonical eigenbasis sector ``k`` is the run of coordinates
``bounds[k]:bounds[k + 1]``, and a sector-wise unitary transfer family keeps
each sector's norm, so the Born rule ``p_k = ||E_k^dagger phi||^2`` is a
plain sum of squared moduli of the normalized state; each ``probability_k``
must match it within 1e-12, and every verdict must pass at the default
tolerances.

The canonical bases are held as no array at all, so the same document with
``system_eigenbasis`` and ``pointer_basis`` written out as unit vectors must
give the same values, compared with ``==``, and the same verdicts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import run_scenario
from pointerlab.scenario import validate_scenario_data
from helpers import pairs, random_unitary

DOCUMENTS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["bcl", "full_measurement"]),
        "degeneracies": st.lists(st.integers(1, 3), min_size=1, max_size=4),
        "extra_apparatus": st.integers(0, 3),  # > 0 leaves K < d_pointer
        "witness": st.sampled_from(["sigma_x_pattern", "system_observable"]),
        "transfer": st.sampled_from(["default", "sector_unitary"]),
        "faint": st.booleans(),  # one amplitude scaled by 1e-7
        "seed": st.integers(0, 2**32 - 1),
    }
)


def canonical_document(case):
    """The drawn canonical-basis document and its unnormalized initial state."""
    rng = np.random.default_rng(case["seed"])
    degeneracies = case["degeneracies"]
    system_dim, sectors = sum(degeneracies), len(degeneracies)
    state = rng.normal(size=system_dim) + 1j * rng.normal(size=system_dim)
    if case["faint"]:
        state[rng.integers(system_dim)] *= 1e-7
    bcl = {
        "eigenvalues": [float(v) for v in rng.permutation(2 * sectors)[:sectors] - sectors],
        "degeneracies": degeneracies,
        "apparatus_dim": sectors + case["extra_apparatus"],
        "basis": "canonical",
        "transfer_family": "default",
    }
    if case["transfer"] == "sector_unitary":
        # sector k's block of the identity, mixed by its own unitary
        bounds = np.cumsum([0, *degeneracies])
        bcl["transfer_family"] = [
            pairs(np.eye(system_dim)[:, lo:hi] @ random_unitary(rng, hi - lo))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    document = {
        "scenario_kind": case["kind"],
        "bcl": bcl,
        "initial_state": pairs(state[:, None])[0],
    }
    if case["kind"] == "full_measurement":
        document["witness"] = case["witness"]
    return document, state


@settings(max_examples=150)
@given(case=DOCUMENTS)
def test_a_canonical_document_obeys_the_born_rule_and_passes(case):
    document, state = canonical_document(case)

    report = run_scenario(validate_scenario_data(document))

    weights = np.abs(state) ** 2 / np.sum(np.abs(state) ** 2)
    bounds = np.cumsum([0, *case["degeneracies"]])
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        assert abs(report.values[f"probability_{k}"] - weights[lo:hi].sum()) <= 1e-12
    assert report.all_passed, [v for v in report.verdicts if not v.passed]


@settings(max_examples=100)
@given(case=DOCUMENTS)
def test_a_canonical_basis_runs_as_its_explicit_unit_vectors(case):
    document, _ = canonical_document(case)
    bcl = document["bcl"]
    degeneracies, apparatus_dim = bcl["degeneracies"], bcl["apparatus_dim"]
    bounds = np.cumsum([0, *degeneracies])
    explicit = {
        **document,
        "bcl": {
            **bcl,
            "basis": {
                "system_eigenbasis": [
                    pairs(np.eye(bounds[-1])[:, lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
                ],
                "pointer_basis": pairs(np.eye(apparatus_dim, len(degeneracies))),
            },
        },
    }

    canonical, written = (
        run_scenario(validate_scenario_data(d)) for d in (document, explicit)
    )

    assert canonical.values == written.values
    assert [vars(v) for v in canonical.verdicts] == [vars(v) for v in written.verdicts]
    assert canonical.all_passed, [v for v in canonical.verdicts if not v.passed]
