"""Every value of a ``full_measurement`` run against dense ``D x D`` numpy formulas.

Each example draws an explicit-basis document: a Haar eigenbasis and a Haar
pointer basis, random degeneracies with ``system_dim <= 8``, an
``apparatus_dim`` from ``K`` to ``K + 2``, either witness, the default
transfer family or an explicit one that rotates each sector by its own
Haar unitary, and a random complex initial state.  The document runs
through ``validate_scenario_data`` and ``run_scenario``, and every value
key, each ``probability_k`` and the nine comparison keys, must agree to
``1e-10`` absolute with :func:`dense_values`.

The oracle reads the document's own lists with numpy alone, and the dense
references of ``helpers``, which never call ``pointerlab``.  It builds the
final state ``psi = sum_k T_k E_k^dagger phi (x) pi_k`` and ``|psi><psi|``,
the gemenge ``sum_k |Q_k phi><Q_k phi| (x) |pi_k><pi_k|`` over the sectors
at or above the probability floor, each witness as the dense operator its
README definition names, the pointer coherence as the Frobenius norm of the
off-diagonal pointer blocks ``(1 (x) |pi_k><pi_k|) rho (1 (x) |pi_l><pi_l|)``,
and the entropies and trace distances from ``eigvalsh``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import run_scenario
from pointerlab.scenario import validate_scenario_data
from pointerlab.tolerances import PROBABILITY_FLOOR
from helpers import dense_coherence, dense_entropy, dense_partial_trace, dense_trace_distance

TOL = 1e-10
COMPARISON_KEYS = (
    "pointer_coherence_unitary",
    "pointer_coherence_rule2",
    "witness_expectation_unitary",
    "witness_expectation_rule2",
    "entropy_unitary",
    "entropy_rule2",
    "entropy_expected",
    "trace_distance_system_marginal",
    "trace_distance_apparatus_marginal",
)


def haar(rng, n):
    """A Haar-random unitary: the QR factor of a complex Gaussian, its phases fixed."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pair_list(vector):
    return [[float(z.real), float(z.imag)] for z in vector]


def by_sector(columns, degeneracies):
    bounds = np.cumsum([0, *degeneracies])
    return [
        [pair_list(column) for column in columns[:, lo:hi].T]
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


@st.composite
def documents(draw):
    system_dim = draw(st.integers(1, 8))
    cuts = sorted(draw(st.sets(st.integers(1, system_dim - 1))) if system_dim > 1 else [])
    degeneracies = np.diff([0, *cuts, system_dim]).tolist()
    sectors = len(degeneracies)
    apparatus_dim = sectors + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eigenbasis, pointer_basis = haar(rng, system_dim), haar(rng, apparatus_dim)
    basis = {
        "system_eigenbasis": by_sector(eigenbasis, degeneracies),
        "pointer_basis": [pair_list(column) for column in pointer_basis[:, :sectors].T],
    }
    if draw(st.booleans()):  # else the ready state is the first pointer
        basis["ready_state"] = pair_list(pointer_basis[:, -1])
    transfer = "default"
    if draw(st.booleans()):
        bounds = np.cumsum([0, *degeneracies])
        family = np.concatenate(
            [
                eigenbasis[:, lo:hi] @ haar(rng, hi - lo)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ],
            axis=1,
        )
        transfer = by_sector(family, degeneracies)
    return {
        "scenario_kind": "full_measurement",
        "bcl": {
            "eigenvalues": sorted(rng.normal(size=sectors).tolist()),
            "degeneracies": degeneracies,
            "apparatus_dim": apparatus_dim,
            "basis": basis,
            "transfer_family": transfer,
        },
        "initial_state": rng.normal(size=(system_dim, 2)).tolist(),
        "witness": draw(st.sampled_from(["sigma_x_pattern", "system_observable"])),
    }


def complex_columns(vectors):
    return np.array([[complex(re, im) for re, im in vector] for vector in vectors]).T


def shift(n):
    """``J + J^T`` for the shift ``J`` on ``n`` levels: ones beside the diagonal."""
    return np.eye(n, k=1) + np.eye(n, k=-1)


def dense_values(document, floor):
    """The run's values from the document's lists, with numpy alone.

    ``floor`` is the probability below which a sector has no conditional
    state and leaves the gemenge.
    """
    bcl = document["bcl"]
    degeneracies, da = bcl["degeneracies"], bcl["apparatus_dim"]
    basis, transfer = bcl["basis"], bcl["transfer_family"]
    eigenbasis = complex_columns([v for sector in basis["system_eigenbasis"] for v in sector])
    family = eigenbasis
    if transfer != "default":
        family = complex_columns([v for sector in transfer for v in sector])
    pointers = complex_columns(basis["pointer_basis"])
    phi = complex_columns([document["initial_state"]])[:, 0]
    phi = phi / np.linalg.norm(phi)
    ds = phi.size

    bounds = np.cumsum([0, *degeneracies])
    images = [  # Q_k phi = T_k E_k^dagger phi
        family[:, lo:hi] @ (eigenbasis[:, lo:hi].conj().T @ phi)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    probabilities = np.array([np.vdot(image, image).real for image in images])
    psi = sum(np.kron(image, pointer) for image, pointer in zip(images, pointers.T))
    unitary = np.outer(psi, psi.conj())
    rule2 = sum(
        np.outer(branch, branch.conj())
        for branch in (
            np.kron(image, pointer)
            for image, pointer, p in zip(images, pointers.T, probabilities)
            if p >= floor
        )
    )

    if document["witness"] == "sigma_x_pattern":
        witness = np.kron(
            eigenbasis @ shift(ds) @ eigenbasis.conj().T,
            pointers @ shift(len(degeneracies)) @ pointers.conj().T,
        )
    else:
        outcomes = np.repeat(bcl["eigenvalues"], degeneracies)
        witness = np.kron(eigenbasis @ np.diag(outcomes) @ eigenbasis.conj().T, np.eye(da))

    nonzero = probabilities[probabilities > 0.0]
    values = {f"probability_{k}": p for k, p in enumerate(probabilities)}
    values.update(
        {
            "pointer_coherence_unitary": dense_coherence(unitary, pointers, ds),
            "pointer_coherence_rule2": dense_coherence(rule2, pointers, ds),
            "witness_expectation_unitary": np.trace(unitary @ witness).real,
            "witness_expectation_rule2": np.trace(rule2 @ witness).real,
            "entropy_unitary": dense_entropy(unitary),
            "entropy_rule2": dense_entropy(rule2),
            "entropy_expected": float(-np.sum(nonzero * np.log(nonzero))),
            "trace_distance_system_marginal": dense_trace_distance(
                dense_partial_trace(unitary, ds, da, 0), dense_partial_trace(rule2, ds, da, 0)
            ),
            "trace_distance_apparatus_marginal": dense_trace_distance(
                dense_partial_trace(unitary, ds, da, 1), dense_partial_trace(rule2, ds, da, 1)
            ),
        }
    )
    return values


@settings(max_examples=40)
@given(document=documents())
def test_every_value_matches_the_dense_formulas(document):
    values = run_scenario(validate_scenario_data(document)).values
    reference = dense_values(document, PROBABILITY_FLOOR)
    sectors = len(document["bcl"]["degeneracies"])
    assert list(values) == [f"probability_{k}" for k in range(sectors)] + list(COMPARISON_KEYS)
    for key, expected in reference.items():
        assert abs(values[key] - expected) <= TOL, (key, values[key], expected)
