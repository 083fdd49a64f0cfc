"""Deterministic objectification of a premeasurement outcome.

The entangled post-coupling state carries correlations between every system
observable and the apparatus.  Objectification keeps only the classical
correlations between conditional system states and pointer states, producing
a proper mixture (gemenge) whose decomposition is physically meaningful and
therefore stored explicitly rather than only as a density matrix.  The
diagnostics in this module quantify exactly what the non-unitary step
preserves (both marginals, every pointer-diagonal observable) and what it
erases (pointer-off-diagonal coherence, witnessed by observables that do not
commute with the measured one).  The gemenge state is held as its branch
columns ``Phi_k (x) psi_k`` with their probabilities as weights, built once
per run and handed to :func:`compare_states`.  Pointer blocks are read from
the amplitude matrices ``B_j`` of a state's columns, rotated into the
pointer basis as ``B_j P^*``, and witnesses are sums of Kronecker products
evaluated on the same ``B_j``; no product-space matrix is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisNotOrthonormal, DimensionMismatch
from .hilbert import (
    DensityMatrix,
    KroneckerSum,
    ProductSpace,
    gram_deviation,
    outer,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from .premeasurement import BclSpec, PremeasurementResult
from .tolerances import INVARIANT_TOL

__all__ = [
    "GemengeDecomposition",
    "CorrelationReport",
    "apply_rule2",
    "gemenge_density_matrix",
    "pointer_block_coherence",
    "compare_states",
    "shift_witness",
    "observable_witness",
]


@dataclass(frozen=True, eq=False)
class GemengeDecomposition:
    """Proper mixture over orthonormal system and pointer families.

    Branch ``k`` has weight ``probabilities[k]``, system state
    ``system_states[:, k]`` (``d_system x r``) and pointer state
    ``pointer_states[:, k]`` (``d_pointer x r``).
    """

    probabilities: np.ndarray
    system_states: np.ndarray
    pointer_states: np.ndarray

    def __post_init__(self) -> None:
        probabilities = np.array(self.probabilities, dtype=float).reshape(-1)
        system = np.array(self.system_states, dtype=complex)
        pointer = np.array(self.pointer_states, dtype=complex)
        if probabilities.size == 0:
            raise ValueError("a gemenge needs at least one component")
        if system.ndim != 2 or pointer.ndim != 2 or not (
            system.shape[1] == pointer.shape[1] == probabilities.size
        ):
            raise ValueError("a gemenge needs one system and one pointer column per component")
        if probabilities.min() < 0.0:
            raise ValueError("component probabilities must be nonnegative")
        total_dev = abs(float(np.sum(probabilities)) - 1.0)
        if total_dev > INVARIANT_TOL:
            raise ValueError(f"component probabilities sum off by {total_dev:.3e}")
        for label, family in (("pointer", pointer), ("system", system)):
            dev = gram_deviation(family)
            if dev > INVARIANT_TOL:
                raise BasisNotOrthonormal(
                    f"{label} states of the gemenge are not orthonormal; deviation {dev:.3e}"
                )
        for name, array in (
            ("probabilities", probabilities),
            ("system_states", system),
            ("pointer_states", pointer),
        ):
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def apply_rule2(result: PremeasurementResult, spec: BclSpec) -> GemengeDecomposition:
    """Objectify a premeasurement outcome.

    Drops every correlation except the pairing of conditional system states
    with pointer states; probabilities pass through unchanged.  The map is
    non-unitary but deterministic.  Sectors below the probability floor are
    omitted.
    """
    kept, conditionals = result.conditionals()
    return GemengeDecomposition(
        probabilities=result.probabilities[kept],
        system_states=conditionals,
        pointer_states=spec.pointers[:, kept],
    )


def gemenge_density_matrix(g: GemengeDecomposition, space: ProductSpace) -> DensityMatrix:
    """Mixed state ``sum_k p_k |b_k><b_k|`` over the branch columns ``b_k = Phi_k (x) psi_k``."""
    if len(space.factor_dims) != 2:
        raise ValueError("gemenge states live on bipartite spaces")
    if (g.system_states.shape[0], g.pointer_states.shape[0]) != space.factor_dims:
        raise DimensionMismatch("component dimensions do not match the product space")
    branches = np.einsum("ik,jk->ijk", g.system_states, g.pointer_states)
    return DensityMatrix(columns=branches.reshape(space.dim, -1), weights=g.probabilities)


def pointer_block_coherence(rho: DensityMatrix, spec: BclSpec) -> float:
    """Frobenius norm of the pointer-off-diagonal blocks of a bipartite state.

    Zero exactly when the state is block-diagonal across the pointer sectors
    of ``spec``, which is what objectification enforces.  Block ``(k, l)``
    is ``(1 (x) <pi_k|) rho (1 (x) |pi_l>) = A_k A_l^dagger``, where column
    ``j`` of ``A_k`` is column ``k`` of ``sqrt(w_j) B_j P^*``.  Its squared
    norm is ``tr(H_k H_l)`` for the ``r x r`` Gram matrices
    ``H_k = A_k^dagger A_k``; each term is nonnegative, and the ``k != l``
    terms are summed directly.  The spec has already checked the pointers
    orthonormal.
    """
    pointers = spec.pointers
    sectors = pointers.shape[1]
    blocks = rho.blocks(ProductSpace((spec.system_dim, spec.apparatus_dim)))
    rotated = (blocks @ pointers.conj()).transpose(2, 1, 0)  # A_k, stacked
    grams = (rotated.conj().transpose(0, 2, 1) @ rotated).reshape(sectors, -1)
    overlaps = (grams @ grams.conj().T).real  # tr(H_k H_l)
    off_diagonal = float(np.sum(overlaps[~np.eye(sectors, dtype=bool)]))
    return float(np.sqrt(max(off_diagonal, 0.0)))


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Preserved-versus-erased correlation diagnostics (dimensionless, nats)."""

    pointer_block_coherence_norm: float
    marginal_agreement_system: float
    marginal_agreement_apparatus: float
    witness_expectation_unitary: float
    witness_expectation_rule2: float
    entropy_unitary_state: float
    entropy_rule2_state: float

    def __post_init__(self) -> None:
        for name in (
            "pointer_block_coherence_norm",
            "marginal_agreement_system",
            "marginal_agreement_apparatus",
            "entropy_unitary_state",
            "entropy_rule2_state",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


def compare_states(
    result: PremeasurementResult,
    rho_rule2: DensityMatrix,
    spec: BclSpec,
    witness: KroneckerSum,
) -> CorrelationReport:
    """Diagnostics contrasting the unitary outcome with its objectified mixture.

    ``rho_rule2`` is the gemenge state from :func:`gemenge_density_matrix`.
    Both marginals agree between the two states; the coherence norm and the
    witness expectations ``tr(rho W)`` expose the correlations that only the
    entangled state carries.  The witness is Hermitian by construction and
    its factors must match the system and apparatus dimensions.
    """
    space = ProductSpace((spec.system_dim, spec.apparatus_dim))
    if witness.factor_dims != space.factor_dims:
        raise DimensionMismatch(
            f"witness factor dims {witness.factor_dims} do not match {space.factor_dims}"
        )

    rho_unitary = outer(result.final_state)
    return CorrelationReport(
        pointer_block_coherence_norm=pointer_block_coherence(rho_unitary, spec),
        marginal_agreement_system=trace_distance(
            partial_trace(rho_unitary, space, keep=0),
            partial_trace(rho_rule2, space, keep=0),
        ),
        marginal_agreement_apparatus=trace_distance(
            partial_trace(rho_unitary, space, keep=1),
            partial_trace(rho_rule2, space, keep=1),
        ),
        witness_expectation_unitary=witness.expectation(rho_unitary),
        witness_expectation_rule2=witness.expectation(rho_rule2),
        entropy_unitary_state=von_neumann_entropy(rho_unitary),
        entropy_rule2_state=von_neumann_entropy(rho_rule2),
    )


def _adjacent_coupling(columns: np.ndarray) -> np.ndarray:
    """``sum_i |m_i><m_{i+1}| + h.c.`` over adjacent columns of ``columns``."""
    forward = columns[:, :-1] @ columns[:, 1:].conj().T
    return forward + forward.conj().T


def shift_witness(spec: BclSpec) -> KroneckerSum:
    """Default erased-correlation witness, one Kronecker product.

    Couples adjacent eigenbasis vectors on the system and adjacent pointer
    states on the apparatus; for a qubit measured against a qubit pointer
    this is exactly ``sigma_x (x) sigma_x``, which commutes with neither the
    measured observable nor the pointer projectors.
    """
    return KroneckerSum(
        ((_adjacent_coupling(spec.eigenvectors), _adjacent_coupling(spec.pointers)),)
    )


def observable_witness(spec: BclSpec) -> KroneckerSum:
    """Witness ``O (x) I``: diagnostics that survive objectification untouched."""
    identity = np.eye(spec.apparatus_dim, dtype=complex)
    return KroneckerSum(((spec.system_observable(), identity),))
