"""Deterministic objectification of a premeasurement outcome.

The entangled post-coupling state carries correlations between every system
observable and the apparatus.  Objectification keeps only the classical
correlations between conditional system states and pointer states, producing
a proper mixture (gemenge) whose decomposition is physically meaningful and
therefore stored explicitly rather than only as a density matrix; rule 2
(:func:`apply_rule2`) takes the pointers of the outcome's own spec, so no
other spec's pointers can be paired with its conditional states.  The
non-unitary step preserves both marginals and every pointer-diagonal
observable, and erases pointer-off-diagonal coherence, witnessed by
observables that do not commute with the measured one.  This module gives
the gemenge, its coherence norm and the two witnesses; a
``full_measurement`` run's compare stage (:mod:`pointerlab.runner`) sets
each diagnostic beside its unitary counterpart.

The gemenge state ``sum_k p_k |Phi_k><Phi_k| (x) |psi_k><psi_k|`` is held as
its Khatri-Rao factors ``p``, ``Phi`` and ``Psi`` with their Gram matrices,
and every rule-2 quantity follows from them by an exact identity, with no
product-space column (Khatri and Rao, Sankhya A 30, 167 (1968)): the branch
Gram matrix is a Hadamard product, the marginals are weighted columns of
``Phi`` or ``Psi``, and witness expectations and pointer blocks are sums
over the factors.  The unitary outcome is read through its amplitude
matrix ``B`` alone, whose shape must be the spec's: pointer blocks as
``B P^*`` and witnesses, each a Kronecker product of tridiagonal
congruences in the spec's bases, as ``E^T B^* P`` (or ``E^T B^*`` for the
observable witness, whose apparatus identity is held as its core alone).
No product-space matrix is ever built, nor the apparatus identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BasisNotOrthonormal, DimensionMismatch
from .hilbert import DensityMatrix, KroneckerProduct, gram_residual
from .premeasurement import BclSpec, PremeasurementResult
from .tolerances import GRAM_STACK_ENTRIES, INVARIANT_TOL

__all__ = [
    "GemengeDecomposition",
    "apply_rule2",
    "pointer_block_coherence",
    "shift_witness",
    "observable_witness",
]


@dataclass(frozen=True, eq=False)
class GemengeDecomposition:
    """Proper mixture over orthonormal system and pointer families.

    Branch ``k`` has weight ``probabilities[k]``, system state
    ``system_states[:, k]`` (``d_system x r``) and pointer state
    ``pointer_states[:, k]`` (``d_pointer x r``).  Construction keeps the
    Gram matrices ``system_gram`` (``Phi^dagger Phi``) and ``pointer_gram``
    (``Psi^dagger Psi``) of its orthonormality checks; the two marginals are
    built on first access.
    """

    probabilities: np.ndarray
    system_states: np.ndarray
    pointer_states: np.ndarray
    system_gram: np.ndarray = field(init=False, repr=False)
    pointer_gram: np.ndarray = field(init=False, repr=False)

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
        if not probabilities.min() >= 0.0:
            raise ValueError("component probabilities must be nonnegative")
        total_dev = abs(float(probabilities.sum()) - 1.0)
        if not total_dev <= INVARIANT_TOL:
            raise ValueError(f"component probabilities sum off by {total_dev:.3e}")
        system_gram, pointer_gram = (family.conj().T @ family for family in (system, pointer))
        for label, gram in (("pointer", pointer_gram), ("system", system_gram)):
            dev = float(gram_residual(gram).max())
            if not dev <= INVARIANT_TOL:
                raise BasisNotOrthonormal(
                    f"{label} states of the gemenge are not orthonormal; deviation {dev:.3e}"
                )
        for name, array in (
            ("probabilities", probabilities),
            ("system_states", system),
            ("pointer_states", pointer),
            ("system_gram", system_gram),
            ("pointer_gram", pointer_gram),
        ):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @cached_property
    def system_marginal(self) -> DensityMatrix:
        """``tr_A``: the columns ``Phi_k`` weighted by ``p_k ||psi_k||^2``."""
        weights = self.probabilities * self.pointer_gram.diagonal().real
        return DensityMatrix(columns=self.system_states, weights=weights)

    @cached_property
    def apparatus_marginal(self) -> DensityMatrix:
        """``tr_S``: the columns ``psi_k`` weighted by ``p_k ||Phi_k||^2``."""
        weights = self.probabilities * self.system_gram.diagonal().real
        return DensityMatrix(columns=self.pointer_states, weights=weights)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the state: those of the ``r x r`` branch Gram matrix.

        The branches ``sqrt(p_k) Phi_k (x) psi_k`` have the Gram matrix
        ``(sqrt(p) sqrt(p)^T) o (Phi^dagger Phi) o (Psi^dagger Psi)``; the
        other eigenvalues of the state are zero.
        """
        weights = np.sqrt(self.probabilities)
        return np.linalg.eigvalsh(np.outer(weights, weights) * self.system_gram * self.pointer_gram)


def apply_rule2(result: PremeasurementResult) -> GemengeDecomposition:
    """Objectify a premeasurement outcome.

    Drops every correlation except the pairing of conditional system states
    with the pointer states of the result's own spec; probabilities pass
    through unchanged.  The map is non-unitary but deterministic.  Sectors
    below the probability floor are omitted.
    """
    kept, conditionals = result.conditionals
    return GemengeDecomposition(
        probabilities=result.probabilities[kept],
        system_states=conditionals,
        pointer_states=result.spec.pointers[:, kept],
    )


def pointer_block_coherence(state: np.ndarray | GemengeDecomposition, spec: BclSpec) -> float:
    """Frobenius norm of the pointer-off-diagonal blocks of a bipartite state.

    The state is a pure state's ``d_system x d_apparatus`` amplitude matrix
    ``B`` or a gemenge; a shape other than the spec's is refused.  Zero
    exactly when the state is block-diagonal across the pointer sectors of
    ``spec``, which is what objectification enforces.  Block ``(k, l)`` is
    ``(1 (x) <pi_k|) rho (1 (x) |pi_l>) = A_k A_l^dagger``, and its squared
    norm is ``tr(H_k H_l)`` for the ``r x r`` Gram matrices
    ``H_k = A_k^dagger A_k``.  For ``B``, ``A_k`` is the one column ``k`` of
    ``B P^*``.  For a gemenge, ``A_k`` is ``Phi`` scaled by
    ``s_k = sqrt(p) * (P^dagger Psi)[k]``, so ``H_k`` is ``Phi^dagger Phi``
    scaled by ``s_k^*`` on the left and ``s_k`` on the right; its stack is
    formed in chunks of sectors.  The spec has already checked the pointers
    orthonormal.
    """
    pointers, dims = spec.pointers, (spec.system_dim, spec.apparatus_dim)
    if isinstance(state, GemengeDecomposition):
        shape = (state.system_states.shape[0], state.pointer_states.shape[0])
        if shape != dims:
            raise DimensionMismatch(f"gemenge factor dims {shape} do not match {dims}")
        scaled = (pointers.conj().T @ state.pointer_states) * np.sqrt(state.probabilities)
        chunk = max(1, GRAM_STACK_ENTRIES // state.system_gram.size)
        stacks = (
            _sandwich(scaled[lo : lo + chunk], state.system_gram)
            for lo in range(0, len(scaled), chunk)
        )
    else:
        amplitudes = np.asarray(state)
        if amplitudes.shape != dims:
            raise DimensionMismatch(
                f"amplitude matrix shape {amplitudes.shape} does not match {dims}"
            )
        rotated = (amplitudes @ pointers.conj()).T[:, :, None]  # A_k, stacked
        stacks = (rotated.conj().transpose(0, 2, 1) @ rotated,)
    return _off_block_norm(stacks)


def _sandwich(scales: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """The stack of ``diag(s^*) G diag(s)``, one per row ``s`` of ``scales``."""
    grams = scales[:, :, None].conj() * gram
    grams *= scales[:, None]
    return grams


def _off_block_norm(stacks) -> float:
    """``sqrt(sum_{k != l} tr(H_k H_l))`` over a stack of Hermitian ``H_k`` given in chunks.

    ``tr(H_k H_l)`` is the real inner product of the two matrices, read as
    real arrays.  Within a chunk the ``k != l`` terms are summed directly; a
    chunk meets the earlier ones through their running sum.  Every term is
    nonnegative, so no diagonal term is ever subtracted from a total.
    """
    total, earlier = 0.0, None
    for grams in stacks:
        flat = grams.reshape(len(grams), -1).view(float)
        overlaps = flat @ flat.T  # tr(H_k H_l)
        total += float(overlaps[~np.eye(len(grams), dtype=bool)].sum())
        summed = grams.sum(axis=0)
        if earlier is None:
            earlier = summed
        else:
            total += 2.0 * float(earlier.reshape(-1).view(float) @ summed.reshape(-1).view(float))
            earlier += summed
    return float(np.sqrt(max(total, 0.0)))


def shift_witness(spec: BclSpec) -> KroneckerProduct:
    """Default erased-correlation witness ``E (J + J^T) E^dagger (x) P (J_K + J_K^T) P^dagger``.

    Couples adjacent eigenbasis vectors on the system and adjacent pointer
    states on the apparatus, ``sum_i |m_i><m_{i+1}| + h.c.`` on each side;
    for a qubit measured against a qubit pointer this is exactly
    ``sigma_x (x) sigma_x``, which commutes with neither the measured
    observable nor the pointer projectors.
    """
    system_dim, sectors = spec.system_dim, spec.pointers.shape[1]
    return KroneckerProduct(
        system=(spec.eigenvectors, np.zeros(system_dim), np.ones(system_dim - 1)),
        apparatus=(spec.pointers, np.zeros(sectors), np.ones(sectors - 1)),
    )


def observable_witness(spec: BclSpec) -> KroneckerProduct:
    """Witness ``O (x) I``, ``O = E diag(o) E^dagger``: it survives objectification untouched.

    The apparatus factor has no basis, so ``I`` is its core alone and no
    ``d_pointer x d_pointer`` array is formed.
    """
    outcomes, dim = np.repeat(spec.eigenvalues, spec.degeneracies), spec.apparatus_dim
    return KroneckerProduct(
        system=(spec.eigenvectors, outcomes, np.zeros(len(outcomes) - 1)),
        apparatus=(None, np.ones(dim), np.zeros(dim - 1)),
    )
