"""Unitary premeasurement coupling a discrete system observable to a pointer.

The model follows the Beltrametti-Cassinelli-Lahti scheme: a complete
orthonormal eigenbasis of the system observable, partitioned into eigenvalue
sectors, is mapped onto a transfer family while the apparatus moves from its
ready state into the pointer state labelling the sector.  The coupling fixes
the unitary only on the subspace spanned by ``eigenvector (x) ready``
(Beltrametti, Cassinelli and Lahti, J. Math. Phys. 31, 91 (1990)), and it
has the controlled form ``U = sum_k Q_k (x) V_k``: ``Q_k = T_k E_k^dagger``
carries sector ``k`` into its transfer vectors, and ``V_k`` carries the
ready state into pointer ``k``.  Only that isometry is prescribed, and a run
applies nothing else: the spec is the coupling, and no completion of ``U``
is built.

A spec holds the eigenvectors ``E`` and the transfer family ``T`` in sector
order and the pointers ``P``, one column matrix each, checked once at
construction; ``None`` stands for the identity ``E`` and for the default
family ``T = E``, so no identity is stored.  The eigenbasis check's
``E^dagger E`` gives the extension residual: ``U (e_c (x) ready)`` misses
``t_c (x) pi_k(c)`` by ``sum_k T_k y_k (x) pi_k`` for
``y = (E^dagger E - I) e_c``, of norm ``||y||`` for orthonormal ``T`` and
``P``.  An explicit ``T``'s one Gram product gives its per-sector check and
the measurement condition.  ``U`` is only pinned down on product inputs
``phi (x) ready``, where its action is one matrix product: row ``k`` of a
``K x d_s`` matrix ``C`` holds sector ``k``'s eigenbasis coefficients
``c = E^dagger phi`` in place, and the columns of ``(C T^T)^T`` are the
sector vectors ``Q_k phi = T_k c_k``.  A result is only the spec and those
vectors: it derives the outcome probabilities as their squared norms and
the final state ``sum_k Q_k phi (x) pi_k`` as their contraction with the
pointers.  That state is read through its ``d_system x d_apparatus``
amplitude matrix ``B``, whose shape is the spec's: the two marginals are
the mixtures of the columns of ``B`` and of ``B^T``, built once with the
conditional states for every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MeasurementConditionViolated, SpecInvalid
from .hilbert import DensityMatrix, StateVector, gram_residual
from .tolerances import INVARIANT_TOL, PROBABILITY_FLOOR

__all__ = [
    "BclSpec",
    "PremeasurementResult",
    "premeasure",
]


@dataclass(frozen=True, eq=False)
class BclSpec:
    """Inputs of the premeasurement model, one column matrix per family.

    ``eigenvectors`` (``E``, ``d_system x d_system``) holds a complete
    orthonormal eigenbasis of the system observable in sector order: sector
    ``k`` is the next ``degeneracies[k]`` columns.  ``transfer`` (``T``, the
    same shape) holds the system states the eigenvectors are carried into,
    orthonormal within each sector; ``None`` is the identity for ``E`` and
    the default family ``E`` itself for ``T``.  ``pointers`` (``P``,
    ``d_apparatus x K``) holds one orthonormal apparatus state per sector
    and ``ready_state`` the apparatus state before the interaction.
    Eigenvalues are carried as distinct finite real labels only.

    Construction copies the given matrices read-only and keeps the ``K + 1``
    sector bounds (sector ``k`` is columns ``bounds[k]:bounds[k + 1]``) and
    three residuals: ``extension_residual``, the largest column norm of
    ``E^dagger E - I``; ``measurement_residual``, ``max |T^dagger T - I|``;
    and ``unitarity_deviation``, how far the isometry is from one that
    extends to a unitary ``U``.  That is the largest of the eigenbasis
    deviation ``max |E^dagger E - I|``, the measurement residual,
    ``max |P^dagger P - I|`` and ``| <ready|ready> - 1 |``: ``U`` exists
    exactly when all four vanish; an identity ``E`` forms no product and
    its two residuals are 0.0.  :func:`premeasure` applies the isometry.
    """

    eigenvalues: tuple[float, ...]
    degeneracies: tuple[int, ...]
    eigenvectors: np.ndarray | None
    transfer: np.ndarray | None
    pointers: np.ndarray
    ready_state: StateVector
    sector_bounds: np.ndarray = field(init=False, repr=False)
    unitarity_deviation: float = field(init=False)
    extension_residual: float = field(init=False)
    measurement_residual: float = field(init=False)

    def __post_init__(self) -> None:
        eigenvalues = tuple(float(o) for o in self.eigenvalues)
        degeneracies = tuple(int(d) for d in self.degeneracies)
        eigenvectors, transfer = (
            None if m is None else np.array(m, dtype=complex, order="C")
            for m in (self.eigenvectors, self.transfer)
        )
        pointers = np.array(self.pointers, dtype=complex, order="C")

        sectors = len(eigenvalues)
        if sectors == 0:
            raise SpecInvalid("at least one eigenvalue sector is required")
        if not np.isfinite(eigenvalues).all():
            raise SpecInvalid("eigenvalues must be finite")
        if len(set(eigenvalues)) != sectors:
            raise SpecInvalid("eigenvalues must be distinct")
        if len(degeneracies) != sectors:
            raise SpecInvalid("one eigenvector sector per eigenvalue is required")
        if pointers.ndim != 2 or pointers.shape[1] != sectors:
            raise SpecInvalid("one pointer state per eigenvalue sector is required")
        if min(degeneracies) < 1:
            raise SpecInvalid("every eigenvalue sector needs at least one eigenvector")

        bounds = np.cumsum([0, *degeneracies])
        system_dim = int(bounds[-1])
        eigenbasis_dev = extension_dev = 0.0
        if eigenvectors is not None:
            if eigenvectors.ndim != 2 or eigenvectors.shape[1] != system_dim:
                raise SpecInvalid(f"degeneracies sum to {system_dim}, not to the eigenvector count")
            if eigenvectors.shape[0] != system_dim:
                raise SpecInvalid(
                    f"degeneracies sum to {system_dim} but the system dimension is "
                    f"{eigenvectors.shape[0]}"
                )
            eigenbasis_residual = gram_residual(eigenvectors.conj().T @ eigenvectors)
            eigenbasis_dev = float(eigenbasis_residual.max())
            if not eigenbasis_dev <= INVARIANT_TOL:
                raise SpecInvalid(
                    f"system eigenbasis is not orthonormal; deviation {eigenbasis_dev:.3e}"
                )
            extension_dev = float(np.linalg.norm(eigenbasis_residual, axis=0).max())

        if pointers.shape[0] != self.ready_state.dim:
            raise SpecInvalid("pointer states and ready state live on different dimensions")
        pointer_dev = float(gram_residual(pointers.conj().T @ pointers).max())
        if not pointer_dev <= INVARIANT_TOL:
            raise SpecInvalid(f"pointer basis is not orthonormal; deviation {pointer_dev:.3e}")

        # the default family's Gram product is the eigenbasis check's
        measurement_dev = eigenbasis_dev
        if transfer is not None:
            if transfer.shape != (system_dim, system_dim):
                shape = (system_dim, system_dim)
                raise SpecInvalid(f"transfer family has shape {transfer.shape}, not {shape}")
            # The diagonal blocks of the one Gram product are the per-row checks;
            # its off-diagonal blocks only matter to the measurement condition.
            residual = gram_residual(transfer.conj().T @ transfer)
            for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                dev = float(residual[lo:hi, lo:hi].max())
                if not dev <= INVARIANT_TOL:
                    raise SpecInvalid(f"transfer row {k} is not orthonormal; deviation {dev:.3e}")
            measurement_dev = float(residual.max())

        ready = self.ready_state.amplitudes
        ready_dev = float(abs(np.vdot(ready, ready) - 1.0))
        for name, value in (
            ("eigenvalues", eigenvalues),
            ("degeneracies", degeneracies),
            ("eigenvectors", eigenvectors),
            ("transfer", transfer),
            ("pointers", pointers),
            ("sector_bounds", bounds),
            ("unitarity_deviation", max(eigenbasis_dev, measurement_dev, pointer_dev, ready_dev)),
            ("extension_residual", extension_dev),
            ("measurement_residual", measurement_dev),
        ):
            if type(value) is np.ndarray:
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def system_dim(self) -> int:
        return int(self.sector_bounds[-1])

    @property
    def apparatus_dim(self) -> int:
        return self.ready_state.dim


@dataclass(frozen=True, eq=False)
class PremeasurementResult:
    """Outputs of one premeasurement run: the spec and its sector vectors.

    Column ``k`` of ``sector_vectors`` (``d_system x K``) is ``Q_k phi``,
    ``sqrt(p_k)`` times the conditional system state of pointer ``k``;
    sectors below the probability floor carry no conditional state.
    Construction derives the outcome probabilities ``p_k = ||Q_k phi||^2``,
    refused unless they sum to one, and the final state
    ``sum_k Q_k phi (x) pi_k``, the sector vectors contracted with ``P^T``.
    """

    spec: BclSpec
    sector_vectors: np.ndarray
    probabilities: np.ndarray = field(init=False)
    final_state: StateVector = field(init=False)

    def __post_init__(self) -> None:
        spec, vectors = self.spec, np.array(self.sector_vectors, dtype=complex)
        shape = (spec.system_dim, len(spec.degeneracies))
        if vectors.shape != shape:
            raise DimensionMismatch(f"sector vectors have shape {vectors.shape}, not {shape}")
        probs = (vectors.real**2 + vectors.imag**2).sum(axis=0)
        total_dev = abs(float(probs.sum()) - 1.0)
        if not total_dev <= INVARIANT_TOL:
            raise SpecInvalid(f"outcome probabilities sum off by {total_dev:.3e}")
        probs.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "sector_vectors", vectors)
        final_state = StateVector((vectors @ spec.pointers.T).reshape(-1))
        object.__setattr__(self, "final_state", final_state)

    @cached_property
    def conditionals(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only: the sectors at or above the probability floor and their conditional states."""
        kept = np.flatnonzero(self.probabilities >= PROBABILITY_FLOOR)
        states = self.sector_vectors[:, kept] / np.sqrt(self.probabilities[kept])
        kept.setflags(write=False)
        states.setflags(write=False)
        return kept, states

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only: the final state's amplitude matrix ``B[i, a]`` of ``|i> (x) |a>``."""
        return self.final_state.amplitudes.reshape(self.spec.system_dim, self.spec.apparatus_dim)

    @cached_property
    def system_marginal(self) -> DensityMatrix:
        """The system state after the coupling, ``B B^dagger``: ``B``'s columns, of weight one."""
        return DensityMatrix(self.amplitudes, np.ones(self.spec.apparatus_dim))

    @cached_property
    def apparatus_marginal(self) -> DensityMatrix:
        """The apparatus state after the coupling, ``B^T B^*``: ``B^T``'s columns, of weight one."""
        return DensityMatrix(self.amplitudes.T, np.ones(self.spec.system_dim))


def premeasure(spec: BclSpec, phi: StateVector) -> PremeasurementResult:
    """Run the coupling on an arbitrary system state.

    The transfer family must be orthonormal across sectors (the measurement
    condition), which makes ``sum_k Q_k^dagger Q_k`` the identity and
    ``Q_k^dagger Q_l`` vanish for ``k != l``; a spec that breaks it has no
    unitary extension and is refused.  Expands ``phi`` in the eigenbasis,
    ``c = E^dagger phi`` (``phi`` itself for the identity), places each
    sector's coefficients in its own row of ``C`` and takes the sector
    vectors ``Q_k phi = T_k c_k`` as ``(C T^T)^T`` (``C^T`` when ``T`` is the
    identity), from which the result derives the outcome probabilities and
    the evolved ``phi (x) ready``.
    """
    if phi.dim != spec.system_dim:
        raise DimensionMismatch(
            f"initial state dim {phi.dim} does not match system dim {spec.system_dim}"
        )
    if spec.measurement_residual > INVARIANT_TOL:
        raise MeasurementConditionViolated(
            "transfer family is not orthonormal across sectors; residual "
            f"{spec.measurement_residual:.3e}"
        )
    coefficients, basis = phi.amplitudes, spec.eigenvectors
    if basis is not None:
        coefficients = (coefficients.conj() @ basis).conj()  # E^dagger phi
    sectors, dim = len(spec.degeneracies), spec.system_dim
    placed = np.zeros((sectors, dim), dtype=complex)
    placed[np.repeat(np.arange(sectors), spec.degeneracies), np.arange(dim)] = coefficients
    family = basis if spec.transfer is None else spec.transfer
    return PremeasurementResult(spec, (placed if family is None else placed @ family.T).T)
