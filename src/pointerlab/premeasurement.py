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

A spec holds each of its three families as one column matrix, built and
checked once at construction: the eigenvectors ``E`` and the transfer family
``T`` in sector order, and the pointers ``P``.  One Gram product ``T^dagger T``
gives both the per-sector orthonormality check and the cross-sector residual
of the measurement condition, and the eigenbasis check's ``E^dagger E`` gives
the extension residual: ``U (e_c (x) ready)`` misses ``t_c (x) pi_k(c)`` by
``sum_k T_k y_k (x) pi_k`` for ``y = (E^dagger E - I) e_c``, of norm ``||y||``
for orthonormal ``T`` and ``P``.  ``U`` is only pinned down on product inputs
``x (x) ready``, and its action there is the per-sector sums
``Q_k x = T_k c_k`` of the eigenbasis coefficients ``c = E^dagger x``, one
batched product per run of consecutive equal-size sectors (one for the whole
spec when every sector has one vector), contracted with the ``K`` pointers
``V_k ready``.  Premeasurement reads the sums of ``E^dagger phi`` as its
sector vectors, and a result is only the spec and those vectors: it derives
the outcome probabilities as their squared norms and the final state
``sum_k Q_k phi (x) pi_k`` as their contraction with the pointers, and
builds the pure state ``|psi><psi|``, the conditional states and its
``apparatus_marginal`` once for every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import DimensionMismatch, MeasurementConditionViolated, SpecInvalid
from .hilbert import DensityMatrix, StateVector, gram_residual, outer, partial_trace
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
    orthonormal within each sector.  ``pointers`` (``P``,
    ``d_apparatus x K``) holds one orthonormal apparatus state per sector and
    ``ready_state`` the apparatus state before the interaction.  Eigenvalues
    are carried as distinct finite real labels only.

    Construction copies the matrices read-only and keeps the ``K + 1`` sector
    bounds (sector ``k`` is columns ``bounds[k]:bounds[k + 1]``) and three
    residuals: ``extension_residual``, the largest column norm of
    ``E^dagger E - I``; ``measurement_residual``, ``max |T^dagger T - I|``;
    and ``unitarity_deviation``, how far the isometry is from one that
    extends to a unitary ``U``.  That is the largest of the eigenbasis
    deviation ``max |E^dagger E - I|``, the measurement residual,
    ``max |P^dagger P - I|`` and ``| <ready|ready> - 1 |``: ``U`` exists
    exactly when all four vanish.  The default transfer family is ``E``
    itself.  The spec is also the coupling: :meth:`sector_sums` applies its
    isometry, and a :class:`PremeasurementResult` contracts the sums with
    the pointers.
    """

    eigenvalues: tuple[float, ...]
    degeneracies: tuple[int, ...]
    eigenvectors: np.ndarray
    transfer: np.ndarray
    pointers: np.ndarray
    ready_state: StateVector
    sector_bounds: np.ndarray = field(init=False, repr=False)
    unitarity_deviation: float = field(init=False)
    extension_residual: float = field(init=False)
    measurement_residual: float = field(init=False)

    def __post_init__(self) -> None:
        eigenvalues = tuple(float(o) for o in self.eigenvalues)
        degeneracies = tuple(int(d) for d in self.degeneracies)
        eigenvectors, pointers = (
            np.array(m, dtype=complex, order="C") for m in (self.eigenvectors, self.pointers)
        )
        # the default family is the eigenbasis itself, kept as one array
        transfer = (
            eigenvectors
            if self.transfer is self.eigenvectors
            else np.array(self.transfer, dtype=complex, order="C")
        )

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

        columns = sum(degeneracies)
        if eigenvectors.ndim != 2 or eigenvectors.shape[1] != columns:
            raise SpecInvalid(f"degeneracies sum to {columns}, not to the eigenvector count")
        system_dim = eigenvectors.shape[0]
        if columns != system_dim:
            raise SpecInvalid(
                f"degeneracies sum to {columns} but the system dimension is {system_dim}"
            )
        eigenbasis_residual = gram_residual(eigenvectors.conj().T @ eigenvectors)
        eigenbasis_dev = float(eigenbasis_residual.max())
        if not eigenbasis_dev <= INVARIANT_TOL:
            raise SpecInvalid(
                f"system eigenbasis is not orthonormal; deviation {eigenbasis_dev:.3e}"
            )

        if pointers.shape[0] != self.ready_state.dim:
            raise SpecInvalid("pointer states and ready state live on different dimensions")
        pointer_dev = float(gram_residual(pointers.conj().T @ pointers).max())
        if not pointer_dev <= INVARIANT_TOL:
            raise SpecInvalid(f"pointer basis is not orthonormal; deviation {pointer_dev:.3e}")

        if transfer.shape != eigenvectors.shape:
            raise SpecInvalid(f"transfer family has shape {transfer.shape}, not that of E")
        # The diagonal blocks of the one Gram product are the per-row checks;
        # its off-diagonal blocks only matter to the measurement condition.
        # The default family's product is the eigenbasis check's.
        residual = (
            eigenbasis_residual
            if transfer is eigenvectors
            else gram_residual(transfer.conj().T @ transfer)
        )
        bounds = np.cumsum([0, *degeneracies])
        sector = np.repeat(np.arange(sectors), degeneracies)
        if not residual.max(where=sector[:, None] == sector, initial=0.0) <= INVARIANT_TOL:
            for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):  # name the row
                dev = float(residual[lo:hi, lo:hi].max())
                if not dev <= INVARIANT_TOL:
                    raise SpecInvalid(f"transfer row {k} is not orthonormal; deviation {dev:.3e}")

        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "degeneracies", degeneracies)
        for name, matrix in (
            ("eigenvectors", eigenvectors),
            ("transfer", transfer),
            ("pointers", pointers),
            ("sector_bounds", bounds),
        ):
            matrix.setflags(write=False)
            object.__setattr__(self, name, matrix)
        ready, measurement_dev = self.ready_state.amplitudes, float(residual.max())
        ready_dev = float(abs(np.vdot(ready, ready) - 1.0))
        for name, value in (
            ("unitarity_deviation", max(eigenbasis_dev, measurement_dev, pointer_dev, ready_dev)),
            ("extension_residual", float(np.linalg.norm(eigenbasis_residual, axis=0).max())),
            ("measurement_residual", measurement_dev),
        ):
            object.__setattr__(self, name, value)

    @property
    def system_dim(self) -> int:
        return int(self.eigenvectors.shape[0])

    @property
    def apparatus_dim(self) -> int:
        return self.ready_state.dim

    def sector_sums(self, coefficients: np.ndarray) -> np.ndarray:
        """``Q_k x_j = T_k c_jk`` for each column ``c_j = E^dagger x_j`` of a ``d_s x m`` matrix.

        Shape ``(K, m, d_s)``: entry ``[k, j]`` is ``Q_k x_j``.  A run of ``r``
        consecutive sectors of one size ``d`` takes one batched product of
        ``r`` stacked ``m x d`` and ``d x d_s`` views, with no gather copy.
        """
        count, transfer = coefficients.shape[1], self.transfer
        sums = np.empty((len(self.degeneracies), count, len(transfer)), dtype=complex)
        k = lo = 0
        for size, run in groupby(self.degeneracies):
            sectors = len(list(run))
            hi = lo + sectors * size
            np.matmul(
                coefficients[lo:hi].reshape(sectors, size, count).transpose(0, 2, 1),
                transfer[:, lo:hi].T.reshape(sectors, size, -1),
                out=sums[k : k + sectors],
            )
            k, lo = k + sectors, hi
        return sums


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

    @cached_property
    def final_density(self) -> DensityMatrix:
        """The final state as the pure state ``|psi><psi|``, built once for every consumer."""
        return outer(self.final_state)

    @cached_property
    def apparatus_marginal(self) -> DensityMatrix:
        """The apparatus state after the coupling, built once for every caller.

        It is ``M^T M^*`` for the amplitude matrix ``M[i, a]`` of ``|i> (x) |a>``,
        held as the mixture of the columns of ``M^T``, each of weight one.
        """
        dims = (self.spec.system_dim, self.spec.apparatus_dim)
        return partial_trace(self.final_density, dims, keep=1)


def premeasure(spec: BclSpec, phi: StateVector) -> PremeasurementResult:
    """Run the coupling on an arbitrary system state.

    The transfer family must be orthonormal across sectors (the measurement
    condition), which makes ``sum_k Q_k^dagger Q_k`` the identity and
    ``Q_k^dagger Q_l`` vanish for ``k != l``; a spec that breaks it has no
    unitary extension and is refused.  Expands ``phi`` in the eigenbasis,
    ``c = E^dagger phi``, takes the sector vectors ``Q_k phi = T_k c_k`` from
    the spec's sector sums, from which the result derives the outcome
    probabilities and the evolved ``phi (x) ready``.
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
    coefficients = (phi.amplitudes.conj() @ spec.eigenvectors).conj()  # E^dagger phi
    return PremeasurementResult(spec, spec.sector_sums(coefficients[:, None])[:, 0].T)
