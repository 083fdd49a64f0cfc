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
``x (x) ready``, and one routine gives its action there: the per-sector sums
``Q_k x = T_k c_k`` of the eigenbasis coefficients ``c = E^dagger x``, one
batched product per run of consecutive equal-size sectors (one for the whole
spec when every sector has one vector), contracted with the ``K`` pointers
``V_k ready``.  Premeasurement reads the sums of ``E^dagger phi`` as its
sector vectors and evolves ``phi (x) ready`` from the same sums; its result
builds the pure state ``|psi><psi|``, the conditional states and its
``apparatus_marginal`` once for every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import DimensionMismatch, MeasurementConditionViolated, SpecInvalid
from .hilbert import DensityMatrix, StateVector, outer, partial_trace
from .hilbert import gram_deviation, gram_residual
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
    are carried as distinct real labels only.

    Construction copies the matrices read-only and keeps the ``K + 1`` sector
    bounds (sector ``k`` is columns ``bounds[k]:bounds[k + 1]``) and scalars
    only: the eigenbasis deviation ``max |E^dagger E - I|``, the extension
    residual (the largest column norm of ``E^dagger E - I``), the measurement
    residual ``max |T^dagger T - I|``, the pointer Gram deviation and
    ``| <ready|ready> - 1 |``.  The default transfer family is ``E`` itself.
    The spec is also the coupling: :meth:`sector_sums` and :meth:`images`
    apply its isometry.
    """

    eigenvalues: tuple[float, ...]
    degeneracies: tuple[int, ...]
    eigenvectors: np.ndarray
    transfer: np.ndarray
    pointers: np.ndarray
    ready_state: StateVector
    sector_bounds: np.ndarray = field(init=False, repr=False)
    _eigenbasis_deviation: float = field(init=False, repr=False)
    _extension_residual: float = field(init=False, repr=False)
    _measurement_residual: float = field(init=False, repr=False)
    _pointer_deviation: float = field(init=False, repr=False)
    _ready_deviation: float = field(init=False, repr=False)

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
        pointer_dev = gram_deviation(pointers)
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
        for name, value in (
            ("_eigenbasis_deviation", eigenbasis_dev),
            ("_extension_residual", float(np.linalg.norm(eigenbasis_residual, axis=0).max())),
            ("_measurement_residual", float(residual.max())),
            ("_pointer_deviation", pointer_dev),
            ("_ready_deviation", gram_deviation(self.ready_state.amplitudes[:, None])),
        ):
            object.__setattr__(self, name, value)

    @property
    def system_dim(self) -> int:
        return int(self.eigenvectors.shape[0])

    @property
    def apparatus_dim(self) -> int:
        return self.ready_state.dim

    @property
    def unitarity_deviation(self) -> float:
        """How far the isometry is from one that extends to a unitary ``U``.

        The largest of the eigenbasis deviation, the measurement-condition
        residual, the pointer Gram deviation and ``| <ready|ready> - 1 |``:
        ``U`` exists exactly when all four vanish.
        """
        return max(
            self._eigenbasis_deviation,
            self._measurement_residual,
            self._pointer_deviation,
            self._ready_deviation,
        )

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

    def images(self, sums: np.ndarray) -> np.ndarray:
        """``U (x_j (x) ready) = sum_k Q_k x_j (x) pi_k`` from :meth:`sector_sums`.

        One product contracts the sums with the pointers ``P^T``; shape ``(m, d_s, d_a)``.
        """
        sectors, count, dim = sums.shape
        return (sums.reshape(sectors, -1).T @ self.pointers.T).reshape(count, dim, -1)


@dataclass(frozen=True, eq=False)
class PremeasurementResult:
    """Outputs of one premeasurement run.

    Column ``k`` of ``sector_vectors`` (``d_system x K``) is ``sqrt(p_k)``
    times the conditional system state of pointer ``k``; sectors below the
    probability floor carry no conditional state.
    """

    final_state: StateVector
    probabilities: np.ndarray
    sector_vectors: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probabilities, dtype=float).reshape(-1)
        negative = np.flatnonzero(probs < -INVARIANT_TOL)
        if negative.size:
            k = negative[0]
            raise SpecInvalid(f"outcome probability of sector {k} is negative: {probs[k]:.3e}")
        probs = np.where(probs < 0.0, 0.0, probs)  # roundoff
        total_dev = abs(float(probs.sum()) - 1.0)
        if not total_dev <= INVARIANT_TOL:
            raise SpecInvalid(f"outcome probabilities sum off by {total_dev:.3e}")
        vectors = np.array(self.sector_vectors, dtype=complex)
        probs.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "sector_vectors", vectors)

    @cached_property
    def conditionals(self) -> tuple[np.ndarray, np.ndarray]:
        """The sectors at or above the probability floor and their conditional states, once."""
        kept = np.flatnonzero(self.probabilities >= PROBABILITY_FLOOR)
        return kept, self.sector_vectors[:, kept] / np.sqrt(self.probabilities[kept])

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
        system_dim = self.sector_vectors.shape[0]
        dims = (system_dim, self.final_state.dim // system_dim)
        return partial_trace(self.final_density, dims, keep=1)


def premeasure(spec: BclSpec, phi: StateVector) -> PremeasurementResult:
    """Run the coupling on an arbitrary system state.

    The transfer family must be orthonormal across sectors (the measurement
    condition), which makes ``sum_k Q_k^dagger Q_k`` the identity and
    ``Q_k^dagger Q_l`` vanish for ``k != l``; a spec that breaks it has no
    unitary extension and is refused.  Expands ``phi`` in the eigenbasis,
    ``c = E^dagger phi``, takes the sector vectors ``Q_k phi = T_k c_k`` from
    the spec's sector sums, reads off outcome probabilities as their squared
    norms, and evolves ``phi (x) ready`` from the same sums.
    """
    if phi.dim != spec.system_dim:
        raise DimensionMismatch(
            f"initial state dim {phi.dim} does not match system dim {spec.system_dim}"
        )
    if spec._measurement_residual > INVARIANT_TOL:
        raise MeasurementConditionViolated(
            "transfer family is not orthonormal across sectors; residual "
            f"{spec._measurement_residual:.3e}"
        )
    coefficients = (phi.amplitudes.conj() @ spec.eigenvectors).conj()  # E^dagger phi
    sums = spec.sector_sums(coefficients[:, None])
    sector_vectors = sums[:, 0].T
    return PremeasurementResult(
        final_state=StateVector(spec.images(sums).reshape(-1)),
        probabilities=(sector_vectors.real**2 + sector_vectors.imag**2).sum(axis=0),
        sector_vectors=sector_vectors,
    )

