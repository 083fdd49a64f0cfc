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
applies nothing else: ``U`` is held as its spec.  The dense
:attr:`ControlledUnitary.entries`, read by the tests, completes it with
``V_k = Pbar S_k R^dagger`` for completions ``Pbar`` and ``R`` of the
pointers and the ready state; nothing physical depends on them.

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
builds the pure state ``|psi><psi|`` and the conditional states once for
every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import DimensionMismatch, MeasurementConditionViolated, SpecInvalid
from .hilbert import DensityMatrix, ProductSpace, StateVector, outer, partial_trace
from .hilbert import gram_deviation, gram_residual
from .tolerances import INVARIANT_TOL, PROBABILITY_FLOOR

__all__ = [
    "BclSpec",
    "ControlledUnitary",
    "PremeasurementResult",
    "build_premeasurement_unitary",
    "premeasure",
    "apparatus_marginal",
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

    def _sector_vectors(self, columns: np.ndarray) -> tuple[tuple[StateVector, ...], ...]:
        return tuple(
            tuple(map(StateVector, sector.T))
            for sector in np.split(columns, self.sector_bounds[1:-1], axis=1)
        )

    @property
    def system_eigenbasis(self) -> tuple[tuple[StateVector, ...], ...]:
        """The eigenvectors as one tuple of states per sector, built on each access."""
        return self._sector_vectors(self.eigenvectors)

    @property
    def transfer_family(self) -> tuple[tuple[StateVector, ...], ...]:
        """The transfer family as one tuple of states per sector, built on each access."""
        return self._sector_vectors(self.transfer)

    @property
    def pointer_basis(self) -> tuple[StateVector, ...]:
        """The pointers as states, built on each access."""
        return tuple(map(StateVector, self.pointers.T))


@dataclass(frozen=True, eq=False)
class ControlledUnitary:
    """Premeasurement unitary ``U = sum_k Q_k (x) V_k`` of a spec, applied as its isometry.

    Only ``V_k ready = pi_k`` is prescribed on the apparatus, so a run reads
    nothing but the spec: :meth:`images` contracts the sector sums with its
    pointers.  ``completion_seed`` only selects the completion that
    :attr:`entries` builds.
    """

    spec: BclSpec
    completion_seed: int = 0

    @property
    def deviation(self) -> float:
        """How far the isometry is from one that extends to a unitary ``U``.

        The largest of the eigenbasis deviation, the measurement-condition
        residual, the pointer Gram deviation and ``| <ready|ready> - 1 |``:
        ``U`` exists exactly when all four vanish.
        """
        spec = self.spec
        return max(
            spec._eigenbasis_deviation,
            spec._measurement_residual,
            spec._pointer_deviation,
            spec._ready_deviation,
        )

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix ``sum_i kron(t_i e_i^dagger, V_k(i))``, built on each call.

        ``V_k = Pbar S_k R^dagger``: ``Pbar`` and ``R`` complete the pointers
        and the ready state to unitaries (one complete-mode QR each) and
        ``S_k`` swaps columns 0 and ``k``.  A nonzero ``completion_seed``
        re-pairs ``R``'s complement through a seeded Haar unitary, a second
        valid completion to test against.
        """
        spec = self.spec
        pointers = _complete_orthonormal(spec.pointers)
        ready = _complete_orthonormal(spec.ready_state.amplitudes[:, None])
        if self.completion_seed != 0:
            free = spec.apparatus_dim - 1
            rng = np.random.default_rng(self.completion_seed)
            q, r = np.linalg.qr(rng.normal(size=(free, free)) + 1j * rng.normal(size=(free, free)))
            ready[:, 1:] @= q * (np.diag(r) / np.abs(np.diag(r)))
        sectors = np.arange(spec.pointers.shape[1])
        order = np.tile(np.arange(len(ready)), (sectors.size, 1))  # row k orders Pbar S_k
        order[sectors, 0], order[sectors, sectors] = sectors, 0
        apparatus = (pointers[:, order].transpose(1, 0, 2) @ ready.conj().T)[
            np.repeat(sectors, spec.degeneracies)
        ]
        dense = np.einsum("ai,ci,ibd->abcd", spec.transfer, spec.eigenvectors.conj(), apparatus)
        return dense.reshape(spec.system_dim * spec.apparatus_dim, -1)

    def sector_sums(self, coefficients: np.ndarray) -> np.ndarray:
        """``Q_k x_j = T_k c_jk`` for each column ``c_j = E^dagger x_j`` of a ``d_s x m`` matrix.

        Shape ``(K, m, d_s)``: entry ``[k, j]`` is ``Q_k x_j``.  A run of ``r``
        consecutive sectors of one size ``d`` takes one batched product of
        ``r`` stacked ``m x d`` and ``d x d_s`` views, with no gather copy.
        """
        spec, count = self.spec, coefficients.shape[1]
        transfer = spec.transfer
        sums = np.empty((len(spec.degeneracies), count, len(transfer)), dtype=complex)
        k = lo = 0
        for size, run in groupby(spec.degeneracies):
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
        return (sums.reshape(sectors, -1).T @ self.spec.pointers.T).reshape(count, dim, -1)


@dataclass(frozen=True, eq=False)
class PremeasurementResult:
    """Outputs of one premeasurement run.

    Column ``k`` of ``sector_vectors`` (``d_system x K``) is ``sqrt(p_k)``
    times the conditional system state of pointer ``k``; sectors below the
    probability floor carry no conditional state.
    """

    unitary: ControlledUnitary
    final_state: StateVector
    probabilities: np.ndarray
    sector_vectors: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probabilities, dtype=float).reshape(-1)
        probs = np.where(probs < 0.0, 0.0, probs)
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

    @property
    def conditional_states(self) -> tuple[StateVector | None, ...]:
        """One conditional state per sector, ``None`` below the floor; built on each access."""
        kept, conditionals = self.conditionals
        states = dict(zip(kept, map(StateVector, conditionals.T)))
        return tuple(states.get(k) for k in range(self.probabilities.size))

    @cached_property
    def apparatus_marginal(self) -> DensityMatrix:
        """The apparatus state after the coupling, built once: see :func:`apparatus_marginal`."""
        system_dim = self.sector_vectors.shape[0]
        space = ProductSpace((system_dim, self.final_state.dim // system_dim))
        return partial_trace(self.final_density, space, keep=1)


def _complete_orthonormal(columns: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full basis with one complete-mode QR.

    The leading columns of the unitary factor span ``columns`` and equal them
    up to unit phases, so they are written back verbatim; the trailing ones
    are an orthonormal basis of the complement.
    """
    basis, _ = np.linalg.qr(columns, mode="complete")
    basis[:, : columns.shape[1]] = columns
    return basis


def build_premeasurement_unitary(spec: BclSpec, completion_seed: int = 0) -> ControlledUnitary:
    """Controlled unitary ``sum_k Q_k (x) V_k`` extending ``e (x) ready -> t (x) pointer``.

    The transfer family must be orthonormal across sectors (the measurement
    condition), which makes ``sum_k Q_k^dagger Q_k`` the identity and
    ``Q_k^dagger Q_l`` vanish for ``k != l``; a spec that breaks it has no
    unitary extension and is refused.  Nothing is factorized: a run applies
    the isometry, and only :attr:`ControlledUnitary.entries` completes ``U``,
    with the completion ``completion_seed`` selects.
    """
    if spec._measurement_residual > INVARIANT_TOL:
        raise MeasurementConditionViolated(
            "transfer family is not orthonormal across sectors; residual "
            f"{spec._measurement_residual:.3e}"
        )
    return ControlledUnitary(spec, completion_seed)


def premeasure(spec: BclSpec, phi: StateVector, completion_seed: int = 0) -> PremeasurementResult:
    """Run the coupling on an arbitrary system state.

    Expands ``phi`` in the eigenbasis, ``c = E^dagger phi``, takes the sector
    vectors ``Q_k phi = T_k c_k`` from the unitary's sector sums, reads off
    outcome probabilities as their squared norms, and evolves
    ``phi (x) ready`` from the same sums.
    """
    if phi.dim != spec.system_dim:
        raise DimensionMismatch(
            f"initial state dim {phi.dim} does not match system dim {spec.system_dim}"
        )
    unitary = build_premeasurement_unitary(spec, completion_seed)
    coefficients = (phi.amplitudes.conj() @ spec.eigenvectors).conj()  # E^dagger phi
    sums = unitary.sector_sums(coefficients[:, None])
    sector_vectors = sums[:, 0].T
    return PremeasurementResult(
        unitary=unitary,
        final_state=StateVector(unitary.images(sums).reshape(-1)),
        probabilities=(sector_vectors.real**2 + sector_vectors.imag**2).sum(axis=0),
        sector_vectors=sector_vectors,
    )


def apparatus_marginal(result: PremeasurementResult, spec: BclSpec) -> DensityMatrix:
    """Apparatus state after the coupling: ``M^T M*`` for the amplitude matrix ``M``.

    ``M[i, a]`` is the final-state amplitude of ``|i> (x) |a>``, so summing
    over the system index traces the system out without a product-space
    projector.  The state is the mixture of the columns of ``M^T``, one per
    system basis vector, each of weight one.  It is built once per result,
    so every caller shares one state and one dense matrix.
    """
    if result.final_state.dim != spec.system_dim * spec.apparatus_dim:
        raise DimensionMismatch(
            f"final state dim {result.final_state.dim} does not match the spec's product space"
        )
    return result.apparatus_marginal
