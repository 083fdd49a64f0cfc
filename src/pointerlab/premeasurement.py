"""Unitary premeasurement coupling a discrete system observable to a pointer.

The model follows the Beltrametti-Cassinelli-Lahti scheme: a complete
orthonormal eigenbasis of the system observable, partitioned into eigenvalue
sectors, is mapped onto a transfer family while the apparatus moves from its
ready state into the pointer state labelling the sector.  The coupling fixes
the unitary only on the subspace spanned by ``eigenvector (x) ready``
(Beltrametti, Cassinelli and Lahti, J. Math. Phys. 31, 91 (1990)), and it
has the controlled form ``U = sum_k Q_k (x) V_k``: ``Q_k = T_k E_k^dagger``
carries sector ``k`` into its transfer vectors, and the apparatus unitary
``V_k`` carries the ready state into pointer ``k``.  Everything physical is
independent of how the ``V_k`` are completed off the ready state.  ``U`` is
held as its factors and applied to a ``d_system x d_apparatus`` amplitude
matrix ``X`` as ``sum_k Q_k X V_k^T``; no product-space matrix is built.

A spec holds each of its three families as one column matrix, built and
checked once at construction: the eigenvectors ``E`` and the transfer family
``T`` in sector order, and the pointers ``P``.  One Gram product ``T^dagger T``
gives both the per-sector orthonormality check and the cross-sector residual
of the measurement condition.  Premeasurement is matrix products on these
columns: the eigenbasis coefficients are ``c = E^dagger phi`` and the sector
vectors are the per-sector column sums of ``T * c``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MeasurementConditionViolated, SpecInvalid
from .hilbert import DensityMatrix, StateVector, gram_deviation
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

    Construction copies the matrices read-only and keeps the first column of
    each sector, the eigenbasis deviation ``max |E^dagger E - I|`` and the
    measurement-condition residual ``max |T^dagger T - I|`` of the whole
    transfer family.
    """

    eigenvalues: tuple[float, ...]
    degeneracies: tuple[int, ...]
    eigenvectors: np.ndarray
    transfer: np.ndarray
    pointers: np.ndarray
    ready_state: StateVector
    sector_starts: np.ndarray = field(init=False, repr=False)
    _eigenbasis_deviation: float = field(init=False, repr=False)
    _measurement_residual: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        eigenvalues = tuple(float(o) for o in self.eigenvalues)
        degeneracies = tuple(int(d) for d in self.degeneracies)
        eigenvectors, transfer, pointers = (
            np.array(m, dtype=complex, order="C")
            for m in (self.eigenvectors, self.transfer, self.pointers)
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
        eigenbasis_dev = gram_deviation(eigenvectors)
        if eigenbasis_dev > INVARIANT_TOL:
            raise SpecInvalid(
                f"system eigenbasis is not orthonormal; deviation {eigenbasis_dev:.3e}"
            )

        if pointers.shape[0] != self.ready_state.dim:
            raise SpecInvalid("pointer states and ready state live on different dimensions")
        dev = gram_deviation(pointers)
        if dev > INVARIANT_TOL:
            raise SpecInvalid(f"pointer basis is not orthonormal; deviation {dev:.3e}")

        if transfer.shape != eigenvectors.shape:
            raise SpecInvalid(f"transfer family has shape {transfer.shape}, not that of E")
        # The diagonal blocks of the one Gram product are the per-row checks;
        # its off-diagonal blocks only matter to the measurement condition.
        residual = np.abs(transfer.conj().T @ transfer - np.eye(system_dim))
        bounds = np.cumsum([0, *degeneracies])
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            dev = float(np.max(residual[lo:hi, lo:hi]))
            if dev > INVARIANT_TOL:
                raise SpecInvalid(f"transfer row {k} is not orthonormal; deviation {dev:.3e}")

        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "degeneracies", degeneracies)
        for name, matrix in (
            ("eigenvectors", eigenvectors),
            ("transfer", transfer),
            ("pointers", pointers),
            ("sector_starts", bounds[:-1]),
        ):
            matrix.setflags(write=False)
            object.__setattr__(self, name, matrix)
        object.__setattr__(self, "_eigenbasis_deviation", eigenbasis_dev)
        object.__setattr__(self, "_measurement_residual", float(np.max(residual)))

    @property
    def system_dim(self) -> int:
        return int(self.eigenvectors.shape[0])

    @property
    def apparatus_dim(self) -> int:
        return self.ready_state.dim

    def _sector_vectors(self, columns: np.ndarray) -> tuple[tuple[StateVector, ...], ...]:
        return tuple(
            tuple(map(StateVector, sector.T))
            for sector in np.split(columns, self.sector_starts[1:], axis=1)
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

    @classmethod
    def canonical(cls, eigenvalues, degeneracies, apparatus_dim: int | None = None) -> "BclSpec":
        """Spec over canonical basis vectors, transfer family equal to the eigenbasis.

        The eigenvectors are ``e_0, e_1, ...`` in sector order, pointer ``k``
        is ``e_k`` and the ready state ``e_0``.
        """
        eigenvalues = tuple(float(o) for o in eigenvalues)
        degeneracies = tuple(int(d) for d in degeneracies)
        if len(eigenvalues) != len(degeneracies):
            raise SpecInvalid("eigenvalues and degeneracies must pair up")
        if apparatus_dim is None:
            apparatus_dim = len(eigenvalues)
        eigenvectors = np.eye(sum(degeneracies), dtype=complex)
        return cls(
            eigenvalues=eigenvalues,
            degeneracies=degeneracies,
            eigenvectors=eigenvectors,
            transfer=eigenvectors,
            pointers=np.eye(apparatus_dim, len(eigenvalues), dtype=complex),
            ready_state=StateVector.basis_state(apparatus_dim, 0),
        )

    def system_observable(self) -> np.ndarray:
        """The measured observable ``sum_k o_k P_k`` as ``(E * o) @ E^dagger``."""
        outcomes = np.repeat(self.eigenvalues, self.degeneracies)
        return (self.eigenvectors * outcomes) @ self.eigenvectors.conj().T


@dataclass(frozen=True, eq=False)
class ControlledUnitary:
    """Premeasurement unitary ``U = sum_k Q_k (x) V_k``, held as its factors.

    ``system_factors[k]`` is ``Q_k`` (``d_system x d_system``) and
    ``apparatus_factors[k]`` is ``V_k`` (``d_apparatus x d_apparatus``).
    ``deviation`` is the largest unitarity deviation ``max |M^dagger M - I|``
    over the factors ``U`` was assembled from; construction refuses one above
    ``INVARIANT_TOL``.
    """

    system_factors: np.ndarray
    apparatus_factors: np.ndarray
    deviation: float

    def __post_init__(self) -> None:
        system = np.array(self.system_factors, dtype=complex)
        apparatus = np.array(self.apparatus_factors, dtype=complex)
        if (
            system.ndim != 3
            or apparatus.ndim != 3
            or system.shape[0] != apparatus.shape[0]
            or system.shape[1] != system.shape[2]
            or apparatus.shape[1] != apparatus.shape[2]
        ):
            raise ValueError("a controlled unitary needs one square factor per side and sector")
        if not self.deviation <= INVARIANT_TOL:
            raise ValueError(f"unitary factors deviate by {self.deviation:.3e}")
        system.setflags(write=False)
        apparatus.setflags(write=False)
        object.__setattr__(self, "system_factors", system)
        object.__setattr__(self, "apparatus_factors", apparatus)
        object.__setattr__(self, "deviation", float(self.deviation))

    @property
    def dim(self) -> int:
        return int(self.system_factors.shape[1] * self.apparatus_factors.shape[1])

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix ``sum_k kron(Q_k, V_k)``, built on each call."""
        dense = np.einsum("kij,kab->iajb", self.system_factors, self.apparatus_factors)
        return dense.reshape(self.dim, self.dim)

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """``sum_k Q_k X V_k^T`` for the ``d_system x d_apparatus`` amplitude matrix ``X``."""
        evolved = self.system_factors @ amplitudes @ self.apparatus_factors.transpose(0, 2, 1)
        return evolved.sum(axis=0)


@dataclass(frozen=True, eq=False)
class PremeasurementResult:
    """Outputs of one premeasurement run.

    ``conditional_states[k]`` is the normalized system state attached to
    pointer ``k``; it is absent (``None``) when the outcome probability falls
    below the probability floor.
    """

    unitary: ControlledUnitary
    final_state: StateVector
    probabilities: np.ndarray
    conditional_states: tuple[StateVector | None, ...]

    def __post_init__(self) -> None:
        probs = np.array(self.probabilities, dtype=float).reshape(-1)
        probs = np.where(probs < 0.0, 0.0, probs)
        total_dev = abs(float(np.sum(probs)) - 1.0)
        if total_dev > INVARIANT_TOL:
            raise SpecInvalid(f"outcome probabilities sum off by {total_dev:.3e}")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "conditional_states", tuple(self.conditional_states))


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

    ``Q_k = T_k E_k^dagger`` on sector ``k``.  ``Pbar`` completes the
    pointers to a unitary and ``R`` the ready state, with the ready state as
    its first column; ``V_k = Pbar S_k R^dagger``, where ``S_k`` swaps
    columns 0 and ``k``, is unitary and carries the ready state into pointer
    ``k``.  A nonzero ``completion_seed`` re-pairs ``R``'s complement through
    a seeded Haar unitary on the complement of the ready state, a second
    valid completion to test against: the physical output never depends on
    it.  The transfer family must be orthonormal across sectors (the
    measurement condition), a statement strictly stronger than the
    per-sector check the spec runs at construction; it makes
    ``sum_k Q_k^dagger Q_k`` the identity and ``Q_k^dagger Q_l`` vanish for
    ``k != l``, so ``U`` is unitary exactly when ``E``, ``T``, ``Pbar``,
    ``R`` and every ``V_k`` are.  The largest of their deviations is the
    unitary's ``deviation``; that of ``T`` is the measurement residual.
    """
    if spec._measurement_residual > INVARIANT_TOL:
        raise MeasurementConditionViolated(
            "transfer family is not orthonormal across sectors; residual "
            f"{spec._measurement_residual:.3e}"
        )
    apparatus_dim = spec.apparatus_dim
    pointers = _complete_orthonormal(spec.pointers)
    ready = _complete_orthonormal(spec.ready_state.amplitudes[:, None])
    if completion_seed != 0:
        free = apparatus_dim - 1
        rng = np.random.default_rng(completion_seed)
        q, r = np.linalg.qr(rng.normal(size=(free, free)) + 1j * rng.normal(size=(free, free)))
        ready[:, 1:] @= q * (np.diag(r) / np.abs(np.diag(r)))
    sectors = len(spec.eigenvalues)
    # row k lists the columns of Pbar in the order of Pbar S_k
    swaps = np.tile(np.arange(apparatus_dim), (sectors, 1))
    swaps[:, 0] = np.arange(sectors)
    swaps[np.arange(1, sectors), np.arange(1, sectors)] = 0
    apparatus = pointers[:, swaps].transpose(1, 0, 2) @ ready.conj().T
    bounds = [*spec.sector_starts, spec.system_dim]
    system = np.stack(
        [
            spec.transfer[:, lo:hi] @ spec.eigenvectors[:, lo:hi].conj().T
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    )
    deviation = max(
        spec._eigenbasis_deviation,
        spec._measurement_residual,
        gram_deviation(pointers),
        gram_deviation(ready),
        gram_deviation(apparatus),
    )
    return ControlledUnitary(system, apparatus, deviation)


def premeasure(spec: BclSpec, phi: StateVector, completion_seed: int = 0) -> PremeasurementResult:
    """Run the coupling on an arbitrary system state.

    Expands ``phi`` in the eigenbasis, ``c = E^dagger phi``, sums the columns
    of ``T * c`` within each sector into the sector vectors, reads off outcome
    probabilities as their squared norms, and evolves ``phi (x) ready`` with
    the actual unitary's factors.  Sectors whose probability falls below the
    floor carry no conditional state.
    """
    if phi.dim != spec.system_dim:
        raise DimensionMismatch(
            f"initial state dim {phi.dim} does not match system dim {spec.system_dim}"
        )
    unitary = build_premeasurement_unitary(spec, completion_seed)
    final = StateVector(
        unitary.apply(np.outer(phi.amplitudes, spec.ready_state.amplitudes)).reshape(-1)
    )
    coefficients = spec.eigenvectors.conj().T @ phi.amplitudes
    sector_vectors = np.add.reduceat(spec.transfer * coefficients, spec.sector_starts, axis=1)
    probabilities = np.sum(sector_vectors.real**2 + sector_vectors.imag**2, axis=0)
    return PremeasurementResult(
        unitary=unitary,
        final_state=final,
        probabilities=probabilities,
        conditional_states=tuple(
            StateVector(sector_vectors[:, k] / np.sqrt(p)) if p >= PROBABILITY_FLOOR else None
            for k, p in enumerate(probabilities)
        ),
    )


def apparatus_marginal(result: PremeasurementResult, spec: BclSpec) -> DensityMatrix:
    """Apparatus state after the coupling: ``M^T M*`` for the amplitude matrix ``M``.

    ``M[i, a]`` is the final-state amplitude of ``|i> (x) |a>``, so summing
    over the system index traces the system out without a product-space
    projector.  The state is returned as the mixture of the columns of
    ``M^T``, one per system basis vector, each of weight one.
    """
    amplitudes = result.final_state.amplitudes.reshape(spec.system_dim, spec.apparatus_dim)
    return DensityMatrix(columns=amplitudes.T, weights=np.ones(spec.system_dim))
