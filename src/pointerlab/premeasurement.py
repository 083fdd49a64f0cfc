"""Unitary premeasurement coupling a discrete system observable to a pointer.

The model follows the Beltrametti-Cassinelli-Lahti scheme: a complete
orthonormal eigenbasis of the system observable, partitioned into eigenvalue
sectors, is mapped onto a transfer family while the apparatus moves from its
ready state into the pointer state labelling the sector.  The coupling fixes
the unitary only on the subspace spanned by ``eigenvector (x) ready`` (the
isometry of Beltrametti, Cassinelli and Lahti, J. Math. Phys. 31, 91 (1990));
the rest is filled by a deterministic orthonormal completion, one
complete-mode Householder QR of the fixed columns alone, and everything
physical is independent of that completion choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MeasurementConditionViolated, SpecInvalid
from .hilbert import DensityMatrix, MatrixOperator, StateVector, gram_deviation
from .tolerances import INVARIANT_TOL, PROBABILITY_FLOOR

__all__ = [
    "BclSpec",
    "ValidationReport",
    "PremeasurementResult",
    "validate_spec",
    "build_premeasurement_unitary",
    "premeasure",
    "apparatus_marginal",
]


@dataclass(frozen=True, eq=False)
class BclSpec:
    """Inputs of the premeasurement model.

    ``system_eigenbasis[k]`` lists the eigenvectors of outcome sector ``k``
    (inner index runs over the degeneracy); together the sectors form a
    complete orthonormal basis of the system space.  ``pointer_basis`` holds
    one orthonormal apparatus state per sector, ``ready_state`` the apparatus
    state before the interaction, and ``transfer_family`` the system states
    the eigenvectors are carried into (same sector shape, orthonormal within
    each sector).  Eigenvalues are carried as distinct real labels only.
    """

    eigenvalues: tuple[float, ...]
    system_eigenbasis: tuple[tuple[StateVector, ...], ...]
    pointer_basis: tuple[StateVector, ...]
    ready_state: StateVector
    transfer_family: tuple[tuple[StateVector, ...], ...]

    def __post_init__(self) -> None:
        eigenvalues = tuple(float(o) for o in self.eigenvalues)
        eigenbasis = tuple(tuple(sector) for sector in self.system_eigenbasis)
        pointers = tuple(self.pointer_basis)
        transfer = tuple(tuple(sector) for sector in self.transfer_family)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "system_eigenbasis", eigenbasis)
        object.__setattr__(self, "pointer_basis", pointers)
        object.__setattr__(self, "transfer_family", transfer)

        sectors = len(eigenvalues)
        if sectors == 0:
            raise SpecInvalid("at least one eigenvalue sector is required")
        if len(set(eigenvalues)) != sectors:
            raise SpecInvalid("eigenvalues must be distinct")
        if len(eigenbasis) != sectors:
            raise SpecInvalid("one eigenvector sector per eigenvalue is required")
        if len(pointers) != sectors:
            raise SpecInvalid("one pointer state per eigenvalue sector is required")
        if any(len(sector) == 0 for sector in eigenbasis):
            raise SpecInvalid("every eigenvalue sector needs at least one eigenvector")

        system_dim = eigenbasis[0][0].dim
        flat_basis = [v for sector in eigenbasis for v in sector]
        if any(v.dim != system_dim for v in flat_basis):
            raise SpecInvalid("system eigenvectors live on inconsistent dimensions")
        if len(flat_basis) != system_dim:
            raise SpecInvalid(
                f"degeneracies sum to {len(flat_basis)} but the system dimension is {system_dim}"
            )
        dev = gram_deviation(flat_basis)
        if dev > INVARIANT_TOL:
            raise SpecInvalid(f"system eigenbasis is not orthonormal; deviation {dev:.3e}")

        apparatus_dim = self.ready_state.dim
        if any(p.dim != apparatus_dim for p in pointers):
            raise SpecInvalid("pointer states and ready state live on different dimensions")
        dev = gram_deviation(pointers)
        if dev > INVARIANT_TOL:
            raise SpecInvalid(f"pointer basis is not orthonormal; deviation {dev:.3e}")

        if len(transfer) != sectors:
            raise SpecInvalid("transfer family must have one row per eigenvalue sector")
        for k, (eigsector, row) in enumerate(zip(eigenbasis, transfer)):
            if len(row) != len(eigsector):
                raise SpecInvalid(f"transfer row {k} has the wrong degeneracy")
            if any(v.dim != system_dim for v in row):
                raise SpecInvalid(f"transfer row {k} has vectors of the wrong dimension")
            dev = gram_deviation(row)
            if dev > INVARIANT_TOL:
                raise SpecInvalid(f"transfer row {k} is not orthonormal; deviation {dev:.3e}")

    @property
    def sector_count(self) -> int:
        return len(self.eigenvalues)

    @property
    def degeneracies(self) -> tuple[int, ...]:
        return tuple(len(sector) for sector in self.system_eigenbasis)

    @property
    def system_dim(self) -> int:
        return self.system_eigenbasis[0][0].dim

    @property
    def apparatus_dim(self) -> int:
        return self.ready_state.dim

    @classmethod
    def canonical(
        cls,
        eigenvalues,
        degeneracies,
        apparatus_dim: int | None = None,
        ready_index: int = 0,
    ) -> "BclSpec":
        """Spec over canonical basis vectors, transfer family equal to the eigenbasis."""
        eigenvalues = tuple(float(o) for o in eigenvalues)
        degeneracies = tuple(int(d) for d in degeneracies)
        if len(eigenvalues) != len(degeneracies):
            raise SpecInvalid("eigenvalues and degeneracies must pair up")
        system_dim = sum(degeneracies)
        if apparatus_dim is None:
            apparatus_dim = len(eigenvalues)
        basis: list[tuple[StateVector, ...]] = []
        index = 0
        for deg in degeneracies:
            basis.append(
                tuple(StateVector.basis_state(system_dim, index + l) for l in range(deg))
            )
            index += deg
        pointers = tuple(
            StateVector.basis_state(apparatus_dim, k) for k in range(len(eigenvalues))
        )
        return cls(
            eigenvalues=eigenvalues,
            system_eigenbasis=tuple(basis),
            pointer_basis=pointers,
            ready_state=StateVector.basis_state(apparatus_dim, ready_index),
            transfer_family=tuple(basis),
        )

    def system_observable(self) -> MatrixOperator:
        """Reconstruct the measured observable ``sum_k o_k P_k`` from its sectors."""
        matrix = np.zeros((self.system_dim, self.system_dim), dtype=complex)
        for o, sector in zip(self.eigenvalues, self.system_eigenbasis):
            for vec in sector:
                matrix += o * np.outer(vec.amplitudes, vec.amplitudes.conj())
        return MatrixOperator(matrix, hermitian=True)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Invariant residuals plus the cross-sector orthonormality verdict."""

    residuals: dict[str, float]
    measurement_condition: bool
    measurement_condition_residual: float


@dataclass(frozen=True, eq=False)
class PremeasurementResult:
    """Outputs of one premeasurement run.

    ``conditional_states[k]`` is the normalized system state attached to
    pointer ``k``; it is absent (``None``) when the outcome probability falls
    below the probability floor.
    """

    unitary: MatrixOperator
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


def validate_spec(spec: BclSpec) -> ValidationReport:
    """Report invariant residuals and check cross-sector transfer orthonormality.

    The per-sector orthonormality of the transfer family is already enforced
    at construction; the measurement condition demands the strictly stronger
    statement that the whole family is orthonormal across sectors.
    """
    flat_basis = [v for sector in spec.system_eigenbasis for v in sector]
    flat_transfer = [v for sector in spec.transfer_family for v in sector]
    residuals = {
        "completeness": float(abs(len(flat_basis) - spec.system_dim)),
        "eigenbasis_orthonormality": gram_deviation(flat_basis),
        "pointer_orthonormality": gram_deviation(spec.pointer_basis),
        "transfer_row_orthonormality": max(
            gram_deviation(row) for row in spec.transfer_family
        ),
        "pointer_count": float(abs(len(spec.pointer_basis) - spec.sector_count)),
    }
    cross_residual = gram_deviation(flat_transfer)
    return ValidationReport(
        residuals=residuals,
        measurement_condition=cross_residual <= INVARIANT_TOL,
        measurement_condition_residual=cross_residual,
    )


def _isometry_columns(spec: BclSpec) -> tuple[np.ndarray, np.ndarray]:
    """Domain columns ``e (x) ready`` and range columns ``t (x) pointer``.

    One column per eigenvector, in sector order; the premeasurement unitary
    maps each domain column onto the range column beside it.
    """
    eigvecs = np.column_stack([v.amplitudes for sector in spec.system_eigenbasis for v in sector])
    transfer = np.column_stack([v.amplitudes for sector in spec.transfer_family for v in sector])
    pointers = np.repeat(
        np.column_stack([p.amplitudes for p in spec.pointer_basis]), spec.degeneracies, axis=1
    )
    total_dim = spec.system_dim * spec.apparatus_dim
    domain = np.einsum("ic,j->ijc", eigvecs, spec.ready_state.amplitudes)
    image = np.einsum("ic,jc->ijc", transfer, pointers)
    return domain.reshape(total_dim, -1), image.reshape(total_dim, -1)


def _complete_orthonormal(columns: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full basis with one complete-mode QR.

    The leading columns of the unitary factor span ``columns`` and equal them
    up to unit phases, so they are written back verbatim; the trailing ones
    are an orthonormal basis of the complement.
    """
    basis, _ = np.linalg.qr(columns, mode="complete")
    basis[:, : columns.shape[1]] = columns
    return basis


def build_premeasurement_unitary(spec: BclSpec, completion_seed: int = 0) -> MatrixOperator:
    """Unitary extension of ``eigenvector (x) ready -> transfer (x) pointer``.

    The map is fixed on the span of the ``eigenvector (x) ready`` columns;
    domain and range are completed to full orthonormal bases and their
    complements paired in order.  A nonzero ``completion_seed`` re-pairs them
    through a seeded Haar unitary on the range complement, a second valid
    completion to test against: the physical output never depends on it.
    """
    report = validate_spec(spec)
    if not report.measurement_condition:
        raise MeasurementConditionViolated(
            "transfer family is not orthonormal across sectors; residual "
            f"{report.measurement_condition_residual:.3e}"
        )
    domain, image = _isometry_columns(spec)
    domain_full = _complete_orthonormal(domain)
    range_full = _complete_orthonormal(image)
    if completion_seed != 0:
        fixed = image.shape[1]
        free = range_full.shape[0] - fixed
        rng = np.random.default_rng(completion_seed)
        q, r = np.linalg.qr(rng.normal(size=(free, free)) + 1j * rng.normal(size=(free, free)))
        range_full[:, fixed:] @= q * (np.diag(r) / np.abs(np.diag(r)))
    return MatrixOperator(range_full @ domain_full.conj().T, unitary=True)


def premeasure(spec: BclSpec, phi: StateVector, completion_seed: int = 0) -> PremeasurementResult:
    """Run the coupling on an arbitrary system state.

    Expands ``phi`` in the eigenbasis, forms the per-sector transfer
    combinations, reads off outcome probabilities from their inner products,
    and evolves ``phi (x) ready`` with the actual unitary.  Sectors whose
    probability falls below the floor carry no conditional state.
    """
    if phi.dim != spec.system_dim:
        raise DimensionMismatch(
            f"initial state dim {phi.dim} does not match system dim {spec.system_dim}"
        )
    unitary = build_premeasurement_unitary(spec, completion_seed)
    final = StateVector(
        unitary.entries @ np.kron(phi.amplitudes, spec.ready_state.amplitudes)
    )
    probabilities = []
    conditionals: list[StateVector | None] = []
    for eigsector, row in zip(spec.system_eigenbasis, spec.transfer_family):
        sector_vec = np.zeros(spec.system_dim, dtype=complex)
        for eigvec, transfer_vec in zip(eigsector, row):
            sector_vec += np.vdot(eigvec.amplitudes, phi.amplitudes) * transfer_vec.amplitudes
        p = float(np.real(np.vdot(sector_vec, sector_vec)))
        p = max(p, 0.0)
        probabilities.append(p)
        if p >= PROBABILITY_FLOOR:
            conditionals.append(StateVector(sector_vec / np.sqrt(p)))
        else:
            conditionals.append(None)
    return PremeasurementResult(
        unitary=unitary,
        final_state=final,
        probabilities=np.array(probabilities),
        conditional_states=tuple(conditionals),
    )


def apparatus_marginal(result: PremeasurementResult, spec: BclSpec) -> DensityMatrix:
    """Apparatus state after the coupling: ``M^T M*`` for the amplitude matrix ``M``.

    ``M[i, a]`` is the final-state amplitude of ``|i> (x) |a>``, so summing
    over the system index traces the system out without a product-space
    projector.
    """
    amplitudes = result.final_state.amplitudes.reshape(spec.system_dim, spec.apparatus_dim)
    return DensityMatrix(amplitudes.T @ amplitudes.conj())
