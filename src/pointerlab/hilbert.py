"""Dense complex linear algebra on finite-dimensional Hilbert spaces.

States and operators are thin immutable wrappers around numpy arrays that
check their defining invariants once, at construction.  Unnormalized working
vectors stay plain ndarrays; only :class:`StateVector` promises unit norm.

A single tensor index convention is used everywhere: the first factor varies
slowest, exactly as ``numpy.kron`` flattens, so a bipartite amplitude index
reads ``i * dim_second + j``.  Hermitian matrices always go through numpy's
Hermitian eigensolvers (``eigvalsh``), never the general nonsymmetric path,
so spectra used in positivity and entropy checks are real by construction.
A density matrix keeps its positivity check's spectrum, read-only, for reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .tolerances import COMPARISON_TOL, ENTROPY_EIGENVALUE_FLOOR, INVARIANT_TOL

__all__ = [
    "StateVector",
    "DensityMatrix",
    "MatrixOperator",
    "ProductSpace",
    "outer",
    "partial_trace",
    "von_neumann_entropy",
    "trace_distance",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm vector of complex probability amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size == 0:
            raise ValueError("a state vector needs at least one amplitude")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > INVARIANT_TOL:
            raise ValueError(
                f"state vector norm {norm:.17g} deviates from 1 beyond {INVARIANT_TOL}"
            )
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    @classmethod
    def normalized(cls, raw) -> "StateVector":
        """Normalize a raw amplitude vector; rejects numerically null input."""
        arr = np.asarray(raw, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(arr))
        if norm < COMPARISON_TOL:
            raise ValueError("cannot normalize a numerically null vector")
        return cls(arr / norm)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        """Canonical basis vector ``e_index`` in ``dim`` dimensions."""
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def inner(self, other: "StateVector") -> complex:
        """``<self|other>`` with the bra conjugated."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"state dims {self.dim} and {other.dim} differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix entries must form a square matrix")
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > INVARIANT_TOL:
            raise ValueError(f"density matrix not Hermitian; deviation {herm_dev:.3e}")
        trace_dev = abs(complex(np.trace(mat)) - 1.0)
        if trace_dev > INVARIANT_TOL:
            raise ValueError(f"density matrix trace off by {trace_dev:.3e}")
        spectrum = np.linalg.eigvalsh(mat)
        if spectrum[0] < -INVARIANT_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {spectrum[0]:.3e}")
        object.__setattr__(self, "entries", _readonly(mat))
        object.__setattr__(self, "_spectrum", _readonly(spectrum))

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in ascending order, computed once at construction."""
        return self._spectrum


@dataclass(frozen=True, eq=False)
class MatrixOperator:
    """Square complex matrix with independently assertable flags.

    The ``hermitian`` and ``unitary`` flags are promises checked at
    construction, not properties inferred from the entries.  A unitary
    operator keeps its check's deviation ``max |U^dagger U - I|``; it is
    ``None`` for every other operator.
    """

    entries: np.ndarray
    hermitian: bool = False
    unitary: bool = False
    _unitary_deviation: float | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator entries must form a square matrix")
        if self.hermitian:
            dev = float(np.max(np.abs(mat - mat.conj().T)))
            if dev > INVARIANT_TOL:
                raise ValueError(f"hermitian flag violated; deviation {dev:.3e}")
        if self.unitary:
            dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))
            if dev > INVARIANT_TOL:
                raise ValueError(f"unitary flag violated; deviation {dev:.3e}")
            object.__setattr__(self, "_unitary_deviation", dev)
        object.__setattr__(self, "entries", _readonly(mat))

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True)
class ProductSpace:
    """Tensor bookkeeping: ordered factor dimensions of a product space."""

    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d <= 0 for d in dims):
            raise ValueError("factor dimensions must be positive integers")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return int(math.prod(self.factor_dims))


def outer(phi: StateVector) -> DensityMatrix:
    """Rank-one projector ``|phi><phi|``."""
    return DensityMatrix(np.outer(phi.amplitudes, phi.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, space: ProductSpace, keep: int) -> DensityMatrix:
    """Trace out one factor of a bipartite state.

    Parameters
    ----------
    rho:
        State on the full product space.
    space:
        Bipartite bookkeeping; ``space.dim`` must equal ``rho.dim``.
    keep:
        Index of the factor to keep, 0 (first) or 1 (second).
    """
    if len(space.factor_dims) != 2:
        raise ValueError("partial_trace is defined for bipartite spaces only")
    if rho.dim != space.dim:
        raise DimensionMismatch(
            f"state dim {rho.dim} does not match factor dims {space.factor_dims}"
        )
    d0, d1 = space.factor_dims
    blocks = rho.entries.reshape(d0, d1, d0, d1)
    if keep == 0:
        reduced = np.einsum("ijkj->ik", blocks)
    elif keep == 1:
        reduced = np.einsum("ijil->jl", blocks)
    else:
        raise ValueError("keep must be 0 or 1")
    return DensityMatrix(reduced)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy ``-sum(p ln p)`` in nats over eigenvalues above the spectral floor."""
    eigenvalues = rho.eigenvalues()
    kept = eigenvalues[eigenvalues > ENTROPY_EIGENVALUE_FLOOR]
    if kept.size == 0:
        return 0.0
    return float(max(0.0, -np.sum(kept * np.log(kept))))


def gram_deviation(columns: np.ndarray) -> float:
    """Largest entry of ``|G - I|`` for the Gram matrix ``G`` of a column matrix.

    Zero exactly when the columns are orthonormal; callers compare it against
    their own tolerance and raise their own error.
    """
    gram = columns.conj().T @ columns
    return float(np.max(np.abs(gram - np.eye(columns.shape[1]))))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """``(1/2) ||rho - sigma||_1`` via Hermitian eigenvalues of the difference."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"state dims {rho.dim} and {sigma.dim} differ")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.entries - sigma.entries))))
