"""Complex linear algebra on finite-dimensional Hilbert spaces.

States and operators are thin immutable wrappers around numpy arrays that
check their defining invariants once, at construction.  Unnormalized working
vectors stay plain ndarrays; only :class:`StateVector` promises unit norm.

A single tensor index convention is used everywhere: the first factor varies
slowest, exactly as ``numpy.kron`` flattens, so a bipartite amplitude index
reads ``i * dim_second + j``.  Hermitian matrices always go through numpy's
Hermitian eigensolver ``eigvalsh``, never the general nonsymmetric path, so
spectra are real by construction.

A density matrix is held as a weighted mixture ``sum_j w_j |v_j><v_j|`` of
``r`` columns, never as a ``dim x dim`` array: a pure state is one column and
a reduced state one column per vector of its mixture (Hughston, Jozsa and
Wootters, Phys. Lett. A 183, 14 (1993)).  One routine gives the eigenvalues
of a mixture ``V diag(s) V^dagger`` with real weights of either sign: those
of ``R diag(s) R^dagger`` for the triangular QR factor ``R`` of ``V`` when
there are fewer columns than dimensions, otherwise those of the ``dim x
dim`` matrix.  A state's spectrum and the trace distance of two states, the
mixture of both column sets with weights ``[w_rho, -w_sigma]``, both come
from it, so neither forms a matrix larger than ``min(dim, r)`` square.  On a
bipartite space each column is read as its ``d_first x d_second`` amplitude
matrix ``B_j``, so partial traces and expectations of Kronecker products are
matrix products on the ``B_j``.  A partial trace is itself returned as a
mixture, of the weighted ``B_j`` columns (or rows), so no reduced state is
formed densely.  A bipartite shape is the plain pair ``(d_first, d_second)``
of factor dims.  A :class:`KroneckerProduct` is held as two congruences
``M T M^dagger`` with real symmetric tridiagonal cores ``T`` and read on each
``B_j`` as ``M^T B_j^* N``, so no factor is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .tolerances import COMPARISON_TOL, ENTROPY_EIGENVALUE_FLOOR, INVARIANT_TOL

__all__ = [
    "StateVector",
    "DensityMatrix",
    "KroneckerProduct",
    "outer",
    "partial_trace",
    "von_neumann_entropy",
    "spectral_entropy",
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
        if not abs(norm - 1.0) <= INVARIANT_TOL:
            raise ValueError(
                f"state vector norm {norm:.17g} deviates from 1 beyond {INVARIANT_TOL}"
            )
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    @classmethod
    def normalized(cls, raw) -> "StateVector":
        """Normalize a raw amplitude vector; rejects numerically null or non-finite input.

        The vector is first divided by its largest modulus ``m``, so the norm
        ``m * ||a / m||`` of finite input never overflows, nor does ``1 / m``:
        a vector with ``m sqrt(n)`` under the tolerance is never divided.
        """
        arr = np.asarray(raw, dtype=complex).reshape(-1)
        scale = float(np.abs(arr).max(initial=0.0))
        if not np.isfinite(scale):  # refused before inf / inf warns
            raise ValueError("cannot normalize a non-finite vector")
        unit = arr / scale if scale * arr.size**0.5 >= COMPARISON_TOL else arr
        unit_norm = float(np.linalg.norm(unit))
        if not scale * unit_norm >= COMPARISON_TOL:
            raise ValueError("cannot normalize a numerically null vector")
        return cls(unit / unit_norm)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive-semidefinite matrix ``sum_j w_j |v_j><v_j|``, held as its mixture.

    ``columns`` holds the vectors ``v_j`` (``dim x r``) and ``weights`` the
    ``w_j``; the mixture is positive semidefinite exactly when every weight
    is nonnegative.  Columns of weight zero are dropped.
    """

    columns: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        columns = np.array(self.columns, dtype=complex)
        weights = np.array(self.weights, dtype=float).reshape(-1)
        if columns.ndim != 2 or columns.shape[1] != weights.size:
            raise ValueError("a mixture needs a column matrix and one weight per column")
        if weights.size and not weights.min() >= 0.0:
            raise ValueError(f"mixture has negative weight {weights.min():.3e}")
        kept = weights > 0.0
        if not kept.all():
            columns, weights = columns[:, kept], weights[kept]
        trace = float(np.vdot(columns, columns * weights).real)
        if not abs(trace - 1.0) <= INVARIANT_TOL:
            raise ValueError(f"density matrix trace off by {abs(trace - 1.0):.3e}")
        object.__setattr__(self, "columns", _readonly(columns))
        object.__setattr__(self, "weights", _readonly(weights))

    @property
    def dim(self) -> int:
        return int(self.columns.shape[0])

    @cached_property
    def _spectrum(self) -> np.ndarray:
        spectrum = _mixture_spectrum(self.columns, self.weights)
        return _readonly(np.sort(np.concatenate((np.zeros(self.dim - spectrum.size), spectrum))))

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in ascending order, read-only and computed once.

        The eigenvalues of ``(V * w) @ V^dagger`` from :func:`_mixture_spectrum`:
        with fewer columns than dimensions, the ``r`` of ``R w R^dagger`` padded
        with ``dim - r`` exact zeros.
        """
        return self._spectrum

    def blocks(self, dims: tuple[int, int]) -> np.ndarray:
        """Weighted amplitude matrices ``sqrt(w_j) B_j``, shape ``(r, *dims)`` for positive dims."""
        if len(dims) != 2 or min(dims) < 1 or dims[0] * dims[1] != self.dim:
            raise DimensionMismatch(f"state dim {self.dim} does not match factor dims {dims}")
        return (self.columns * np.sqrt(self.weights)).T.reshape(-1, *dims)


def _tridiagonal_apply(diagonal: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``T x`` along the last axis of ``x`` for the symmetric tridiagonal ``T = (d, e)``."""
    out = x * diagonal
    out[..., :-1] += off * x[..., 1:]
    out[..., 1:] += off * x[..., :-1]
    return out


@dataclass(frozen=True, eq=False)
class KroneckerProduct:
    """Hermitian operator ``(M T M^dagger) (x) (N S N^dagger)`` on a bipartite space.

    ``system`` is ``(M, d, e)`` and ``apparatus`` ``(N, d, e)``: a column matrix
    and the real symmetric tridiagonal core on its ``r`` columns, with diagonal
    ``d`` and off-diagonal ``e``.  Construction checks only the lengths ``r`` and
    ``r - 1`` and refuses a complex or non-finite core; the column matrices are
    read-only views.
    """

    system: tuple[np.ndarray, np.ndarray, np.ndarray]
    apparatus: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        for name in ("system", "apparatus"):
            basis, diagonal, off = getattr(self, name)
            if np.iscomplexobj(diagonal) or np.iscomplexobj(off):
                raise ValueError("a Kronecker core must be real")
            basis = np.asarray(basis, dtype=complex).view()
            diagonal, off = np.array(diagonal, dtype=float), np.array(off, dtype=float)
            rank = basis.shape[1] if basis.ndim == 2 else -1
            if diagonal.shape != (rank,) or off.shape != (rank - 1,):
                raise ValueError("a Kronecker core needs r diagonal and r - 1 off-diagonal entries")
            if not (np.isfinite(diagonal).all() and np.isfinite(off).all()):
                raise ValueError("a Kronecker core must be finite")
            object.__setattr__(self, name, (_readonly(basis), _readonly(diagonal), _readonly(off)))

    @property
    def factor_dims(self) -> tuple[int, int]:
        return (self.system[0].shape[0], self.apparatus[0].shape[0])

    def expectation(self, rho: DensityMatrix) -> float:
        """``tr(rho W) = sum_j w_j <T C_j, C_j S>`` for ``C_j = M^T B_j^* N``."""
        (system, *system_core), (apparatus, *apparatus_core) = self.system, self.apparatus
        # C_j conjugates M^dagger B_j N^*, the same value for real cores: only B_j is conjugated
        rotated = system.T @ rho.blocks(self.factor_dims).conj() @ apparatus
        left = _tridiagonal_apply(*system_core, rotated.swapaxes(1, 2)).swapaxes(1, 2)
        return float(np.vdot(left, _tridiagonal_apply(*apparatus_core, rotated)).real)

    def product_expectation(self, weights, first, second) -> float:
        """``tr(rho W)`` for ``rho = sum_j w_j |f_j><f_j| (x) |s_j><s_j|``, from its factors.

        ``first`` holds the ``f_j`` and ``second`` the ``s_j`` as columns; the
        value is ``sum_j w_j <f_j|M T M^dagger|f_j> <s_j|N S N^dagger|s_j>``,
        each form read on the row ``f_j^dagger M``, so only columns are conjugated.
        Factors whose rows do not match :attr:`factor_dims`, or whose column
        counts differ from each other or from the weights, are refused.
        """
        terms, first, second = np.asarray(weights), np.asarray(first), np.asarray(second)
        rows = (first.shape[0], second.shape[0]) if first.ndim == second.ndim == 2 else None
        if rows != self.factor_dims:
            raise DimensionMismatch(
                f"factor shapes {first.shape} and {second.shape} do not match {self.factor_dims}"
            )
        if not (first.shape[1] == second.shape[1] and terms.shape == (first.shape[1],)):
            raise DimensionMismatch(
                f"{first.shape[1]} and {second.shape[1]} factor columns for weights {terms.shape}"
            )
        for (basis, *core), columns in ((self.system, first), (self.apparatus, second)):
            rows = columns.conj().T @ basis
            terms = terms * (rows.conj() * _tridiagonal_apply(*core, rows)).sum(axis=1)
        return float(terms.sum().real)


def outer(phi: StateVector) -> DensityMatrix:
    """Rank-one projector ``|phi><phi|``: one column of weight one."""
    return DensityMatrix(columns=phi.amplitudes[:, None], weights=np.ones(1))


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: int) -> DensityMatrix:
    """Trace a state on the factor dims ``dims`` down to factor ``keep`` (0 or 1), as a mixture.

    Keeping the first factor gives ``sum_j w_j B_j B_j^dagger``, keeping the
    second ``sum_j w_j B_j^T B_j^*``.  Either is returned without a matrix
    product: its columns are those of the stacked weighted amplitude
    matrices ``sqrt(w_j) B_j`` (or ``sqrt(w_j) B_j^T``), each of weight one.
    """
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    factor = np.moveaxis(rho.blocks(dims), keep + 1, 0).reshape(dims[keep], -1)
    return DensityMatrix(columns=factor, weights=np.ones(factor.shape[1]))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy ``-sum(p ln p)`` in nats over eigenvalues above the spectral floor."""
    return spectral_entropy(rho.eigenvalues())


def spectral_entropy(eigenvalues: np.ndarray) -> float:
    """``-sum(p ln p)`` in nats over the eigenvalues ``p`` of a state above the spectral floor."""
    kept = eigenvalues[eigenvalues > ENTROPY_EIGENVALUE_FLOOR]
    if kept.size == 0:
        return 0.0
    return float(max(0.0, -(kept * np.log(kept)).sum()))


def gram_residual(gram: np.ndarray) -> np.ndarray:
    """``|G - I|`` entrywise for a Gram matrix ``G``; ``G`` is left unchanged and not copied."""
    residual = np.abs(gram)
    residual.flat[:: len(gram) + 1] = np.abs(gram.diagonal() - 1.0)
    return residual


def gram_deviation(columns: np.ndarray) -> float:
    """Largest entry of :func:`gram_residual` for the Gram matrix of ``columns``.

    Zero exactly when the columns are orthonormal; callers compare it against
    their own tolerance and raise their own error.
    """
    return float(gram_residual(columns.conj().T @ columns).max())


def _mixture_spectrum(columns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``V diag(s) V^dagger`` for real weights ``s`` of either sign.

    ``eigvalsh`` runs on the smaller of two matrices.  With fewer columns
    than rows, ``V = Q R`` for orthonormal ``Q``, so the matrix is unitarily
    similar to ``R diag(s) R^dagger`` padded with zeros and only the ``r``
    eigenvalues of that ``r x r`` matrix are returned (Golub and Van Loan,
    *Matrix Computations*, section 5.2); otherwise all ``dim`` of
    ``(V * s) @ V^dagger``.
    """
    dim, rank = columns.shape
    factor = np.linalg.qr(columns, mode="r") if rank < dim else columns
    return np.linalg.eigvalsh((factor * weights) @ factor.conj().T)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """``(1/2) ||rho - sigma||_1``, from the spectrum of the mixture ``[V_rho, V_sigma]``.

    The difference is one mixture with weights ``[w_rho, -w_sigma]``, so
    :func:`_mixture_spectrum` diagonalizes it in the joint column span, at
    most ``r_rho + r_sigma`` square, without the dense matrix of either state.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"state dims {rho.dim} and {sigma.dim} differ")
    difference = _mixture_spectrum(
        np.concatenate((rho.columns, sigma.columns), axis=1),
        np.concatenate((rho.weights, -sigma.weights)),
    )
    return float(0.5 * np.abs(difference).sum())
