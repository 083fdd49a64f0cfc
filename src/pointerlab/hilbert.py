"""Complex linear algebra on finite-dimensional Hilbert spaces.

States and operators are thin immutable wrappers around numpy arrays that
check their defining invariants once, at construction.  Unnormalized working
vectors stay plain ndarrays; only :class:`StateVector` promises unit norm.

A single tensor index convention is used everywhere: the first factor varies
slowest, exactly as ``numpy.kron`` flattens, so a bipartite amplitude index
reads ``i * dim_second + j``.  Hermitian matrices always go through numpy's
Hermitian eigensolvers (``eigh``, ``eigvalsh``), never the general
nonsymmetric path, so spectra are real by construction.

A density matrix is held as a weighted mixture ``sum_j w_j |v_j><v_j|`` of
``r`` columns, never as a ``dim x dim`` array: a pure state is one column and
a reduced state one column per vector of its mixture (Hughston, Jozsa and
Wootters, Phys. Lett. A 183, 14 (1993)).  One routine gives the eigenvalues
of a mixture ``V diag(s) V^dagger`` with real weights of either sign: those
of ``R diag(s) R^dagger`` for the triangular QR factor ``R`` of ``V`` when
there are fewer columns than dimensions, otherwise those of the ``dim x
dim`` matrix.  A state's spectrum and the trace distance of two states, the
mixture of both column sets with weights ``[w_rho, -w_sigma]``, both come
from it, so neither forms a matrix larger than ``min(dim, r)`` square and
neither reads :attr:`DensityMatrix.entries`.  On a bipartite space each
column is read as its ``d_first x d_second`` amplitude matrix ``B_j``, so
partial traces and expectations of Kronecker products are matrix products on
the ``B_j``.  A partial trace is itself returned as a mixture, of the
weighted ``B_j`` columns (or rows), so no reduced state is formed densely;
only a dense ``DensityMatrix(entries)`` runs ``eigh``.
A :class:`ProductSpace` has exactly two factors.  A :class:`KroneckerProduct`
is held as two congruences ``M H M^dagger`` and read on each ``B_j`` as
``M^dagger B_j N^*``, so neither factor is formed.
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
    "ProductSpace",
    "outer",
    "partial_trace",
    "von_neumann_entropy",
    "spectral_entropy",
    "trace_distance",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _hermitian_deviation(mat: np.ndarray) -> float:
    """``max |M - M^dagger|``, with one complex temporary the size of ``M``."""
    deviation = mat.conj().T
    deviation -= mat
    return float(np.abs(deviation).max())


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

    def inner(self, other: "StateVector") -> complex:
        """``<self|other>`` with the bra conjugated."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"state dims {self.dim} and {other.dim} differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _eigenpairs(entries) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and nonnegative eigenvalues of a dense Hermitian PSD matrix.

    Rows that are exactly zero carry no weight, so ``eigh`` runs on the
    remaining support only and the eigenvectors keep exact zeros there.
    """
    mat = np.array(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("density matrix entries must form a square matrix")
    herm_dev = _hermitian_deviation(mat)
    if not herm_dev <= INVARIANT_TOL:
        raise ValueError(f"density matrix not Hermitian; deviation {herm_dev:.3e}")
    nonzero = mat != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    if support.size == mat.shape[0]:
        eigenvalues, columns = np.linalg.eigh(mat)
    else:
        eigenvalues, eigenvectors = np.linalg.eigh(mat[np.ix_(support, support)])
        columns = np.zeros((mat.shape[0], support.size), dtype=complex)
        columns[support] = eigenvectors
    if eigenvalues.size and eigenvalues[0] < -INVARIANT_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {eigenvalues[0]:.3e}")
    return columns, np.maximum(eigenvalues, 0.0)


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """Unit-trace positive-semidefinite matrix ``sum_j w_j |v_j><v_j|``.

    ``columns`` holds the vectors ``v_j`` (``dim x r``) and ``weights`` the
    ``w_j``.  ``DensityMatrix(columns=V, weights=w)`` takes a mixture, which
    is positive semidefinite exactly when every weight is nonnegative.
    ``DensityMatrix(entries)`` takes a dense matrix, checks it Hermitian and
    stores the eigenpairs of one ``eigh`` (an eigenvalue below
    ``-INVARIANT_TOL`` is refused, roundoff ones are clipped to zero).
    Columns of weight zero are dropped.  The dense matrix is built only on
    demand, once, by :attr:`entries`.
    """

    columns: np.ndarray
    weights: np.ndarray

    def __init__(self, entries=None, *, columns=None, weights=None) -> None:
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "weights", weights)
        self.__post_init__(entries)

    def __post_init__(self, entries) -> None:
        if entries is not None:
            if self.columns is not None or self.weights is not None:
                raise ValueError("give a density matrix either dense entries or a mixture")
            columns, weights = _eigenpairs(entries)
        else:
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
    def entries(self) -> np.ndarray:
        """The dense matrix ``(V * w) @ V^dagger``, read-only, built on first access."""
        return _readonly((self.columns * self.weights) @ self.columns.conj().T)

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

    def blocks(self, space: "ProductSpace") -> np.ndarray:
        """Weighted amplitude matrices ``sqrt(w_j) B_j``, shape ``(r, *space.factor_dims)``."""
        if self.dim != space.dim:
            raise DimensionMismatch(
                f"state dim {self.dim} does not match factor dims {space.factor_dims}"
            )
        return (self.columns * np.sqrt(self.weights)).T.reshape(-1, *space.factor_dims)


@dataclass(frozen=True, eq=False)
class KroneckerProduct:
    """Hermitian operator ``(M H M^dagger) (x) (N G N^dagger)`` on a bipartite space.

    ``system`` is the pair ``(M, H)`` and ``apparatus`` the pair ``(N, G)``:
    each factor is a column matrix and a small Hermitian core on its columns.
    Construction checks only that each core is square on its matrix's columns
    and Hermitian, so the product is Hermitian; the column matrices are kept
    as read-only views, not copied.  The dense matrix is never built.
    """

    system: tuple[np.ndarray, np.ndarray]
    apparatus: tuple[np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        for name in ("system", "apparatus"):
            basis, core = getattr(self, name)
            basis, core = np.asarray(basis, dtype=complex).view(), np.array(core, dtype=complex)
            if basis.ndim != 2 or core.shape != (basis.shape[1], basis.shape[1]):
                raise ValueError("a Kronecker factor needs a square core on its matrix's columns")
            dev = _hermitian_deviation(core)
            if not dev <= INVARIANT_TOL:
                raise ValueError(f"Kronecker core is not Hermitian; deviation {dev:.3e}")
            object.__setattr__(self, name, (_readonly(basis), _readonly(core)))

    @property
    def factor_dims(self) -> tuple[int, int]:
        return (self.system[0].shape[0], self.apparatus[0].shape[0])

    def expectation(self, rho: DensityMatrix) -> float:
        """``tr(rho W) = sum_j w_j <C_j, H C_j G^T>`` for ``C_j = M^dagger B_j N^*``."""
        (system, system_core), (apparatus, apparatus_core) = self.system, self.apparatus
        # M^dagger B_j as (B_j^dagger M)^dagger: only the thin B_j are conjugated
        adjoints = rho.blocks(ProductSpace(self.factor_dims)).conj().swapaxes(1, 2)
        rotated = (adjoints @ system).conj().swapaxes(1, 2) @ apparatus.conj()
        return float(np.vdot(rotated, system_core @ rotated @ apparatus_core.T).real)

    def product_expectation(self, weights, first, second) -> float:
        """``tr(rho W)`` for ``rho = sum_j w_j |f_j><f_j| (x) |s_j><s_j|``, from its factors.

        ``first`` holds the ``f_j`` and ``second`` the ``s_j`` as columns; the
        value is ``sum_j w_j <f_j|M H M^dagger|f_j> <s_j|N G N^dagger|s_j>``,
        with each column rotated by ``M^dagger`` or ``N^dagger`` first, as
        ``(F^dagger M)^dagger``, so only the columns are conjugated.
        """
        terms = np.asarray(weights)
        for (basis, core), columns in ((self.system, first), (self.apparatus, second)):
            rotated = (columns.conj().T @ basis).conj().T
            terms = terms * (rotated.conj() * (core @ rotated)).sum(axis=0)
        return float(terms.sum().real)


@dataclass(frozen=True)
class ProductSpace:
    """Bipartite tensor bookkeeping: the dimensions of the first and second factor."""

    factor_dims: tuple[int, int]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if len(dims) != 2 or min(dims) <= 0:
            raise ValueError("a product space needs two positive factor dimensions")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return self.factor_dims[0] * self.factor_dims[1]


def outer(phi: StateVector) -> DensityMatrix:
    """Rank-one projector ``|phi><phi|``: one column of weight one."""
    return DensityMatrix(columns=phi.amplitudes[:, None], weights=np.ones(1))


def partial_trace(rho: DensityMatrix, space: ProductSpace, keep: int) -> DensityMatrix:
    """Trace out one factor of a bipartite state, as a mixture.

    Keeping the first factor gives ``sum_j w_j B_j B_j^dagger``, keeping the
    second ``sum_j w_j B_j^T B_j^*``.  Either is returned without a matrix
    product: its columns are those of the stacked weighted amplitude
    matrices ``sqrt(w_j) B_j`` (or ``sqrt(w_j) B_j^T``), each of weight one.

    Parameters
    ----------
    rho:
        State on the full product space.
    space:
        Bipartite bookkeeping; ``space.dim`` must equal ``rho.dim``.
    keep:
        Index of the factor to keep, 0 (first) or 1 (second).
    """
    blocks = rho.blocks(space)
    if keep == 0:
        factor = blocks.transpose(1, 0, 2).reshape(space.factor_dims[0], -1)
    elif keep == 1:
        factor = blocks.transpose(2, 0, 1).reshape(space.factor_dims[1], -1)
    else:
        raise ValueError("keep must be 0 or 1")
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
