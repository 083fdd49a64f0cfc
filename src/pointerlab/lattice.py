"""One-dimensional lattice realization of identical-particle kinematics.

Wavefunctions are quadrature-normalized samples on a uniform grid
(``dx * sum |psi|^2 = 1``).  Integral kernels carry a factor ``1/dx`` so that
the discrete contraction ``dx * sum`` reproduces the continuum composition
rule; in particular the Dirac delta is ``identity / dx``.

A kernel is held as the ``(n,)`` diagonal of a multiplication operator, such
as the position observable, at ``O(n)`` per operation, or as a dense
``(n, n)`` array at ``O(n^2)``.

A symmetrized pair ``nu * (psi (x) phi +/- phi (x) psi)`` has rank two, so it
is stored as its two orbitals, its exchange sign, ``nu`` and its 2x2 orbital
overlap matrix ``S = dx * O^* O^T`` with ``O = [psi; phi]``, which
:func:`symmetrize` forms with one product; exchange symmetry holds by
construction and no ``n x n`` pair array is ever formed.  The expectation of
a one-body registration observable ``a (x) 1 + 1 (x) a`` follows from ``S``
and the 2x2 orbital matrix elements of ``a`` (the Lowdin rules for
non-orthogonal orbitals), which one kernel apply gives, together with the
one-particle expectations in each orbital; pairs over the same orbitals
share them.  A grid forms its coordinate array once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    GridMismatch,
    NullState,
    SupportViolation,
    UnresolvableWidth,
)
from .tolerances import COMPARISON_TOL, INVARIANT_TOL, QUADRATURE_NORM_TOL, SUPPORT_MASS_EPSILON

__all__ = [
    "LatticeGrid",
    "LatticeWavefunction",
    "TwoParticleWavefunction",
    "KernelOperator",
    "Domain",
    "ExchangeSymmetry",
    "gaussian_packet",
    "symmetrize",
    "expectation_single",
    "expectation_two_particle",
    "localize",
    "is_d_local",
    "dlocal_residual",
    "dlocal_agreement_check",
    "position_kernel",
]


class ExchangeSymmetry(enum.Enum):
    """Exchange sign of a pair of identical particles."""

    BOSON = 1
    FERMION = -1

    @property
    def sign(self) -> int:
        return self.value


@dataclass(frozen=True)
class LatticeGrid:
    """Uniform grid: point ``i`` sits at ``x_min + i * dx`` for ``0 <= i < n_points``."""

    x_min: float
    dx: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        if self.n_points < 2:
            raise ValueError("a grid needs at least two points")

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Read-only point coordinates, formed on first use."""
        coords = self.x_min + self.dx * np.arange(self.n_points)
        coords.setflags(write=False)
        return coords


def _require_same_grid(a: LatticeGrid, b: LatticeGrid) -> None:
    if a is not b and a != b:
        raise GridMismatch(f"grids {a} and {b} differ")


@dataclass(frozen=True, eq=False)
class LatticeWavefunction:
    """Single-particle wavefunction samples, quadrature-normalized."""

    grid: LatticeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=complex).reshape(-1)
        if vals.size != self.grid.n_points:
            raise ValueError("value count must match the grid")
        norm = float(self.grid.dx * np.vdot(vals, vals).real)
        if not abs(norm - 1.0) <= QUADRATURE_NORM_TOL:
            raise ValueError(f"quadrature norm {norm:.17g} is not 1 within {QUADRATURE_NORM_TOL}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def inner(self, other: "LatticeWavefunction") -> complex:
        """Quadrature inner product ``dx * sum(conj(self) * other)``."""
        _require_same_grid(self.grid, other.grid)
        return complex(self.grid.dx * np.vdot(self.values, other.values))


def _orbitals(first: LatticeWavefunction, second: LatticeWavefunction) -> np.ndarray:
    """The ``(2, n)`` orbital matrix ``O = [first; second]``."""
    _require_same_grid(first.grid, second.grid)
    return np.array((first.values, second.values))


def _overlaps(first: LatticeWavefunction, second: LatticeWavefunction) -> np.ndarray:
    """Read-only 2x2 overlap matrix ``S_uv = <u|v> = dx * (O^* O^T)_uv``, one product."""
    orbitals = _orbitals(first, second)
    overlaps = first.grid.dx * (orbitals.conj() @ orbitals.T)
    overlaps.setflags(write=False)
    return overlaps


def _pair_norm_squared(overlaps: np.ndarray, sym: ExchangeSymmetry) -> float:
    """Quadrature norm of ``first (x) second + sign * second (x) first``, squared, from ``S``."""
    (first, cross), (_, second) = overlaps.tolist()
    return 2.0 * (first.real * second.real + sym.sign * abs(cross) ** 2)


@dataclass(frozen=True, eq=False)
class TwoParticleWavefunction:
    """Symmetrized pair ``nu * (first (x) second + sign * second (x) first)``.

    Exchanging the particles multiplies the amplitude by the declared sign
    by construction; ``nu`` must make the quadrature norm 1.  ``overlaps``
    is the orbital overlap matrix ``S``: :func:`symmetrize` hands over the
    one it formed for ``nu``, a pair built directly forms its own.
    """

    first: LatticeWavefunction
    second: LatticeWavefunction
    exchange: ExchangeSymmetry
    nu: float
    overlaps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if "overlaps" not in vars(self):
            object.__setattr__(self, "overlaps", _overlaps(self.first, self.second))
        norm = self.nu**2 * _pair_norm_squared(self.overlaps, self.exchange)
        if not abs(norm - 1.0) <= QUADRATURE_NORM_TOL:
            raise ValueError(f"quadrature norm {norm:.17g} is not 1 within {QUADRATURE_NORM_TOL}")

    @property
    def grid(self) -> LatticeGrid:
        return self.first.grid


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """One-particle integral kernel ``a(x_i; x_j)`` in units of ``1/dx``.

    ``entries`` is the ``(n,)`` diagonal of a multiplication operator, whose
    off-diagonal entries are exact zeros, or the dense ``(n, n)`` kernel;
    ``conj().T`` is the adjoint of either.  Checks and :meth:`apply` cost
    ``O(n)`` on a diagonal and ``O(n^2)`` on a dense kernel.
    """

    grid: LatticeGrid
    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        n = self.grid.n_points
        if arr.shape not in ((n,), (n, n)):
            raise ValueError(f"kernel must have shape ({n},) or ({n}, {n})")
        if self.hermitian:
            # on a diagonal |a - a^*| is exactly 2 |Im a|, read without forming a - a^*
            dev = float(
                2.0 * np.abs(arr.imag).max() if arr.ndim == 1 else np.abs(arr - arr.conj().T).max()
            )
            if not dev <= INVARIANT_TOL:
                raise ValueError(f"hermitian flag violated; deviation {dev:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def kernel(self) -> np.ndarray:
        """Dense ``(n, n)`` view; a diagonal operator builds it on every call."""
        return np.diag(self.entries) if self.entries.ndim == 1 else self.entries

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Kernel times a column ``(n,)`` or a stack of columns ``(n, k)``."""
        if self.entries.ndim == 1:
            return self.entries.reshape((-1,) + (1,) * (values.ndim - 1)) * values
        return self.entries @ values


@dataclass(frozen=True)
class Domain:
    """Sorted, disjoint, half-open index intervals selecting grid points."""

    index_ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ranges = tuple((int(lo), int(hi)) for lo, hi in self.index_ranges)
        previous_end = -1
        for lo, hi in ranges:
            if lo < 0 or hi <= lo:
                raise ValueError(f"bad index interval [{lo}, {hi})")
            if lo < previous_end:
                raise ValueError("index intervals must be sorted and disjoint")
            previous_end = hi
        object.__setattr__(self, "index_ranges", ranges)

    @classmethod
    def from_interval(cls, grid: LatticeGrid, lower: float, upper: float) -> "Domain":
        """Grid points with coordinate in the closed interval ``[lower, upper]``."""
        if upper < lower:
            raise ValueError("upper must not be below lower")
        coords = grid.coordinates
        return cls.from_mask((coords >= lower) & (coords <= upper))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Domain":
        flags = np.asarray(mask, dtype=bool)
        padded = np.zeros(flags.size + 2, dtype=bool)
        padded[1:-1] = flags
        edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
        return cls(tuple(zip(edges[::2], edges[1::2])))

    def mask(self, n_points: int) -> np.ndarray:
        flags = np.zeros(n_points, dtype=bool)
        for lo, hi in self.index_ranges:
            if hi > n_points:
                raise ValueError(f"interval [{lo}, {hi}) exceeds grid size {n_points}")
            flags[lo:hi] = True
        return flags


def gaussian_packet(grid: LatticeGrid, center: float, width: float) -> LatticeWavefunction:
    """Normalized Gaussian ``exp(-(x - center)^2 / (4 width^2))`` on the grid.

    ``width`` is the standard deviation of the position density; packets
    narrower than ``2 dx`` are rejected as unresolvable.
    """
    if width <= 2 * grid.dx:
        raise UnresolvableWidth(f"width {width} must exceed 2*dx = {2 * grid.dx}")
    coords = grid.coordinates
    if not (coords[0] <= center <= coords[-1]):
        raise ValueError(f"center {center} lies outside the grid extent")
    raw = np.exp(-((coords - center) ** 2) / (4.0 * width**2))
    raw /= np.sqrt(grid.dx * (raw * raw).sum())
    return LatticeWavefunction(grid, raw)


def symmetrize(
    psi: LatticeWavefunction, phi: LatticeWavefunction, sym: ExchangeSymmetry
) -> TwoParticleWavefunction:
    """Exchange-(anti)symmetric pair state built from two one-particle states.

    The normalization ``nu = (2 <psi|psi><phi|phi> + 2 sign |<psi|phi>|^2)^(-1/2)``
    is ``1/sqrt(2)`` for orthogonal inputs and ``1/2`` for the bosonic
    identical case.  For nearly parallel fermionic inputs the bracket
    cancels, leaving an absolute roundoff of about 1e-16 in ``1/nu^2``.
    """
    overlaps = _overlaps(psi, phi)
    norm_squared = _pair_norm_squared(overlaps, sym)
    if norm_squared < COMPARISON_TOL**2:
        raise NullState("symmetrized state is numerically null")
    # hand S to the pair before its validation runs, so that the check of nu
    # reads it instead of forming it a second time
    pair = object.__new__(TwoParticleWavefunction)
    object.__setattr__(pair, "overlaps", overlaps)
    pair.__init__(psi, phi, sym, norm_squared**-0.5)
    return pair


def position_kernel(grid: LatticeGrid) -> KernelOperator:
    """Position observable ``x * delta(x - x')``, stored as its diagonal ``x / dx`` in ``O(n)``."""
    return KernelOperator(grid, grid.coordinates / grid.dx, hermitian=True)


def expectation_single(a: KernelOperator, psi: LatticeWavefunction) -> complex:
    """Quadrature expectation ``dx^2 * sum conj(psi_i) a_ij psi_j``."""
    _require_same_grid(a.grid, psi.grid)
    return complex(a.grid.dx**2 * np.vdot(psi.values, a.apply(psi.values)))


def _orbital_elements(
    a: KernelOperator, pair: TwoParticleWavefunction
) -> tuple[np.ndarray, np.ndarray]:
    """2x2 matrix elements ``a_uv = <u|a|v>`` over the pair's orbitals, from one kernel apply.

    Also returns the one-particle expectations ``<u|a|u>``, contracted apart
    from the element matrix as :func:`expectation_single` contracts them.  A
    discrepancy verdict compares their sum with a pair value built from the
    matrix; read off its diagonal they would share its rounding, and a
    discrepancy that vanishes in exact arithmetic would read exactly 0.0.
    """
    _require_same_grid(a.grid, pair.grid)
    orbitals = _orbitals(pair.first, pair.second)
    applied = a.apply(orbitals.T)
    scale = a.grid.dx**2
    singles = scale * np.array([np.vdot(orbitals[u], applied[:, u]) for u in (0, 1)])
    return scale * (orbitals.conj() @ applied), singles


def _pair_expectation(elements: np.ndarray, pair: TwoParticleWavefunction) -> complex:
    (a_pp, a_pf), (a_fp, a_ff) = elements.tolist()
    (s_pp, s_pf), (s_fp, s_ff) = pair.overlaps.tolist()
    total = a_pp * s_ff + a_ff * s_pp + pair.exchange.sign * (a_pf * s_fp + a_fp * s_pf)
    return 2.0 * pair.nu**2 * total


def expectation_two_particle(a: KernelOperator, pair: TwoParticleWavefunction) -> complex:
    """Pair expectation of the registration observable ``a (x) 1 + 1 (x) a``.

    With orbitals ``psi, phi``, matrix elements ``a_uv = <u|a|v>`` and the
    pair's overlaps ``S_uv = <u|v>``, the value is
    ``2 nu^2 [a_pp S_ff + a_ff S_pp + sign (a_pf S_fp + a_fp S_pf)]``.
    """
    return _pair_expectation(_orbital_elements(a, pair)[0], pair)


def _localize(a: KernelOperator, inside: np.ndarray) -> KernelOperator:
    if a.entries.ndim == 2:
        inside = np.outer(inside, inside)
    return KernelOperator(a.grid, np.where(inside, a.entries, 0.0 + 0.0j), hermitian=a.hermitian)


def localize(a: KernelOperator, D: Domain) -> KernelOperator:
    """Restrict a kernel to the domain: ``chi_D(i) a_ij chi_D(j)`` with exact zeros.

    A diagonal is masked by ``chi_D`` itself, a dense kernel by its outer product.
    """
    return _localize(a, D.mask(a.grid.n_points))


def dlocal_residual(a: KernelOperator, D: Domain) -> float:
    """Largest quadrature response of the kernel to delta spikes outside the domain.

    Delta spikes at every exterior point are exhaustive test functions on the
    lattice by linearity, so the residual is the maximum over exterior ``j`` of
    the ``dx``-weighted absolute row and column sums.  Off the diagonal of a
    diagonal kernel every term is an exact zero, so both sums are ``|a_jj|``.
    """
    return _exterior_residual(a, ~D.mask(a.grid.n_points))


def _exterior_residual(a: KernelOperator, exterior: np.ndarray) -> float:
    if not exterior.any():
        return 0.0
    magnitude = np.abs(a.entries)
    if magnitude.ndim == 2:
        magnitude = np.maximum(magnitude.sum(axis=0), magnitude.sum(axis=1))
    return float(a.grid.dx * magnitude[exterior].max())


def is_d_local(a: KernelOperator, D: Domain, tol: float) -> bool:
    """Whether the kernel annihilates every test function supported outside ``D``."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return dlocal_residual(a, D) <= tol


def _domain_mass(psi: LatticeWavefunction, mask: np.ndarray) -> float:
    values = psi.values[mask]
    return float(psi.grid.dx * np.vdot(values, values).real)


def _dlocal_agreement(
    a: KernelOperator,
    inside: np.ndarray,
    psi: LatticeWavefunction,
    phi: LatticeWavefunction,
    mass_epsilon: float,
) -> tuple[complex, complex, TwoParticleWavefunction, np.ndarray, KernelOperator]:
    """:func:`dlocal_agreement_check` on the domain's mask, returning what it builds.

    That is the localized pair expectation, the one-particle expectation of
    ``a`` in ``psi``, the boson pair, the orbital elements of ``a`` and the
    localized kernel, each kernel applied once.
    """
    stray_psi = _domain_mass(psi, ~inside)
    if stray_psi > mass_epsilon:
        raise SupportViolation(
            f"first packet leaves {stray_psi:.3e} probability outside the domain"
        )
    stray_phi = _domain_mass(phi, inside)
    if stray_phi > mass_epsilon:
        raise SupportViolation(
            f"second packet leaves {stray_phi:.3e} probability inside the domain"
        )
    pair = symmetrize(psi, phi, ExchangeSymmetry.BOSON)
    localized = _localize(a, inside)
    elements, (single, _) = _orbital_elements(a, pair)
    two_particle = _pair_expectation(_orbital_elements(localized, pair)[0], pair)
    return two_particle, single, pair, elements, localized


def dlocal_agreement_check(
    a: KernelOperator,
    D: Domain,
    psi: LatticeWavefunction,
    phi: LatticeWavefunction,
    mass_epsilon: float = SUPPORT_MASS_EPSILON,
) -> tuple[complex, complex, float]:
    """Compare the localized pair expectation against the lone-particle value.

    Requires ``psi`` to live inside ``D`` and ``phi`` outside it, up to
    ``mass_epsilon`` of stray quadrature probability on the wrong side.
    Returns the pair expectation of the symmetrized localized kernel, the
    single-particle expectation of the raw kernel in ``psi``, and their
    absolute difference.
    """
    _require_same_grid(a.grid, psi.grid)
    _require_same_grid(a.grid, phi.grid)
    two_particle, single, *_ = _dlocal_agreement(
        a, D.mask(a.grid.n_points), psi, phi, mass_epsilon
    )
    return two_particle, single, abs(two_particle - single)

