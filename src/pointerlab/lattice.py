"""One-dimensional lattice realization of identical-particle kinematics.

Wavefunctions are quadrature-normalized samples on a uniform grid
(``dx * sum |psi|^2 = 1``).  Integral kernels carry a factor ``1/dx`` so that
the discrete contraction ``dx * sum`` reproduces the continuum composition
rule; in particular the Dirac delta is ``identity / dx``.

A kernel is held as the ``(n,)`` diagonal of a multiplication operator, such
as the position observable, at ``O(n)`` per operation.

A symmetrized pair ``nu * (psi (x) phi +/- phi (x) psi)`` has rank two, so it
is stored as its two orbitals, its exchange sign, its ``(2, n)`` orbital
matrix ``O = [psi; phi]`` and 2x2 overlap matrix ``S = dx * O^* O^T``, both
formed once at construction, and the ``nu`` it derives from ``S``; exchange
symmetry holds by construction and no ``n x n`` pair array is ever formed.
The expectation of a one-body registration observable ``a (x) 1 + 1 (x) a``
follows from ``S`` and the 2x2 orbital matrix elements of ``a`` (the Lowdin
rules for non-orthogonal orbitals): :func:`orbital_elements` gives those
elements and the one-particle expectations in each orbital from one kernel
apply to ``O``, and :func:`expectation_two_particle` combines them with
``S``, so pairs over the same orbitals share one apply.  The domain-local
agreement of a ``dlocal`` run is listed by the runner from these operations
and :func:`require_support`, :func:`localize` and :func:`dlocal_residual`.
A grid forms its coordinate array once, and a :class:`Domain` is a read-only
point mask on one grid, which every check reads as it is after refusing a
kernel or packet on another grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    GridMismatch,
    NullState,
    SupportViolation,
    UnresolvableWidth,
)
from .tolerances import COMPARISON_TOL, INVARIANT_TOL, QUADRATURE_NORM_TOL

__all__ = [
    "LatticeGrid",
    "LatticeWavefunction",
    "TwoParticleWavefunction",
    "KernelOperator",
    "Domain",
    "ExchangeSymmetry",
    "gaussian_packet",
    "orbital_elements",
    "expectation_two_particle",
    "localize",
    "dlocal_residual",
    "require_support",
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
    """Uniform grid: point ``i`` sits at ``x_min + i * dx`` for ``0 <= i < n_points``.

    Construction refuses a grid whose points are not all finite, which a
    non-finite ``x_min`` or ``dx`` or an overflowing last point would give.
    """

    x_min: float
    dx: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        if self.n_points < 2:
            raise ValueError("a grid needs at least two points")
        last = self.x_min + (self.n_points - 1) * self.dx
        if not math.isfinite(last):
            raise ValueError(f"grid points must be finite; the last one is {last}")

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


def _pair_norm_squared(overlaps: np.ndarray, sym: ExchangeSymmetry) -> float:
    """Quadrature norm of ``first (x) second + sign * second (x) first``, squared, from ``S``."""
    (first, cross), (_, second) = overlaps.tolist()
    return 2.0 * (first.real * second.real + sym.sign * abs(cross) ** 2)


@dataclass(frozen=True, eq=False)
class TwoParticleWavefunction:
    """Symmetrized pair ``nu * (first (x) second + sign * second (x) first)``.

    Exchanging the particles multiplies the amplitude by the declared sign
    by construction.  Construction refuses orbitals on two grids, forms the
    read-only ``(2, n)`` orbital matrix ``O = [first; second]``
    (``orbitals``) and, with one product, the overlap matrix
    ``S_uv = <u|v> = dx * (O^* O^T)_uv`` (``overlaps``), unless
    :meth:`opposite_exchange` shares both, and derives
    ``nu = (2 <psi|psi><phi|phi> + 2 sign |<psi|phi>|^2)^(-1/2)``: ``1/sqrt(2)``
    for orthogonal inputs, ``1/2`` for identical bosons, and ``NullState``
    for a null bracket.  For nearly parallel fermionic inputs the bracket
    cancels, leaving an absolute roundoff of about 1e-16 in ``1/nu^2``.
    """

    first: LatticeWavefunction
    second: LatticeWavefunction
    exchange: ExchangeSymmetry
    nu: float = field(init=False)
    orbitals: np.ndarray = field(init=False, repr=False)
    overlaps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if "orbitals" not in vars(self):
            _require_same_grid(self.first.grid, self.second.grid)
            orbitals = np.array((self.first.values, self.second.values))
            overlaps = self.grid.dx * (orbitals.conj() @ orbitals.T)
            for name, array in (("orbitals", orbitals), ("overlaps", overlaps)):
                array.setflags(write=False)
                object.__setattr__(self, name, array)
        norm_squared = _pair_norm_squared(self.overlaps, self.exchange)
        if not norm_squared >= COMPARISON_TOL**2:
            raise NullState("symmetrized state is numerically null")
        object.__setattr__(self, "nu", norm_squared**-0.5)

    @property
    def grid(self) -> LatticeGrid:
        return self.first.grid

    def opposite_exchange(self) -> "TwoParticleWavefunction":
        """The pair of the same orbitals under the other exchange sign, sharing ``O`` and ``S``.

        Raises ``NullState`` for a null bracket, as construction does.
        """
        # hand O and S over before construction runs, so that they are not formed again
        pair = object.__new__(TwoParticleWavefunction)
        object.__setattr__(pair, "orbitals", self.orbitals)
        object.__setattr__(pair, "overlaps", self.overlaps)
        pair.__init__(self.first, self.second, ExchangeSymmetry(-self.exchange.sign))
        return pair


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Hermitian one-particle multiplication kernel ``a_i delta_ij``, in units of ``1/dx``.

    ``entries`` is the ``(n,)`` diagonal ``a_i``; every off-diagonal entry is
    an exact zero.  Construction refuses a non-finite entry and a Hermitian
    deviation ``2 |Im a_i|`` beyond ``INVARIANT_TOL``; the checks and
    :meth:`apply` cost ``O(n)``.
    """

    grid: LatticeGrid
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        n = self.grid.n_points
        if arr.shape != (n,):
            raise ValueError(f"kernel diagonal must have shape ({n},)")
        if not np.isfinite(arr).all():
            raise ValueError("kernel diagonal must be finite")
        # on a diagonal |a - a^*| is exactly 2 |Im a|, read without forming a - a^*
        dev = float(2.0 * np.abs(arr.imag).max())
        if not dev <= INVARIANT_TOL:
            raise ValueError(f"kernel not hermitian; deviation {dev:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Kernel times a column ``(n,)`` or a stack of columns ``(n, k)``."""
        return self.entries.reshape((-1,) + (1,) * (values.ndim - 1)) * values


@dataclass(frozen=True, eq=False)
class Domain:
    """Points of ``grid`` selected by a read-only boolean mask, one flag per point."""

    grid: LatticeGrid
    points: np.ndarray

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=bool)
        n = self.grid.n_points
        if points.shape != (n,):
            raise ValueError(f"domain mask has shape {points.shape}, not ({n},)")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @classmethod
    def from_interval(cls, grid: LatticeGrid, lower: float, upper: float) -> "Domain":
        """Grid points with coordinate in the closed interval ``[lower, upper]``."""
        if not lower <= upper:
            raise ValueError("upper must not be below lower")
        coords = grid.coordinates
        return cls(grid, (coords >= lower) & (coords <= upper))


def gaussian_packet(grid: LatticeGrid, center: float, width: float) -> LatticeWavefunction:
    """Normalized Gaussian ``exp(-(x - center)^2 / (4 width^2))`` on the grid.

    ``width`` is the standard deviation of the position density; packets
    narrower than ``2 dx`` are rejected as unresolvable.
    """
    if not width > 2 * grid.dx:
        raise UnresolvableWidth(f"width {width} must exceed 2*dx = {2 * grid.dx}")
    coords = grid.coordinates
    if not (coords[0] <= center <= coords[-1]):
        raise ValueError(f"center {center} lies outside the grid extent")
    raw = np.exp(-((coords - center) ** 2) / (4.0 * width**2))
    raw /= np.sqrt(grid.dx * (raw * raw).sum())
    return LatticeWavefunction(grid, raw)


def position_kernel(grid: LatticeGrid) -> KernelOperator:
    """Position observable ``x * delta(x - x')``, stored as its diagonal ``x / dx`` in ``O(n)``."""
    return KernelOperator(grid, grid.coordinates / grid.dx)


def orbital_elements(
    a: KernelOperator, pair: TwoParticleWavefunction
) -> tuple[np.ndarray, np.ndarray]:
    """2x2 matrix elements ``a_uv = <u|a|v>`` over the pair's orbitals, from one kernel apply.

    Also returns the one-particle expectations
    ``<u|a|u> = dx^2 * sum conj(u_i) a_ij u_j``, each contracted apart from
    the element matrix.  A discrepancy verdict compares their sum with a pair
    value built from the matrix; read off its diagonal they would share its
    rounding, and a discrepancy that vanishes in exact arithmetic would read
    exactly 0.0.
    """
    _require_same_grid(a.grid, pair.grid)
    orbitals = pair.orbitals  # O, formed with the pair
    applied = a.apply(orbitals.T)
    scale = a.grid.dx**2
    singles = scale * np.array([np.vdot(orbitals[u], applied[:, u]) for u in (0, 1)])
    return scale * (orbitals.conj() @ applied), singles


def expectation_two_particle(elements: np.ndarray, pair: TwoParticleWavefunction) -> complex:
    """Pair expectation of the registration observable ``a (x) 1 + 1 (x) a``.

    ``elements`` is the 2x2 matrix ``a_uv = <u|a|v>`` that :func:`orbital_elements`
    gives over the orbitals ``psi, phi``.  With the pair's overlaps
    ``S_uv = <u|v>``, the value is
    ``2 nu^2 [a_pp S_ff + a_ff S_pp + sign (a_pf S_fp + a_fp S_pf)]``.
    """
    (a_pp, a_pf), (a_fp, a_ff) = elements.tolist()
    (s_pp, s_pf), (s_fp, s_ff) = pair.overlaps.tolist()
    total = a_pp * s_ff + a_ff * s_pp + pair.exchange.sign * (a_pf * s_fp + a_fp * s_pf)
    return 2.0 * pair.nu**2 * total


def localize(a: KernelOperator, D: Domain) -> KernelOperator:
    """Restrict a kernel to the domain, ``chi_D(i) a_ij chi_D(j)``: its diagonal times ``chi_D``."""
    _require_same_grid(a.grid, D.grid)
    return KernelOperator(a.grid, np.where(D.points, a.entries, 0.0 + 0.0j))


def dlocal_residual(a: KernelOperator, D: Domain) -> float:
    """Largest quadrature response of the kernel to delta spikes outside the domain.

    Delta spikes at every exterior point are exhaustive test functions on the
    lattice by linearity, so the residual is the maximum over exterior ``j`` of
    the ``dx``-weighted absolute row and column sums.  Off the diagonal every
    term is an exact zero, so both sums are ``|a_jj|``.
    """
    _require_same_grid(a.grid, D.grid)
    exterior = ~D.points
    if not exterior.any():
        return 0.0
    return float(a.grid.dx * np.abs(a.entries)[exterior].max())


def _domain_mass(psi: LatticeWavefunction, mask: np.ndarray) -> float:
    values = psi.values[mask]
    return float(psi.grid.dx * np.vdot(values, values).real)


def require_support(
    D: Domain, psi: LatticeWavefunction, phi: LatticeWavefunction, mass_epsilon: float
) -> None:
    """Require ``psi`` to live inside the domain and ``phi`` outside it.

    Each packet may leave at most ``mass_epsilon`` of quadrature probability
    on the wrong side; more, or a NaN ``mass_epsilon``, raises
    ``SupportViolation``, and a packet on another grid ``GridMismatch``.
    """
    for grid in (psi.grid, phi.grid):
        _require_same_grid(D.grid, grid)
    stray_psi = _domain_mass(psi, ~D.points)
    if not stray_psi <= mass_epsilon:
        raise SupportViolation(
            f"first packet leaves {stray_psi:.3e} probability outside the domain"
        )
    stray_phi = _domain_mass(phi, D.points)
    if not stray_phi <= mass_epsilon:
        raise SupportViolation(
            f"second packet leaves {stray_phi:.3e} probability inside the domain"
        )
