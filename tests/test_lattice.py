import numpy as np
import pytest

from pointerlab import (
    Domain,
    ExchangeSymmetry,
    GridMismatch,
    KernelOperator,
    LatticeGrid,
    NullState,
    SupportViolation,
    TwoParticleWavefunction,
    UnresolvableWidth,
    dlocal_agreement_check,
    dlocal_residual,
    expectation_single,
    expectation_two_particle,
    gaussian_packet,
    is_d_local,
    localize,
    position_kernel,
    symmetrize,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def grid():
    return LatticeGrid(-20.0, 40.0 / 512, 512)


@pytest.fixture(scope="module")
def small_grid():
    return LatticeGrid(-8.0, 16.0 / 64, 64)


@pytest.fixture(scope="module")
def tiny_grid():
    return LatticeGrid(-4.0, 8.0 / 16, 16)


def identity_kernel(grid):
    # discretized Dirac delta: identity / dx
    return KernelOperator(grid, np.eye(grid.n_points) / grid.dx, hermitian=True)


def quadrature_mean(psi):
    # independent position oracle: dx * sum x |psi|^2
    return float(psi.grid.dx * np.sum(psi.grid.coordinates * np.abs(psi.values) ** 2))


class TestGrid:
    def test_coordinates(self):
        g = LatticeGrid(x_min=-1.0, dx=0.5, n_points=4)
        assert np.allclose(g.coordinates, [-1.0, -0.5, 0.0, 0.5])

    def test_half_open_cover(self, grid):
        # the fixture covers [-20, 20) with 512 points
        assert grid.dx == 0.078125
        assert grid.coordinates[0] == -20.0
        assert grid.coordinates[-1] == 20.0 - grid.dx

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LatticeGrid(0.0, -0.1, 8)
        with pytest.raises(ValueError):
            LatticeGrid(0.0, 0.1, 1)


class TestGaussianPacket:
    def test_quadrature_norm(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        norm = grid.dx * np.sum(np.abs(psi.values) ** 2)
        assert abs(norm - 1.0) < 1e-8

    def test_mean_position(self, grid):
        psi = gaussian_packet(grid, 10.0, 1.0)
        assert abs(quadrature_mean(psi) - 10.0) < 1e-6

    def test_distant_packets_orthogonal(self, grid):
        psi = gaussian_packet(grid, -12.0, 0.5)
        phi = gaussian_packet(grid, 12.0, 0.5)  # separation 24 > 10 * (0.5 + 0.5)
        assert abs(psi.inner(phi)) < 1e-12

    def test_unresolvable_width(self, grid):
        with pytest.raises(UnresolvableWidth):
            gaussian_packet(grid, 0.0, 2 * grid.dx)

    def test_center_outside_extent(self, grid):
        with pytest.raises(ValueError):
            gaussian_packet(grid, 25.0, 1.0)


class TestSymmetrize:
    def test_orthogonal_factor(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 10.0, 1.0)
        # oracle: norm of the raw symmetrized matrix, computed directly
        raw = np.outer(psi.values, phi.values) + np.outer(phi.values, psi.values)
        nu_oracle = 1.0 / np.sqrt(grid.dx**2 * np.sum(np.abs(raw) ** 2))
        nu = symmetrize(psi, phi, ExchangeSymmetry.BOSON).nu
        assert nu == pytest.approx(nu_oracle, abs=1e-15)
        assert abs(nu - INV_SQRT2) < 1e-8

    def test_identical_fermions_null(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        with pytest.raises(NullState):
            symmetrize(psi, psi, ExchangeSymmetry.FERMION)

    def test_identical_bosons_product(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        pair = symmetrize(psi, psi, ExchangeSymmetry.BOSON)
        first, second = pair.first.values, pair.second.values
        amplitude = pair.nu * (np.outer(first, second) + np.outer(second, first))
        assert np.max(np.abs(amplitude - np.outer(psi.values, psi.values))) < 1e-10
        assert pair.nu == pytest.approx(0.5, abs=1e-10)

    def test_swap_symmetry_exact(self, grid):
        psi = gaussian_packet(grid, -3.0, 1.0)
        phi = gaussian_packet(grid, 3.0, 1.0)
        for sym in (ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION):
            pair = symmetrize(psi, phi, sym)
            first, second = pair.first.values, pair.second.values
            amplitude = pair.nu * (
                np.outer(first, second) + pair.exchange.sign * np.outer(second, first)
            )
            assert np.array_equal(amplitude, sym.sign * amplitude.T)

    def test_grid_mismatch(self, grid, small_grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(small_grid, 0.0, 1.0)
        with pytest.raises(GridMismatch):
            symmetrize(psi, phi, ExchangeSymmetry.BOSON)

    def test_record_rejects_wrong_normalization(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 10.0, 1.0)
        with pytest.raises(ValueError):
            TwoParticleWavefunction(psi, phi, ExchangeSymmetry.BOSON, 0.5)
        with pytest.raises(ValueError):
            TwoParticleWavefunction(psi, phi, ExchangeSymmetry.BOSON, float("nan"))


class TestExpectations:
    def test_single_centered(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        assert abs(expectation_single(position_kernel(grid), psi)) < 1e-6

    def test_single_displaced_matches_quadrature(self, grid):
        psi = gaussian_packet(grid, 10.0, 1.0)
        value = expectation_single(position_kernel(grid), psi)
        assert abs(value - 10.0) < 1e-6
        assert abs(value.real - quadrature_mean(psi)) < 1e-10
        assert abs(value.imag) < 1e-10

    def test_single_identity(self, grid):
        psi = gaussian_packet(grid, 3.0, 1.0)
        assert abs(expectation_single(identity_kernel(grid), psi) - 1.0) < 1e-8

    def test_single_grid_mismatch(self, grid, small_grid):
        with pytest.raises(GridMismatch):
            expectation_single(position_kernel(grid), gaussian_packet(small_grid, 0.0, 1.0))

    def test_two_particle_discrepancy(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 10.0, 1.0)
        kernel = position_kernel(grid)
        value = expectation_two_particle(
            kernel, symmetrize(psi, phi, ExchangeSymmetry.BOSON)
        )
        assert abs(value - 10.0) < 1e-5

    def test_two_particle_identity_counts_particles(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 10.0, 1.0)
        value = expectation_two_particle(
            identity_kernel(grid), symmetrize(psi, phi, ExchangeSymmetry.BOSON)
        )
        assert abs(value - 2.0) < 1e-6

    def test_sign_independence_for_disjoint_packets(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 10.0, 1.0)
        kernel = position_kernel(grid)
        boson = expectation_two_particle(kernel, symmetrize(psi, phi, ExchangeSymmetry.BOSON))
        fermion = expectation_two_particle(
            kernel, symmetrize(psi, phi, ExchangeSymmetry.FERMION)
        )
        assert abs(boson - fermion) < 1e-8

    def test_discrepancy_for_generic_hermitian_kernel(self, small_grid):
        # disjoint packets: overlap ~8e-16, well below the 1e-12 gate
        psi = gaussian_packet(small_grid, -5.0, 0.6)
        phi = gaussian_packet(small_grid, 5.0, 0.6)
        assert abs(psi.inner(phi)) < 1e-12
        rng = np.random.default_rng(13)
        n = small_grid.n_points
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        kernel = KernelOperator(small_grid, (raw + raw.conj().T) / small_grid.dx, hermitian=True)
        expected = expectation_single(kernel, psi) + expectation_single(kernel, phi)
        for sym in (ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION):
            value = expectation_two_particle(kernel, symmetrize(psi, phi, sym))
            assert abs(value - expected) < 1e-6


class TestLocalize:
    def test_zeroes_outside(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        localized = localize(position_kernel(grid), domain)
        outside = ~domain.mask(grid.n_points)
        assert np.all(localized.kernel[outside, :] == 0)
        assert np.all(localized.kernel[:, outside] == 0)

    def test_full_grid_is_identity_operation(self, grid):
        kernel = position_kernel(grid)
        assert np.array_equal(localize(kernel, Domain(((0, grid.n_points),))).kernel, kernel.kernel)

    def test_idempotent(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        once = localize(position_kernel(grid), domain)
        twice = localize(once, domain)
        assert np.array_equal(once.kernel, twice.kernel)


class TestIsDLocal:
    def test_position_kernel_not_local(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        assert not is_d_local(position_kernel(grid), domain, tol=0.0)

    def test_localized_kernel_is_local_exactly(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        localized = localize(position_kernel(grid), domain)
        assert dlocal_residual(localized, domain) == 0.0
        assert is_d_local(localized, domain, tol=0.0)

    def test_zero_kernel(self, grid):
        zero = KernelOperator(grid, np.zeros((grid.n_points, grid.n_points)))
        domain = Domain.from_interval(grid, -1.0, 1.0)
        assert is_d_local(zero, domain, tol=0.0)


class TestAgreementCheck:
    def test_compliant_inputs_agree(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 15.0, 1.0)
        two, single, difference = dlocal_agreement_check(
            position_kernel(grid), domain, psi, phi
        )
        assert difference < 1e-6
        assert abs(single.real) < 1e-6

    def test_unlocalized_kernel_disagrees_by_remote_mean(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 15.0, 1.0)
        kernel = position_kernel(grid)
        two = expectation_two_particle(kernel, symmetrize(psi, phi, ExchangeSymmetry.BOSON))
        single = expectation_single(position_kernel(grid), psi)
        assert abs(abs(two - single) - 15.0) < 1e-4

    def test_identity_kernel(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        psi = gaussian_packet(grid, 0.0, 0.8)
        phi = gaussian_packet(grid, 15.0, 0.8)
        two, single, difference = dlocal_agreement_check(identity_kernel(grid), domain, psi, phi)
        assert abs(two - 1.0) < 1e-6
        assert abs(single - 1.0) < 1e-8
        assert difference < 1e-6

    def test_support_violation(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        straddling = gaussian_packet(grid, 4.0, 1.0)
        remote = gaussian_packet(grid, 15.0, 1.0)
        with pytest.raises(SupportViolation):
            dlocal_agreement_check(position_kernel(grid), domain, straddling, remote)
        inside = gaussian_packet(grid, 0.0, 1.0)
        with pytest.raises(SupportViolation):
            dlocal_agreement_check(position_kernel(grid), domain, inside, straddling)


class TestCollectiveObservable:
    # the collective observable a (x) 1 + 1 (x) a, evaluated on pair states

    def test_number_operator_pattern(self, grid):
        # the indicator of a domain counts the particles inside it
        domain = Domain.from_interval(grid, -5.0, 5.0)
        counting = KernelOperator(
            grid, np.diag(domain.mask(grid.n_points).astype(complex)) / grid.dx, hermitian=True
        )
        inside = gaussian_packet(grid, 0.0, 0.8)
        also_inside = gaussian_packet(grid, -0.5, 0.8)
        outside = gaussian_packet(grid, 15.0, 0.8)
        for sym in (ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION):
            one = expectation_two_particle(counting, symmetrize(inside, outside, sym))
            two = expectation_two_particle(counting, symmetrize(inside, also_inside, sym))
            assert abs(one - 1.0) < 1e-6
            assert abs(two - 2.0) < 1e-6

    def test_product_state_linearity(self, small_grid):
        # identical bosons form the product psi (x) psi: twice the one-particle mean
        rng = np.random.default_rng(11)
        n = small_grid.n_points
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        kernel = KernelOperator(small_grid, (raw + raw.conj().T) / small_grid.dx, hermitian=True)
        psi = gaussian_packet(small_grid, 1.0, 0.9)
        pair = symmetrize(psi, psi, ExchangeSymmetry.BOSON)
        value = expectation_two_particle(kernel, pair)
        assert abs(value - 2 * expectation_single(kernel, psi)) < 1e-10

    def test_commutes_with_exchange(self, small_grid):
        # swapping the orbitals only flips the global sign of a fermion pair
        rng = np.random.default_rng(12)
        n = small_grid.n_points
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        kernel = KernelOperator(small_grid, (raw + raw.conj().T) / small_grid.dx, hermitian=True)
        psi = gaussian_packet(small_grid, -1.0, 0.8)
        phi = gaussian_packet(small_grid, 1.5, 1.1)
        for sym in (ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION):
            forward = expectation_two_particle(kernel, symmetrize(psi, phi, sym))
            backward = expectation_two_particle(kernel, symmetrize(phi, psi, sym))
            assert abs(forward - backward) < 1e-10 * max(1.0, abs(forward))


class TestDomain:
    def test_from_mask_builds_runs(self):
        mask = np.array([False, True, True, False, True, False])
        assert Domain.from_mask(mask).index_ranges == ((1, 3), (4, 5))

    def test_rejects_overlapping_ranges(self):
        with pytest.raises(ValueError):
            Domain(((0, 4), (3, 6)))

    def test_closed_interval_includes_endpoints(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        mask = domain.mask(grid.n_points)
        coords = grid.coordinates
        assert mask[coords == -5.0].all() and mask[coords == 5.0].all()
