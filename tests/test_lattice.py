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
    gaussian_packet,
    localize,
    orbital_elements,
    position_kernel,
    symmetrize,
)

from helpers import expectation_single, hermitian_kernel, pair_expectation, quadrature_inner

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
    return KernelOperator(grid, np.full(grid.n_points, 1.0 / grid.dx))



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
        assert abs(quadrature_inner(psi, phi)) < 1e-12

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

    def test_opposite_exchange_is_the_symmetrized_pair_of_the_other_sign(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 1.5, 1.2)  # overlapping, so the two nu differ
        for sym in ExchangeSymmetry:
            pair = symmetrize(psi, phi, sym)
            other = pair.opposite_exchange()
            direct = symmetrize(psi, phi, ExchangeSymmetry(-sym.sign))
            assert other.exchange is direct.exchange and other.nu == direct.nu
            assert other.first is psi and other.second is phi and other.overlaps is pair.overlaps
        with pytest.raises(NullState):
            symmetrize(psi, psi, ExchangeSymmetry.BOSON).opposite_exchange()

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

    def test_record_derives_its_normalization(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 1.5, 1.2)
        for sym in ExchangeSymmetry:
            direct = TwoParticleWavefunction(psi, phi, sym)
            built = symmetrize(psi, phi, sym)
            assert direct.nu == built.nu
            assert np.array_equal(direct.overlaps, built.overlaps)
        with pytest.raises(TypeError):
            TwoParticleWavefunction(psi, phi, ExchangeSymmetry.BOSON, 0.5)
        with pytest.raises(NullState):
            TwoParticleWavefunction(psi, psi, ExchangeSymmetry.FERMION)


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
        # a run reads the one-particle expectations from orbital_elements
        psi = gaussian_packet(small_grid, 0.0, 1.0)
        pair = symmetrize(psi, psi, ExchangeSymmetry.BOSON)
        with pytest.raises(GridMismatch):
            orbital_elements(position_kernel(grid), pair)

    def test_two_particle_discrepancy(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 10.0, 1.0)
        kernel = position_kernel(grid)
        value = pair_expectation(kernel, symmetrize(psi, phi, ExchangeSymmetry.BOSON))
        assert abs(value - 10.0) < 1e-5

    def test_two_particle_identity_counts_particles(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 10.0, 1.0)
        value = pair_expectation(
            identity_kernel(grid), symmetrize(psi, phi, ExchangeSymmetry.BOSON)
        )
        assert abs(value - 2.0) < 1e-6

    def test_sign_independence_for_disjoint_packets(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 10.0, 1.0)
        kernel = position_kernel(grid)
        boson = pair_expectation(kernel, symmetrize(psi, phi, ExchangeSymmetry.BOSON))
        fermion = pair_expectation(kernel, symmetrize(psi, phi, ExchangeSymmetry.FERMION))
        assert abs(boson - fermion) < 1e-8

    def test_discrepancy_for_generic_hermitian_kernel(self, small_grid):
        # disjoint packets: overlap ~8e-16, well below the 1e-12 gate
        psi = gaussian_packet(small_grid, -5.0, 0.6)
        phi = gaussian_packet(small_grid, 5.0, 0.6)
        assert abs(quadrature_inner(psi, phi)) < 1e-12
        kernel = hermitian_kernel(small_grid, 13)
        expected = expectation_single(kernel, psi) + expectation_single(kernel, phi)
        for sym in (ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION):
            value = pair_expectation(kernel, symmetrize(psi, phi, sym))
            assert abs(value - expected) < 1e-6


class TestLocalize:
    def test_zeroes_outside(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        localized = localize(position_kernel(grid), domain)
        outside = ~domain.points
        # off the diagonal every entry is an exact zero already
        assert np.all(localized.entries[outside] == 0)

    def test_full_grid_is_identity_operation(self, grid):
        kernel = position_kernel(grid)
        whole = Domain(grid, np.ones(grid.n_points, bool))
        assert np.array_equal(localize(kernel, whole).entries, kernel.entries)

    def test_idempotent(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        once = localize(position_kernel(grid), domain)
        twice = localize(once, domain)
        assert np.array_equal(once.entries, twice.entries)


class TestIsDLocal:
    def test_position_kernel_not_local(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        assert dlocal_residual(position_kernel(grid), domain) > 0.0

    def test_localized_kernel_is_local_exactly(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        localized = localize(position_kernel(grid), domain)
        assert dlocal_residual(localized, domain) == 0.0

    def test_zero_kernel(self, grid):
        zero = KernelOperator(grid, np.zeros(grid.n_points))
        domain = Domain.from_interval(grid, -1.0, 1.0)
        assert dlocal_residual(zero, domain) == 0.0


class TestAgreementCheck:
    def test_compliant_inputs_agree(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 15.0, 1.0)
        check = dlocal_agreement_check(position_kernel(grid), domain, psi, phi)
        assert check.difference < 1e-6
        assert abs(check.single.real) < 1e-6

    def test_unlocalized_kernel_disagrees_by_remote_mean(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 15.0, 1.0)
        kernel = position_kernel(grid)
        two = pair_expectation(kernel, symmetrize(psi, phi, ExchangeSymmetry.BOSON))
        single = expectation_single(position_kernel(grid), psi)
        assert abs(abs(two - single) - 15.0) < 1e-4

    def test_identity_kernel(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        psi = gaussian_packet(grid, 0.0, 0.8)
        phi = gaussian_packet(grid, 15.0, 0.8)
        check = dlocal_agreement_check(identity_kernel(grid), domain, psi, phi)
        assert abs(check.two_particle - 1.0) < 1e-6
        assert abs(check.single - 1.0) < 1e-8
        assert check.difference < 1e-6

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
        counting = KernelOperator(grid, domain.points / grid.dx)
        inside = gaussian_packet(grid, 0.0, 0.8)
        also_inside = gaussian_packet(grid, -0.5, 0.8)
        outside = gaussian_packet(grid, 15.0, 0.8)
        for sym in (ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION):
            one = pair_expectation(counting, symmetrize(inside, outside, sym))
            two = pair_expectation(counting, symmetrize(inside, also_inside, sym))
            assert abs(one - 1.0) < 1e-6
            assert abs(two - 2.0) < 1e-6

    def test_product_state_linearity(self, small_grid):
        # identical bosons form the product psi (x) psi: twice the one-particle mean
        kernel = hermitian_kernel(small_grid, 11)
        psi = gaussian_packet(small_grid, 1.0, 0.9)
        pair = symmetrize(psi, psi, ExchangeSymmetry.BOSON)
        value = pair_expectation(kernel, pair)
        assert abs(value - 2 * expectation_single(kernel, psi)) < 1e-10

    def test_commutes_with_exchange(self, small_grid):
        # swapping the orbitals only flips the global sign of a fermion pair
        kernel = hermitian_kernel(small_grid, 12)
        psi = gaussian_packet(small_grid, -1.0, 0.8)
        phi = gaussian_packet(small_grid, 1.5, 1.1)
        for sym in (ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION):
            forward = pair_expectation(kernel, symmetrize(psi, phi, sym))
            backward = pair_expectation(kernel, symmetrize(phi, psi, sym))
            assert abs(forward - backward) < 1e-10 * max(1.0, abs(forward))


class TestDomain:
    def test_mask_refuses_another_size(self, grid):
        for n_points in (grid.n_points - 1, grid.n_points + 1):
            with pytest.raises(ValueError, match="domain mask has shape"):
                Domain(grid, np.ones(n_points, bool))

    def test_a_domain_on_another_grid_is_refused(self, grid):
        # same size, shifted by 20: a bare mask of 512 flags would fit either grid
        shifted = LatticeGrid(0.0, 40.0 / 512, 512)
        domain = Domain.from_interval(shifted, 15.0, 25.0)
        kernel = position_kernel(grid)
        psi = gaussian_packet(grid, 0.0, 1.0)
        phi = gaussian_packet(grid, 15.0, 1.0)
        with pytest.raises(GridMismatch):
            localize(kernel, domain)
        with pytest.raises(GridMismatch):
            dlocal_residual(kernel, domain)
        with pytest.raises(GridMismatch):
            dlocal_agreement_check(kernel, domain, psi, phi)

    def test_from_interval_mask_is_exactly_the_closed_interval(self, grid):
        lower, upper = -5.0, 5.3
        mask = Domain.from_interval(grid, lower, upper).points
        coords = grid.coordinates
        assert np.array_equal(mask, (lower <= coords) & (coords <= upper))
        assert not mask.flags.writeable

    def test_closed_interval_includes_endpoints(self, grid):
        domain = Domain.from_interval(grid, -5.0, 5.0)
        mask = domain.points
        coords = grid.coordinates
        assert mask[coords == -5.0].all() and mask[coords == 5.0].all()
