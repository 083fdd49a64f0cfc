"""Shared generators, test-only constructors and dense references for the tests."""

import argparse
import contextlib
import csv
import io
import os
import subprocess
import sys
import tracemalloc

import numpy as np

import pointerlab
from pointerlab import (
    BclSpec,
    DensityMatrix,
    Domain,
    ExchangeSymmetry,
    LatticeGrid,
    StateVector,
    TwoParticleWavefunction,
    dlocal_residual,
    expectation_two_particle,
    gaussian_packet,
    localize,
    orbital_elements,
    position_kernel,
    premeasure,
    require_support,
    run_scenario,
    runner,
)
from pointerlab.runner import _float_repr, _write_json
from pointerlab.tolerances import ENTROPY_EIGENVALUE_FLOOR, INVARIANT_TOL


def basis_state(dim, index):
    """Canonical basis vector ``e_index`` in ``dim`` dimensions, as a state."""
    return StateVector(np.eye(dim)[index])


def canonical_spec(eigenvalues, degeneracies, apparatus_dim=None):
    """Spec over canonical basis vectors, transfer family equal to the eigenbasis.

    The eigenvectors are ``e_0, e_1, ...`` in sector order, held as ``None``,
    pointer ``k`` is ``e_k`` and the ready state ``e_0``.
    """
    if apparatus_dim is None:
        apparatus_dim = len(eigenvalues)
    return BclSpec(
        eigenvalues=tuple(eigenvalues),
        degeneracies=tuple(degeneracies),
        eigenvectors=None,
        transfer=None,
        pointers=np.eye(apparatus_dim, len(eigenvalues), dtype=complex),
        ready_state=basis_state(apparatus_dim, 0),
    )


def product_result(u, v):
    """``u (x) v``: ``u`` premeasured by one sector whose pointer and ready state are ``v``."""
    spec = BclSpec(
        eigenvalues=(1.0,),
        degeneracies=(u.dim,),
        eigenvectors=None,
        transfer=None,
        pointers=v.amplitudes[:, None],
        ready_state=v,
    )
    return premeasure(spec, u)


def eigenbasis(spec):
    """The spec's eigenbasis ``E`` as an array: the identity where the spec holds ``None``."""
    if spec.eigenvectors is None:
        return np.eye(spec.system_dim, dtype=complex)
    return spec.eigenvectors


def transfer_family(spec):
    """The spec's transfer family ``T`` as an array: ``E`` where the spec holds ``None``."""
    return eigenbasis(spec) if spec.transfer is None else spec.transfer


def dense(rho):
    """The dense matrix ``(V * w) @ V^dagger`` of a ``DensityMatrix``."""
    return (rho.columns * rho.weights) @ rho.columns.conj().T


def from_dense(matrix):
    """The ``DensityMatrix`` of a dense Hermitian matrix, as the eigenpairs of one ``eigh``.

    A matrix that is not Hermitian within ``INVARIANT_TOL`` is refused.  Rows
    that are exactly zero carry no weight, so ``eigh`` runs on the remaining
    support only and the eigenvectors keep exact zeros there.  Eigenvalues
    within ``INVARIANT_TOL`` below zero are roundoff and set to zero; a more
    negative one reaches the mixture as a negative weight, which it refuses.
    """
    matrix = np.array(matrix, dtype=complex)
    deviation = float(np.abs(matrix - matrix.conj().T).max())
    if not deviation <= INVARIANT_TOL:
        raise ValueError(f"density matrix not Hermitian; deviation {deviation:.3e}")
    nonzero = matrix != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    eigenvalues, eigenvectors = np.linalg.eigh(matrix[np.ix_(support, support)])
    columns = np.zeros((len(matrix), support.size), dtype=complex)
    columns[support] = eigenvectors
    eigenvalues[(eigenvalues < 0.0) & (eigenvalues >= -INVARIANT_TOL)] = 0.0
    return DensityMatrix(columns=columns, weights=eigenvalues)


class DenseKernel:
    """A dense ``(n, n)`` kernel with the ``grid`` and ``apply`` of a ``KernelOperator``.

    ``orbital_elements`` reads nothing else, so non-local kernels reach the
    pair formulas through it.
    """

    def __init__(self, grid, matrix):
        self.grid, self.matrix = grid, np.asarray(matrix, dtype=complex)
        assert self.matrix.shape == (grid.n_points, grid.n_points)

    def apply(self, values):
        return self.matrix @ values


def hermitian_kernel(grid, seed):
    """A seeded generic non-local Hermitian ``DenseKernel``, in units of ``1/dx``."""
    rng = np.random.default_rng(seed)
    n = grid.n_points
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return DenseKernel(grid, (raw + raw.conj().T) / grid.dx)


def expectation_single(kernel, psi):
    """Quadrature expectation ``dx^2 * sum conj(psi_i) a_ij psi_j`` of a kernel in one orbital."""
    return complex(kernel.grid.dx**2 * np.vdot(psi.values, kernel.apply(psi.values)))


def quadrature_inner(psi, phi):
    """Quadrature inner product ``dx * sum(conj(psi) * phi)`` of two orbitals on one grid."""
    return complex(psi.grid.dx * np.vdot(psi.values, phi.values))


def kronecker_entries(witness):
    """Dense matrix ``kron(M T M^dagger, N S N^dagger)`` of a ``KroneckerProduct``.

    Each core is formed as ``diag(d) + diag(e, 1) + diag(e, -1)``, and a
    factor without a basis takes the identity on its core's length as ``M``.
    """
    factors = []
    for basis, d, e in (witness.system, witness.apparatus):
        basis = np.eye(len(d)) if basis is None else basis
        factors.append(basis @ (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)) @ basis.conj().T)
    return np.kron(*factors)


def json_text(value):
    """JSON text of ``value`` from the report writer, without a trailing newline."""
    out = []
    _write_json(out, value, "\n")
    return "".join(out)


def payload_document(report):
    """A report's deterministic ``payload`` section as a dict: everything except timing."""
    return {
        "scenario": report.scenario,
        "values": dict(report.values),
        "verdicts": [
            {"name": v.name, "residual": v.residual, "tolerance": v.tolerance, "passed": v.passed}
            for v in report.verdicts
        ],
    }


def payload_text(report):
    """JSON text of a report's deterministic ``payload`` section."""
    return json_text(payload_document(report))


def nul_placeholder(text):
    """A character that ``text`` does not hold, to stand in for NUL around the ``csv`` module.

    The Python 3.10 ``csv`` module refuses NUL, in a written field and in a
    read line; later versions write and read it as any other character.
    """
    return next(char for char in map(chr, range(0xE000, 0xF900)) if char not in text)


def csv_text(report):
    """CSV text of a report from ``csv.writer``, as the runner wrote it before it wrote its own rows.

    Each row is written with the ``\\r\\n`` terminator, under which
    ``csv.QUOTE_MINIMAL`` quotes a field holding ``\\r`` or ``\\n`` on every
    Python version, and its final ``\\r\\n`` then becomes ``\\n``.  A NUL is
    written as a :func:`nul_placeholder`, which no field holds and which
    ``csv`` quotes as it quotes NUL (not at all), and swapped back after.
    """
    rows = [["metric", "value", "tolerance", "verdict"]]
    rows += [[key, _float_repr(value), "", ""] for key, value in report.values.items()]
    rows += [
        [
            verdict.name,
            _float_repr(verdict.residual),
            _float_repr(verdict.tolerance),
            "pass" if verdict.passed else "fail",
        ]
        for verdict in report.verdicts
    ]
    lines = []
    for row in rows:
        placeholder = nul_placeholder("".join(row))
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(
            [field.replace("\0", placeholder) for field in row]
        )
        lines.append(buffer.getvalue().removesuffix("\r\n").replace(placeholder, "\0") + "\n")
    return "".join(lines)


def random_unitary(rng, n):
    """Haar-ish random unitary from a QR-decomposed complex Gaussian."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_state(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(z / np.linalg.norm(z))


def random_bcl_spec(
    rng, degeneracies, apparatus_dim=None, transfer="sector_unitary", canonical=False
):
    """Random valid spec; the transfer family keeps cross-sector orthonormality.

    The eigenbasis is Haar-random, or the identity (``None``) if
    ``canonical``.  transfer="identity" is the default family (``None``, the
    eigenbasis itself); "sector_unitary" mixes each sector by its own random
    unitary (a block-diagonal rotation, which preserves the measurement
    condition).
    """
    degeneracies = tuple(int(d) for d in degeneracies)
    sectors = len(degeneracies)
    system_dim = sum(degeneracies)
    if apparatus_dim is None:
        apparatus_dim = sectors

    eigenvectors = None if canonical else random_unitary(rng, system_dim)
    pointers = random_unitary(rng, apparatus_dim)[:, :sectors]

    if transfer == "identity":
        transfer_columns = None
    elif transfer == "sector_unitary":
        basis = np.eye(system_dim) if canonical else eigenvectors
        bounds = np.cumsum([0, *degeneracies])
        transfer_columns = np.hstack(
            [
                basis[:, lo:hi] @ random_unitary(rng, hi - lo)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        )
    else:
        raise ValueError(f"unknown transfer mode {transfer!r}")

    eigenvalues = tuple(float(k) + rng.uniform(0.0, 0.25) for k in range(sectors))
    return BclSpec(
        eigenvalues=eigenvalues,
        degeneracies=degeneracies,
        eigenvectors=eigenvectors,
        transfer=transfer_columns,
        pointers=pointers,
        ready_state=random_state(rng, apparatus_dim),
    )


def extension_images_residual(spec):
    """``max_c ||U (e_c (x) ready) - t_c (x) pi_k(c)||`` from the run's own images.

    ``U (e_c (x) ready)`` is the final state of premeasuring the eigenvector
    ``e_c``, less the prescribed image ``t_c (x) pi_k(c)``.
    """
    sector_pointers = np.repeat(spec.pointers, spec.degeneracies, axis=1)
    eigenvectors, transfer = eigenbasis(spec), transfer_family(spec)
    return max(
        float(
            np.linalg.norm(
                premeasure(spec, StateVector(eigenvectors[:, c])).final_state.amplitudes
                - np.kron(transfer[:, c], sector_pointers[:, c])
            )
        )
        for c in range(spec.system_dim)
    )


def qr_unitary(spec, completion_seed=0):
    """The dense premeasurement unitary of a spec, completed by QR: the one dense oracle.

    The domain columns ``e (x) ready`` and the range columns ``t (x) pointer``
    are each completed to a full orthonormal basis with one complete-mode
    QR, and ``U = range_full @ domain_full^dagger``.  A nonzero
    ``completion_seed`` re-pairs the range complement through a seeded Haar
    unitary, a second valid completion that differs off the fixed columns.
    """
    pointers = np.repeat(spec.pointers, spec.degeneracies, axis=1)
    total_dim = spec.system_dim * spec.apparatus_dim
    domain = np.einsum("ic,j->ijc", eigenbasis(spec), spec.ready_state.amplitudes)
    image = np.einsum("ic,jc->ijc", transfer_family(spec), pointers)
    domain, image = domain.reshape(total_dim, -1), image.reshape(total_dim, -1)
    completed = []
    for columns in (domain, image):
        basis, _ = np.linalg.qr(columns, mode="complete")
        basis[:, : columns.shape[1]] = columns
        completed.append(basis)
    domain_full, range_full = completed
    if completion_seed != 0:
        fixed = image.shape[1]
        free = total_dim - fixed
        rng = np.random.default_rng(completion_seed)
        q, r = np.linalg.qr(rng.normal(size=(free, free)) + 1j * rng.normal(size=(free, free)))
        range_full[:, fixed:] @= q * (np.diag(r) / np.abs(np.diag(r)))
    return range_full @ domain_full.conj().T


def random_degeneracies(rng, system_dim):
    """Random partition of system_dim into at least two sectors when possible."""
    if system_dim == 1:
        return (1,)
    parts = []
    remaining = system_dim
    while remaining > 0:
        if len(parts) == 0 and remaining > 1:
            take = int(rng.integers(1, remaining))  # leave room for a second sector
        else:
            take = int(rng.integers(1, remaining + 1))
        parts.append(take)
        remaining -= take
    return tuple(parts)


def close(value, reference):
    """Elementwise ``|value - reference| <= 1e-12 * max(1, |reference|)``."""
    value, reference = np.asarray(value), np.asarray(reference)
    return bool(np.all(np.abs(value - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference))))


def traced_peak(fn):
    """``fn()`` and the traced peak, in bytes, of what it allocated."""
    tracemalloc.start()
    try:
        value = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak


def traced_stages(scenario):
    """Run ``scenario`` traced: the report, each stage's growth and the run's peak, in bytes.

    A stage's growth is its traced peak above what was traced when it began.
    Resetting the peak at a stage's start resets the run's too, so the run's
    peak is the largest read at a stage's start or end or after the run.
    """
    stage, growth, peaks = runner._stage, {}, []

    @contextlib.contextmanager
    def recorded(name):
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()
        with stage(name):
            yield
        peak = tracemalloc.get_traced_memory()[1]
        peaks.append(peak)
        growth[name] = peak - current

    runner._stage = recorded
    try:
        report, peak = traced_peak(lambda: run_scenario(scenario))
    finally:
        runner._stage = stage
    return report, growth, max(peaks + [peak])


def gemenge_density_matrix(gemenge, dims):
    """Dense oracle of a gemenge: ``sum_k p_k |b_k><b_k|`` over its branch columns.

    Branch ``k`` is ``b_k = Phi_k (x) psi_k``, a column of length
    ``dims[0] * dims[1]``, built by one ``einsum``.
    """
    assert (gemenge.system_states.shape[0], gemenge.pointer_states.shape[0]) == tuple(dims)
    branches = np.einsum("ik,jk->ijk", gemenge.system_states, gemenge.pointer_states)
    columns = branches.reshape(dims[0] * dims[1], -1)
    return DensityMatrix(columns=columns, weights=gemenge.probabilities)


def dense_coherence(rho, pointers, d_system):
    """Frobenius norm of ``sum_{k != l} P_k rho P_l`` with ``P_k = 1 (x) |pi_k><pi_k|``.

    ``pointers`` holds the pointer states ``pi_k`` as columns.
    """
    identity = np.eye(d_system, dtype=complex)
    projectors = [np.kron(identity, np.outer(p, p.conj())) for p in pointers.T]
    off_diagonal = np.zeros_like(rho)
    for k, left in enumerate(projectors):
        for l, right in enumerate(projectors):
            if k != l:
                off_diagonal += left @ rho @ right
    return float(np.linalg.norm(off_diagonal))


def dense_partial_trace(matrix, d_system, d_pointer, keep):
    """The reduced state on factor ``keep`` (0 or 1) of a dense ``D x D`` bipartite matrix."""
    blocks = matrix.reshape(d_system, d_pointer, d_system, d_pointer)
    return np.einsum("ijkj->ik", blocks) if keep == 0 else np.einsum("ijil->jl", blocks)


def dense_entropy(matrix):
    """``-sum(p ln p)`` over the ``eigvalsh`` eigenvalues of a dense state above the floor."""
    eigenvalues = np.linalg.eigvalsh(matrix)
    kept = eigenvalues[eigenvalues > ENTROPY_EIGENVALUE_FLOOR]
    return float(max(0.0, -np.sum(kept * np.log(kept))))


def dense_trace_distance(first, second):
    """``(1/2) ||first - second||_1`` of two dense Hermitian matrices, from ``eigvalsh``."""
    return float(0.5 * np.abs(np.linalg.eigvalsh(first - second)).sum())


def pairs(columns):
    """``[re, im]`` pair lists of each column of a complex matrix."""
    return np.stack([columns.real, columns.imag], axis=-1).transpose(1, 0, 2).tolist()


def canonical_measurement(degeneracies, apparatus_dim=None, witness="sigma_x_pattern"):
    """A canonical ``full_measurement``, eigenvalues ``0, 1, ...``, ``apparatus_dim`` ``K`` by default."""
    state = np.random.default_rng(sum(degeneracies)).normal(size=(sum(degeneracies), 2))
    bcl = {"eigenvalues": list(range(len(degeneracies))), "degeneracies": degeneracies}
    bcl["apparatus_dim"] = apparatus_dim or len(degeneracies)
    return {
        "scenario_kind": "full_measurement",
        "bcl": bcl,
        "initial_state": state.tolist(),
        "witness": witness,
    }


def explicit_document(
    degeneracies, apparatus_dim, eigenbasis, transfer, pointers, state, witness="sigma_x_pattern"
):
    """An explicit-basis ``full_measurement``; ``transfer`` is ``None`` for the default family."""
    bounds = np.cumsum([0, *degeneracies])

    def sectors_of(columns):
        return [pairs(columns[:, lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]

    return {
        "scenario_kind": "full_measurement",
        "bcl": {
            "eigenvalues": [float(k) for k in range(len(degeneracies))],
            "degeneracies": degeneracies,
            "apparatus_dim": apparatus_dim,
            "basis": {
                "system_eigenbasis": sectors_of(eigenbasis),
                "pointer_basis": pairs(pointers),
            },
            "transfer_family": "default" if transfer is None else sectors_of(transfer),
        },
        "initial_state": pairs(state[:, None])[0],
        "witness": witness,
        "tolerances": {"rule2_coherence": 1e-12},
    }


def haar_measurement(sectors, size, witness="sigma_x_pattern"):
    """Haar eigen- and pointer bases and a sector-wise unitary transfer family, ``da = K``.

    ``sectors`` sectors of ``size`` levels each, drawn from a generator seeded by ``size``.
    """
    rng, dim = np.random.default_rng(size), sectors * size
    eigenbasis, pointers = random_unitary(rng, dim), random_unitary(rng, sectors)
    turns = [random_unitary(rng, size) for _ in range(sectors)]
    transfer = np.hstack([block @ turn for block, turn in zip(np.hsplit(eigenbasis, sectors), turns)])
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return explicit_document(
        [size] * sectors, sectors, eigenbasis, transfer, pointers, state, witness
    )


def lattice_document(kind, n_points, second_center):
    """A ``symmetrization`` or ``dlocal`` document on ``[-20, 20)`` with ``n_points`` points.

    The packets have unit width, centred at 0 and ``second_center``, and a
    ``dlocal`` document takes the domain ``[-5, 5]``.
    """
    grid = {"x_min": -20.0, "dx": 40.0 / n_points, "n_points": n_points}
    packets = [{"center": 0.0, "width": 1.0}, {"center": second_center, "width": 1.0}]
    document = {"scenario_kind": kind, "grid": grid, "packets": packets}
    if kind == "dlocal":
        document["domain"] = {"lower": -5.0, "upper": 5.0}
    return document


def haar_document(witness):
    """An explicit-basis ``full_measurement``: degeneracies 2, 1, 3 against a four-level pointer."""
    rng = np.random.default_rng(2024)
    degeneracies = [2, 1, 3]
    eigenbasis, pointers = random_unitary(rng, 6), random_unitary(rng, 4)
    bounds = np.cumsum([0, *degeneracies])
    return {
        "scenario_kind": "full_measurement",
        "bcl": {
            "eigenvalues": [-1.0, 0.5, 2.0],
            "degeneracies": degeneracies,
            "apparatus_dim": 4,
            "basis": {
                "system_eigenbasis": [
                    pairs(eigenbasis[:, lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
                ],
                "pointer_basis": pairs(pointers[:, :3]),
                "ready_state": pairs(pointers[:, 3:])[0],
            },
        },
        "initial_state": rng.normal(size=(6, 2)).tolist(),
        "witness": witness,
        "tolerances": {"rule2_coherence": 1e-12},
    }


def pair_expectation(kernel, pair):
    """The pair expectation of ``kernel`` from its orbital elements over ``pair``."""
    return expectation_two_particle(orbital_elements(kernel, pair)[0], pair)


def lattice_composition(scenario):
    """The values of a validated ``symmetrization`` or ``dlocal`` document, one public call each.

    The per-call oracle of a lattice run: every value comes from its own
    call, so each recomputes the packets' overlaps, the kernel elements, the
    domain mask and the localized kernel it needs, where a run shares them.
    """
    grid = LatticeGrid(**scenario["grid"])
    psi, phi = (gaussian_packet(grid, **packet) for packet in scenario["packets"])
    kernel = position_kernel(grid)
    if scenario["scenario_kind"] == "symmetrization":
        values = {
            "single_particle_position_first": expectation_single(kernel, psi).real,
            "single_particle_position_second": expectation_single(kernel, phi).real,
        }
        for sym in (ExchangeSymmetry.BOSON, ExchangeSymmetry.FERMION):
            pair = TwoParticleWavefunction(psi, phi, sym)
            name = sym.name.lower()
            values[f"two_particle_position_{name}"] = pair_expectation(kernel, pair).real
            values[f"normalization_factor_{name}"] = pair.nu
        values["packet_overlap_abs"] = abs(quadrature_inner(psi, phi))
        return values
    domain = Domain.from_interval(grid, **scenario["domain"])
    require_support(domain, psi, phi, scenario["tolerances"]["support_mass"])

    def boson():
        return TwoParticleWavefunction(psi, phi, ExchangeSymmetry.BOSON)

    two_particle = pair_expectation(localize(kernel, domain), boson())
    two_raw = pair_expectation(kernel, boson()).real
    single = expectation_single(kernel, psi)
    return {
        "dlocal_two_particle_expectation": two_particle.real,
        "single_particle_expectation": single.real,
        "dlocal_difference": abs(two_particle - single),
        "unlocalized_two_particle_expectation": two_raw,
        "unlocalized_difference": abs(two_raw - single.real),
        "dlocal_residual_raw_kernel": dlocal_residual(kernel, domain),
        "dlocal_residual_localized_kernel": dlocal_residual(localize(kernel, domain), domain),
    }


def argparse_oracle(argv):
    """The argparse parser the CLI once used, or ``None`` where it exits.

    Built as it was, apart from ``allow_abbrev=False`` on every parser, so
    that prefix abbreviations, which the direct parser drops, are refused.
    """
    parser = argparse.ArgumentParser(prog="pointerlab", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "validate", "demo"):
        child = sub.add_parser(command, allow_abbrev=False)
        child.add_argument("name" if command == "demo" else "scenario")
        if command != "validate":
            child.add_argument("--format", choices=("json", "csv"), default="json")
            child.add_argument("--out", default=None)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


def loaded_after_numpy(statements, *flags):
    """The modules ``statements`` add to ``sys.modules`` in a fresh interpreter.

    The interpreter (run with ``flags``) imports numpy first, so a module that
    numpy itself loads does not count.  numpy's own directory is appended to
    the path, so ``-S`` still finds it.
    """
    src = os.path.dirname(os.path.dirname(pointerlab.__file__))
    packages = os.path.dirname(os.path.dirname(np.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); sys.path.append({packages!r}); "
        f"import numpy; before = set(sys.modules); {statements}; print(*{{*sys.modules}} - before)"
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())
