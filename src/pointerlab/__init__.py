"""Measurement-chain simulator: exchange symmetrization of identical
particles, domain-local observables, unitary pointer premeasurement, and the
deterministic objectification map, with diagnostics for the correlations the
non-unitary step erases."""

from .errors import (
    BasisNotOrthonormal,
    CapacityExceeded,
    DimensionMismatch,
    GridMismatch,
    MeasurementConditionViolated,
    NullState,
    ParseError,
    PointerlabError,
    RunStageError,
    ScenarioError,
    SpecInvalid,
    SupportViolation,
    UnresolvableWidth,
    ValidationError,
)
from .hilbert import (
    DensityMatrix,
    KroneckerProduct,
    ProductSpace,
    StateVector,
    outer,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from .lattice import (
    DLocalAgreement,
    Domain,
    ExchangeSymmetry,
    KernelOperator,
    LatticeGrid,
    LatticeWavefunction,
    TwoParticleWavefunction,
    dlocal_agreement_check,
    dlocal_residual,
    expectation_two_particle,
    gaussian_packet,
    localize,
    orbital_elements,
    position_kernel,
    symmetrize,
)
from .objectification import (
    CorrelationReport,
    GemengeDecomposition,
    apply_rule2,
    compare_states,
    observable_witness,
    pointer_block_coherence,
    shift_witness,
)
from .premeasurement import (
    BclSpec,
    PremeasurementResult,
    apparatus_marginal,
    premeasure,
)
from .runner import RunReport, Verdict, emit_report, render_report, run_scenario
from .scenario import ScenarioConfig, load_scenario

__version__ = "0.1.0"
