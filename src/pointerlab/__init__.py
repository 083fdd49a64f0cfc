"""Measurement-chain simulator: exchange symmetrization of identical
particles, domain-local observables, unitary pointer premeasurement, and the
deterministic objectification map, with diagnostics for the correlations the
non-unitary step erases.

Importing the package loads none of its layers.  Each public name, and each
submodule as an attribute, is imported from its module on first access
(PEP 562) and then cached here, so a command that runs a lattice scenario
never loads the premeasurement layers, and one that runs a BCL scenario never
loads the lattice.
"""

from importlib import import_module

_EXPORTS = {
    name: module
    for module, names in (
        (
            "errors",
            "BasisNotOrthonormal CapacityExceeded DimensionMismatch GridMismatch "
            "MeasurementConditionViolated NullState ParseError PointerlabError RunStageError "
            "ScenarioError SpecInvalid SupportViolation UnresolvableWidth ValidationError",
        ),
        (
            "hilbert",
            "DensityMatrix KroneckerProduct StateVector outer partial_trace "
            "trace_distance von_neumann_entropy",
        ),
        (
            "lattice",
            "DLocalAgreement Domain ExchangeSymmetry KernelOperator LatticeGrid "
            "LatticeWavefunction TwoParticleWavefunction dlocal_agreement_check dlocal_residual "
            "expectation_two_particle gaussian_packet localize orbital_elements position_kernel "
            "symmetrize",
        ),
        (
            "objectification",
            "CorrelationReport GemengeDecomposition apply_rule2 compare_states "
            "observable_witness pointer_block_coherence shift_witness",
        ),
        ("premeasurement", "BclSpec PremeasurementResult premeasure"),
        ("runner", "RunReport Verdict emit_report render_report run_scenario"),
        ("scenario", "ScenarioConfig load_scenario"),
    )
    for name in names.split()
}

_SUBMODULES = (
    "cli errors hilbert lattice objectification premeasurement runner scenario tolerances".split()
)

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
