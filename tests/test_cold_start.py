"""A fresh process loads only the layers of the scenario kind it runs.

Each check runs in a new interpreter that imports numpy first and then
records which ``pointerlab`` modules (and ``csv``) the statements under test
add to ``sys.modules``.  The package itself resolves its public names on
first access, so the second half pins that API: its 53 names, each the
object its defining module holds.
"""

import importlib

import pytest

import pointerlab
from helpers import loaded_after_numpy

BCL_LAYERS = {"pointerlab.hilbert", "pointerlab.premeasurement", "pointerlab.objectification"}
SCENARIO_LAYERS = BCL_LAYERS | {"pointerlab.lattice"}

PUBLIC = {
    **dict.fromkeys(
        [
            "BasisNotOrthonormal",
            "CapacityExceeded",
            "DimensionMismatch",
            "GridMismatch",
            "MeasurementConditionViolated",
            "NullState",
            "ParseError",
            "PointerlabError",
            "RunStageError",
            "ScenarioError",
            "SpecInvalid",
            "SupportViolation",
            "UnresolvableWidth",
            "ValidationError",
        ],
        "errors",
    ),
    **dict.fromkeys(
        [
            "DensityMatrix",
            "KroneckerProduct",
            "StateVector",
            "outer",
            "partial_trace",
            "trace_distance",
            "von_neumann_entropy",
        ],
        "hilbert",
    ),
    **dict.fromkeys(
        [
            "DLocalAgreement",
            "Domain",
            "ExchangeSymmetry",
            "KernelOperator",
            "LatticeGrid",
            "LatticeWavefunction",
            "TwoParticleWavefunction",
            "dlocal_agreement_check",
            "dlocal_residual",
            "expectation_two_particle",
            "gaussian_packet",
            "localize",
            "orbital_elements",
            "position_kernel",
            "symmetrize",
        ],
        "lattice",
    ),
    **dict.fromkeys(
        [
            "CorrelationReport",
            "GemengeDecomposition",
            "apply_rule2",
            "compare_states",
            "observable_witness",
            "pointer_block_coherence",
            "shift_witness",
        ],
        "objectification",
    ),
    **dict.fromkeys(["BclSpec", "PremeasurementResult", "premeasure"], "premeasurement"),
    **dict.fromkeys(
        ["RunReport", "Verdict", "emit_report", "render_report", "run_scenario"], "runner"
    ),
    **dict.fromkeys(["ScenarioConfig", "load_scenario"], "scenario"),
}


def loaded_by(statements: str) -> set[str]:
    """The ``pointerlab`` modules and ``csv`` that ``statements`` load after numpy."""
    return {m for m in loaded_after_numpy(statements) if m.startswith("pointerlab") or m == "csv"}


def test_importing_the_package_loads_no_layer():
    assert loaded_by("import pointerlab") == {"pointerlab"}


def test_importing_the_cli_loads_no_scenario_layer():
    loaded = loaded_by("from pointerlab import cli")
    assert {"pointerlab.cli", "pointerlab.runner", "pointerlab.scenario"} <= loaded
    assert not loaded & (SCENARIO_LAYERS | {"csv"})


@pytest.mark.parametrize(
    "demo, fmt, needed",
    [
        ("discrepancy", "json", {"pointerlab.lattice"}),
        ("dlocal-agreement", "csv", {"pointerlab.lattice"}),  # the CSV writer needs no csv
        ("bcl-qubit", "json", {"pointerlab.hilbert", "pointerlab.premeasurement"}),
        ("rule2-qubit", "json", BCL_LAYERS),
    ],
)
def test_a_demo_loads_only_the_layers_of_its_kind(tmp_path, demo, fmt, needed):
    out = str(tmp_path / f"report.{fmt}")
    loaded = loaded_by(
        "from pointerlab import cli; "
        f"assert cli.main(['demo', {demo!r}, '--format', {fmt!r}, '--out', {out!r}]) == 0"
    )
    assert needed <= loaded
    assert not loaded & (SCENARIO_LAYERS | {"csv"}) - needed


def test_every_public_name_is_listed_and_is_its_modules_object():
    assert sorted(pointerlab.__all__) == sorted(PUBLIC)
    listed = dir(pointerlab)
    for name, module in PUBLIC.items():
        assert name in listed, name
        defining = importlib.import_module(f"pointerlab.{module}")
        assert getattr(pointerlab, name) is getattr(defining, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from pointerlab import *", namespace)
    # without __all__ it also bound the eight submodules the old eager imports loaded
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_a_submodule_is_an_attribute_of_a_fresh_package():
    loaded = loaded_by("import pointerlab; pointerlab.lattice.symmetrize")
    assert "pointerlab.lattice" in loaded
    assert not loaded & BCL_LAYERS


def test_an_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="^module 'pointerlab' has no attribute 'symmetrise'$"):
        pointerlab.symmetrise


def test_version_is_unchanged():
    assert pointerlab.__version__ == "0.1.0"
