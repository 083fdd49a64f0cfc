"""A lattice run reaches the pair algebra through the public lattice functions.

Every public function of ``lattice`` is wrapped, in the ``lattice``
namespace and wherever ``runner`` binds it, to record that it was called;
each lattice demo then runs through ``run_scenario``.  The private helpers
that once carried the run path are gone, and the runner binds no private
lattice name.
"""

import inspect
from importlib import resources

import pytest

from pointerlab import lattice, load_scenario, run_scenario, runner

PACKETS_AND_PAIRS = {"gaussian_packet", "position_kernel", "symmetrize"}
PAIR_VALUE = {"orbital_elements", "expectation_two_particle"}
DOMAIN_CHECK = {"dlocal_agreement_check", "localize", "dlocal_residual"}
DELETED = (
    "_orbital_elements",
    "_pair_expectation",
    "_dlocal_agreement",
    "_exterior_residual",
    "_localize",
)


@pytest.mark.parametrize(
    "demo, needed",
    [
        ("discrepancy.json", PACKETS_AND_PAIRS | PAIR_VALUE),
        ("dlocal_agreement.json", PACKETS_AND_PAIRS | PAIR_VALUE | DOMAIN_CHECK),
    ],
)
def test_a_lattice_run_calls_the_public_functions(monkeypatch, demo, needed):
    called = set()

    def recording(name, function):
        def wrapper(*args, **kwargs):
            called.add(name)
            return function(*args, **kwargs)

        return wrapper

    for name in lattice.__all__:
        function = getattr(lattice, name)
        if not inspect.isfunction(function):
            continue
        wrapper = recording(name, function)
        monkeypatch.setattr(lattice, name, wrapper)
        if getattr(runner, name, None) is function:
            monkeypatch.setattr(runner, name, wrapper)
    with resources.as_file(resources.files("pointerlab").joinpath("scenarios", demo)) as path:
        report = run_scenario(load_scenario(path))
    assert report.all_passed
    assert needed <= called, needed - called


def test_the_private_twins_are_gone():
    for name in DELETED:
        assert not hasattr(lattice, name)
        assert not hasattr(runner, name)
    private_lattice_names = [
        name
        for name, value in vars(runner).items()
        if name.startswith("_") and getattr(value, "__module__", None) == lattice.__name__
    ]
    assert private_lattice_names == []
