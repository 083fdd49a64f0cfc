"""A lattice run reaches the pair algebra through the public lattice functions.

Every public function of ``lattice`` is wrapped, in the ``lattice``
namespace and wherever ``runner`` binds it, to record that it was called;
each lattice demo then runs through ``run_scenario``.  The private helpers
that once carried the run path are gone, as are the public wrappers that
once bundled its pair and domain checks, and the runner binds no private
lattice name.  A ``dlocal`` document whose first packet straddles the
domain fails the run's domain-local check with the support message.
"""

import inspect
import json
from importlib import resources

import pytest

from pointerlab import cli, lattice, load_scenario, run_scenario, runner

PACKETS = {"gaussian_packet", "position_kernel"}
PAIR_VALUE = {"orbital_elements", "expectation_two_particle"}
DOMAIN_CHECK = {"require_support", "localize", "dlocal_residual"}
DELETED = (
    "_orbital_elements",
    "_pair_expectation",
    "_dlocal_agreement",
    "_exterior_residual",
    "_localize",
    "_orbitals",
    "_overlaps",
    "DLocalAgreement",
    "dlocal_agreement_check",
    "symmetrize",
)


@pytest.mark.parametrize(
    "demo, needed",
    [
        ("discrepancy.json", PACKETS | PAIR_VALUE),
        ("dlocal_agreement.json", PACKETS | PAIR_VALUE | DOMAIN_CHECK),
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


def test_a_straddling_first_packet_fails_the_domain_local_check(tmp_path, capsys):
    demo = resources.files("pointerlab").joinpath("scenarios", "dlocal_agreement.json")
    document = json.loads(demo.read_text())
    document["packets"][0]["center"] = 5.0  # on the domain's upper edge
    path = tmp_path / "straddling.json"
    path.write_text(json.dumps(document))
    assert cli.main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: domain-local check: first packet leaves 4.844e-01 probability outside the domain\n"
    )
