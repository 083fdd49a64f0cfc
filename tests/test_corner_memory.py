"""Traced memory of a run at the corners of the size caps, stage by stage.

Each row runs a document at a corner of ``DENSE_DIM_CAP`` or
``GRID_POINTS_MAX`` through ``helpers.traced_stages``.  A stage's growth is
bounded by one closed form in complex entries (16 bytes) plus ``OVERHEAD``:
the shape is ``ds``, ``da``, ``K``, the ``r`` kept sectors and the grid's
``n``, and ``e`` and ``t`` are 1 for an explicit eigenbasis and transfer
family.  What a stage keeps is part of its growth, so the run's peak is
bounded by the sum of its forms.  A ``ds x ds`` array past an explicit
family's Gram check, a ``D x D`` one or a dense ``n x n`` kernel breaks them.
At the square corner the objectify and compare forms together stay under
one ``D x r`` branch matrix (4 MiB), so no branch column is formed there.
"""

from types import SimpleNamespace

import pytest

from pointerlab.scenario import validate_scenario_data
from pointerlab.tolerances import GRAM_STACK_ENTRIES, GRID_POINTS_MAX, PROBABILITY_FLOOR
from helpers import canonical_measurement, haar_measurement, lattice_document, traced_stages

OVERHEAD = 1024

STAGE_ENTRIES = {
    # per explicit family, the runner's matrix, the spec's copy, its conjugate
    # and their product; the initial state; the pointers
    "build spec": lambda s: 4 * (s.e + s.t) * s.ds**2 + 4 * s.ds + 5 * s.da * s.K,
    # B, its reconstruction and the apparatus marginal's trace distance; the
    # sector vectors; the pointer mixture
    "premeasure": lambda s: 8 * s.ds * s.da + 4 * s.ds * s.K + 5 * s.da * s.K,
    # the gemenge factors; one chunk of the Gram stack and its running sum
    "objectify": lambda s: (
        3 * s.r * s.ds + 4 * s.r * s.da + 2 * min(s.K * s.r**2, GRAM_STACK_ENTRIES)
    ),
    # the witness cores; the marginals and their trace distances
    "compare": lambda s: 3 * s.ds + 8 * s.ds * s.da + 4 * s.r * s.da,
    "lattice setup": lambda s: 6 * s.n,
    "symmetrization": lambda s: 8 * s.n,
    "domain-local check": lambda s: 9 * s.n,
}


CORNERS = {
    "square": (lambda: canonical_measurement([1] * 64), dict(ds=64, da=64, K=64)),
    "tall-1024": (lambda: canonical_measurement([512, 512]), dict(ds=1024, da=2, K=2)),
    "tall-4096": (lambda: canonical_measurement([4096]), dict(ds=4096, da=1, K=1)),
    "haar-512": (lambda: haar_measurement(8, 64), dict(ds=512, da=8, K=8, e=1, t=1)),
    "wide": (
        lambda: canonical_measurement([1], 4096, "system_observable"),
        dict(ds=1, da=4096, K=1),
    ),
    "symmetrization": (
        lambda: lattice_document("symmetrization", GRID_POINTS_MAX, 10.0),
        dict(n=GRID_POINTS_MAX),
    ),
    "dlocal": (lambda: lattice_document("dlocal", GRID_POINTS_MAX, 15.0), dict(n=GRID_POINTS_MAX)),
}


@pytest.mark.parametrize("corner", CORNERS)
def test_each_stage_grows_within_its_closed_form(corner):
    document, shape = CORNERS[corner]
    report, growth, run_peak = traced_stages(validate_scenario_data(document()))
    assert report.all_passed, [v.name for v in report.verdicts if not v.passed]
    probabilities = [p for key, p in report.values.items() if key.startswith("probability_")]
    sizes = SimpleNamespace(**{"ds": 0, "da": 0, "K": 0, "n": 0, "e": 0, "t": 0, **shape})
    sizes.r = sum(p >= PROBABILITY_FLOOR for p in probabilities)
    bounds = {name: 16 * (STAGE_ENTRIES[name](sizes) + OVERHEAD) for name in growth}
    for name, grown in growth.items():
        assert grown < bounds[name], f"{name}: {grown} of {bounds[name]} bytes"
    assert run_peak < sum(bounds.values()), f"run: {run_peak} bytes"
