"""Centralized numeric tolerances shared by every module.

Double precision leaves about 1e-16 of relative headroom; the constants
below budget for O(dim^3) accumulation in dense linear algebra at dims up
to a few thousand.
"""

#: Construction-time invariant checks (hermiticity, unit trace, orthonormality).
INVARIANT_TOL = 1e-10

#: Direct comparisons between two quantities that should agree to roundoff.
COMPARISON_TOL = 1e-12

#: Spectral weights at or below this floor are treated as exact zeros.
ENTROPY_EIGENVALUE_FLOOR = 1e-12

#: Outcome probabilities below this floor carry no conditional state.
PROBABILITY_FLOOR = 1e-12

#: Largest quadrature probability a packet may leave on the wrong side of a
#: domain in the domain-local agreement check.
SUPPORT_MASS_EPSILON = 1e-6

#: Quadrature normalization tolerance for lattice wavefunctions.
QUADRATURE_NORM_TOL = 1e-8

#: Largest product dimension ``D = system_dim * apparatus_dim`` a scenario may
#: ask for, checked when the scenario is validated.  The run path builds no
#: ``D x D`` array.  Its ``d_system x d_system`` arrays (an explicit eigenbasis
#: or transfer family and its Gram matrix) exist only for explicit bases: a
#: canonical one is held as no array, and the observable witness holds its
#: apparatus identity as a core alone, so the cap bounds run time and memory,
#: not a dense matrix.
DENSE_DIM_CAP = 4096

#: Largest number of complex entries (1 MiB) in one chunk of the ``K x r x r``
#: stack of pointer-block Gram matrices of a gemenge.
GRAM_STACK_ENTRIES = 2**16

#: Largest number of amplitude entries (floats, 512 KiB) converted by one
#: ``np.fromiter`` when a scenario's amplitude family is validated, and
#: formatted by one ``%``-template when the report echoes a nested list of
#: amplitude arrays.  It bounds the Python lists, tuples and strings of one
#: batch; a family or a list larger than this takes several batches.
AMPLITUDE_BATCH_ENTRIES = 2**16

#: Largest number of characters (1 MiB of the ASCII JSON text) that
#: ``emit_report`` joins from the rendered pieces of a report and encodes
#: for one write; a single longer piece, such as a batch of amplitude text,
#: is written on its own.  It bounds the text and bytes held beside the
#: pieces while a report is written.
REPORT_WRITE_BYTES = 2**20

#: Smallest and largest lattice a scenario may ask for; its point count is
#: also a power of two.
GRID_POINTS_MIN = 64
GRID_POINTS_MAX = 4096

#: Packet overlaps at or below this gate count as orthogonal, where the pair
#: normalization factor must approach ``1/sqrt(2)``.
ORTHOGONAL_OVERLAP_GATE = 1e-4

_BCL_TOLERANCES = {
    "probability_sum": 1e-10,
    "probability_formula": 1e-12,
    "unitarity": 1e-10,
    "extension_map": 1e-10,
    "reconstruction": 1e-10,
    "apparatus_marginal": 1e-10,
}

#: Default verdict tolerances of each scenario kind, by verdict name; a
#: scenario's ``tolerances`` object overrides them one by one.
TOLERANCE_DEFAULTS: dict[str, dict[str, float]] = {
    "symmetrization": {
        "discrepancy": 1e-5,
        "exchange_sign_agreement": 1e-8,
        "normalization_factor": 1e-8,
    },
    "dlocal": {
        "agreement": 1e-6,
        "unlocalized_discrepancy": 1e-4,
        "support_mass": SUPPORT_MASS_EPSILON,
        "dlocal": 0.0,
    },
    "bcl": dict(_BCL_TOLERANCES),
    "full_measurement": {
        **_BCL_TOLERANCES,
        "marginal_system": 1e-10,
        "marginal_apparatus": 1e-10,
        "apparatus_gemenge": 1e-12,
        "entropy_gap": 1e-8,
        "rule2_coherence": 0.0,
    },
}
