"""Every constructor that checks a tolerance refuses NaN input.

A check written ``x > tol`` is False for NaN and lets it through; each
check is written ``not x <= tol`` (or ``not x >= 0``), which NaN fails.
One row per constructor feeds it a NaN where its check reads the value.
The rows run with warnings as errors, and two more feed ``normalized`` a
vector whose largest modulus is subnormal, which it refuses as numerically
null without a floating-point warning; a third an infinite entry, which it
refuses before dividing by it.  A ``KroneckerProduct`` holds no tolerance
check, but refuses a NaN in its core as non-finite.  A ``KernelOperator``
refuses a NaN or an infinite diagonal entry as non-finite: its Hermitian
check reads only ``|Im a|``, which is zero for both.
"""

import dataclasses

import numpy as np
import pytest

from pointerlab import (
    BasisNotOrthonormal,
    BclSpec,
    DensityMatrix,
    GemengeDecomposition,
    KernelOperator,
    KroneckerProduct,
    LatticeGrid,
    LatticeWavefunction,
    SpecInvalid,
    StateVector,
    premeasure,
)

NAN = float("nan")


def with_nan(matrix):
    """A copy of ``matrix`` with a NaN in its top-left entry."""
    copy = np.array(matrix, dtype=complex)
    copy[0, 0] = NAN
    return copy


def spec(eigenvectors=np.eye(2), transfer=None, pointers=np.eye(2)):
    return BclSpec(
        eigenvalues=(1.0, -1.0),
        degeneracies=(1, 1),
        eigenvectors=eigenvectors,
        transfer=eigenvectors if transfer is None else transfer,
        pointers=pointers,
        ready_state=StateVector([1, 0]),
    )


def premeasured_with_nan_probability():
    result = premeasure(spec(), StateVector([1, 0]))
    return dataclasses.replace(result, probabilities=[NAN, 1.0])


GRID = LatticeGrid(0.0, 1.0, 2)

ROWS = {
    "state_vector": (lambda: StateVector([NAN, 0]), ValueError, "norm"),
    "state_vector_normalized": (
        lambda: StateVector.normalized([NAN, 1]),
        ValueError,
        "non-finite",
    ),
    "state_vector_normalized_infinite": (
        lambda: StateVector.normalized([float("inf"), 1]),
        ValueError,
        "non-finite",
    ),
    "state_vector_normalized_subnormal": (
        lambda: StateVector.normalized([1e-320, 0]),
        ValueError,
        "numerically null",
    ),
    "state_vector_normalized_subnormal_imaginary": (
        lambda: StateVector.normalized([5e-324j, 1e-310]),
        ValueError,
        "numerically null",
    ),
    "density_matrix_weight": (
        lambda: DensityMatrix(columns=np.eye(2), weights=[NAN, 1.0]),
        ValueError,
        "negative weight",
    ),
    "density_matrix_column": (
        lambda: DensityMatrix(columns=with_nan(np.eye(2)), weights=[0.5, 0.5]),
        ValueError,
        "trace",
    ),
    "lattice_grid": (lambda: LatticeGrid(0.0, NAN, 4), ValueError, "dx"),
    "lattice_wavefunction": (
        lambda: LatticeWavefunction(GRID, [NAN, 1.0]),
        ValueError,
        "quadrature norm",
    ),
    "kernel_operator": (lambda: KernelOperator(GRID, [NAN, 1.0]), ValueError, "finite"),
    "kernel_operator_infinite": (
        lambda: KernelOperator(GRID, [float("inf"), 1.0]),
        ValueError,
        "finite",
    ),
    "bcl_spec_eigenvector": (
        lambda: spec(eigenvectors=with_nan(np.eye(2))),
        SpecInvalid,
        "eigenbasis",
    ),
    "bcl_spec_transfer": (
        lambda: spec(transfer=with_nan(np.eye(2))),
        SpecInvalid,
        "transfer row 0",
    ),
    "bcl_spec_pointer": (lambda: spec(pointers=with_nan(np.eye(2))), SpecInvalid, "pointer"),
    "premeasurement_probability": (premeasured_with_nan_probability, SpecInvalid, "sum off"),
    "kronecker_core": (
        lambda: KroneckerProduct(
            (np.eye(2), [NAN, 0.0], [0.0]), (np.eye(2), np.ones(2), np.zeros(1))
        ),
        ValueError,
        "finite",
    ),
    "gemenge_probability": (
        lambda: GemengeDecomposition([NAN, 1.0], np.eye(2), np.eye(2)),
        ValueError,
        "nonnegative",
    ),
    "gemenge_column": (
        lambda: GemengeDecomposition([0.5, 0.5], with_nan(np.eye(2)), np.eye(2)),
        BasisNotOrthonormal,
        "system states",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", ROWS)
def test_constructor_refuses_nan(row):
    build, error, message = ROWS[row]
    with pytest.raises(error, match=message):
        build()

