"""The spectrum of a one-column mixture against ``eigvalsh`` of its dense matrix.

A mixture of one column ``v`` with weight ``w`` is ``w v v^dagger``, whose
one nonzero eigenvalue is ``w ||v||^2``; ``_mixture_spectrum`` returns it
with no factorization.  Each example draws a column of 1 to 64 entries at
an amplitude scale from 1e-150 to 1e150 and compares that eigenvalue, also
of a pure state, and ``von_neumann_entropy`` with ``eigvalsh`` of the
dense matrix built by ``helpers.dense``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import DensityMatrix, outer, von_neumann_entropy
from pointerlab.hilbert import _mixture_spectrum, spectral_entropy
from helpers import dense, random_state


@st.composite
def columns(draw):
    """A ``dim x 1`` complex column, ``dim`` from 1 to 64, at a scale from 1e-150 to 1e150."""
    dim = draw(st.integers(1, 64))
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return scale * (rng.normal(size=(dim, 1)) + 1j * rng.normal(size=(dim, 1)))


def close_spectra(values, reference):
    """Agreement to ``1e-12`` of the largest reference eigenvalue's modulus."""
    scale = float(np.abs(reference).max())
    return bool(np.all(np.abs(values - reference) <= 1e-12 * scale))


@settings(max_examples=200)
@given(column=columns(), weight=st.floats(-10.0, 10.0).filter(lambda w: abs(w) >= 1e-3))
def test_one_column_spectrum_matches_dense_eigvalsh(column, weight):
    spectrum = _mixture_spectrum(column, np.array([weight]))
    assert spectrum.shape == (1,)
    # a negative weight is no state, but helpers.dense reads only columns and weights
    mixture = SimpleNamespace(columns=column, weights=np.array([weight]))
    reference = np.linalg.eigvalsh(dense(mixture))
    # w v v^dagger has one nonzero eigenvalue, the largest in modulus
    largest = reference[np.argmax(np.abs(reference))]
    assert abs(spectrum[0] - largest) <= 1e-12 * abs(largest), (spectrum, largest)


@settings(max_examples=200)
@given(column=columns())
def test_pure_state_spectrum_and_entropy_match_dense_eigvalsh(column):
    rho = DensityMatrix(columns=column, weights=[1.0 / np.vdot(column, column).real])
    reference = np.linalg.eigvalsh(dense(rho))
    spectrum = _mixture_spectrum(rho.columns, rho.weights)
    assert spectrum.shape == (1,)
    # the one eigenvalue is the largest, and the others are roundoff
    assert close_spectra(spectrum, reference[-1:]), (spectrum, reference)
    assert np.all(np.abs(reference[:-1]) <= 1e-12 * reference[-1]), reference
    assert abs(von_neumann_entropy(rho) - spectral_entropy(reference)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 257])
def test_pure_state_spectrum_needs_no_factorization(monkeypatch, dim):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-column spectrum was factorized")

    rho = outer(random_state(np.random.default_rng(dim), dim))
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert abs(_mixture_spectrum(rho.columns, rho.weights)[0] - 1.0) <= 1e-12
    assert von_neumann_entropy(rho) <= 1e-12
