"""The three-term recurrence kernel against closed forms."""

import math

import numpy as np
import pytest

from specrange.config import RESCALE_AT
from specrange.onedim import three_term_scan


def test_chebyshev_closed_form():
    # free recurrence x_{j+1} = lam x_j - x_{j-1}, x0=0, x1=1 -> sin(j t)/sin t
    t = 0.9
    lam = 2 * math.cos(t)
    coeff = np.full(60, lam, dtype=np.complex128)
    vals, scale, stop = three_term_scan(coeff, 0.0, 1.0)
    assert stop is None
    assert np.all(scale == 0.0)
    expected = np.array([math.sin(j * t) / math.sin(t) for j in range(62)])
    assert np.max(np.abs(vals - expected)) < 1e-12


def test_normalized_mode_tracks_log_scale():
    coeff = np.full(3000, 4.0, dtype=np.complex128)
    vals, scale, stop = three_term_scan(coeff, 0.0, 1.0)
    assert stop is None
    assert np.all(np.abs(vals) <= RESCALE_AT * 4.0)
    # true log-magnitude log|x_j| = log|vals_j| + scale_j grows linearly
    # with slope log(2+sqrt(3))
    logmag = np.log(np.abs(vals[2000:])) + scale[2000:]
    slope = (logmag[-1] - logmag[0]) / (len(logmag) - 1)
    assert abs(slope - math.log(2 + math.sqrt(3))) < 1e-9


def test_scale_is_monotone_and_zero_before_first_rescale():
    coeff = np.full(500, 3.0, dtype=np.complex128)
    vals, scale, stop = three_term_scan(coeff, 1.0, 1.0)
    assert stop is None
    assert scale[0] == 0.0 and scale[1] == 0.0
    assert np.all(np.diff(scale) >= 0.0)
    assert scale[-1] > 0.0


@pytest.mark.parametrize("coeff, stop", [
    # x[2] = 1e149 stays below the rescale threshold, so x[3] = 1e300 * 1e149
    # leaves the float64 range
    ([1e149, 1e300, 1.0], 3),
    # finite parts whose modulus is beyond the float64 range
    ([1.3e308 * (1 + 1j), 1.0], 2),
])
def test_scan_stops_at_the_first_non_finite_entry(coeff, stop):
    vals, scale, got = three_term_scan(np.array(coeff, dtype=np.complex128),
                                       0.0, 1.0)
    assert got == stop
    assert np.all(np.isfinite(vals[:stop])) and np.all(scale[:stop] == 0.0)
