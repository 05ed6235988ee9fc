"""Second-order transfer recurrence on Z: the decaying tail ratio,
propagation, the stencil residual and the two-sided shooting
compatibility test.

The eigen-equation u(n-1) + d(n) u(n) + u(n+1) = lambda u(n) rearranges to
u(n+1) = (lambda - d(n)) u(n) - u(n-1); a trace is determined by the pair
(u(n0), u(n0+1)).  Propagation rescales the active pair once it passes
1e150 and tracks the per-site natural-log factor, so growth never
overflows; a non-finite value (from a potential entry near the float
limit) raises BlowupError.  Off the band, the free recurrence decays with
the ratio r + 1/r = lambda, |r| < 1 (contractive_ratio): the shooting
test seeds its tails with it and construct builds its designed
eigenfunction from it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import RESCALE_AT, Tolerances, DEFAULT_TOLERANCES
from .exceptions import (BandRegimeError, BlowupError, DecayCertificateError,
                         SpecrangeError)
from .model import PotentialSpec

BAND_EDGE_MARGIN = 1e-12
# The largest part of lambda whose square is finite with room to spare:
# contractive_ratio forms lambda^2 up to here and a scaled root beyond.
_SQUARE_SAFE = 2.0 ** 510


def contractive_ratio(lam: complex) -> complex:
    """The root of r^2 - lam r + 1 = 0 of smaller modulus: |r| < 1 off the
    band [-2, 2], |r| = 1 on it.

    r = (lam - s sqrt(lam^2 - 4)) / 2 = 2 / (lam + s sqrt(lam^2 - 4)), the
    sign s turning s sqrt(lam^2 - 4) toward lam: the second form adds terms
    of one direction, where the first cancels for large |lam|.  Where lam^2
    would overflow (a part of lam beyond 2^510), the same root is formed as
    2 / (lam (1 + s sqrt(1 - 4 / lam^2))), with 4 / lam^2 taken as
    (2 / lam)^2, so r stays about 1 / lam up to the float64 limit.
    """
    lam = complex(lam)
    if max(abs(lam.real), abs(lam.imag)) <= _SQUARE_SAFE:
        disc = cmath.sqrt(lam * lam - 4.0)
        s = 1.0 if lam.real * disc.real + lam.imag * disc.imag >= 0.0 else -1.0
        return 2.0 / (lam + s * disc)
    u = 2.0 / lam
    root = cmath.sqrt(1.0 - u * u)
    # lam (1 + s root) points along lam: s root turns toward 1
    s = 1.0 if root.real >= 0.0 else -1.0
    return u / (1.0 + s * root)


def stencil_residuals(u: np.ndarray, d: np.ndarray, lam: complex,
                      ) -> np.ndarray:
    """|u(n-1) + (d(n) - lam) u(n) + u(n+1)| at the interior entries of u,
    for u and d sampled at the same consecutive sites."""
    return np.abs(u[:-2] + (d[1:-1] - lam) * u[1:-1] + u[2:])


@dataclass(frozen=True)
class SolutionTrace:
    """Recurrence solution on [n_lo, n_hi] with per-site log-scale factors.

    The true value at site n is values[n - n_lo] * exp(log_scale[n - n_lo]);
    log_scale is identically zero unless propagation rescaled.
    """

    n_lo: int
    n_hi: int
    values: np.ndarray
    log_scale: np.ndarray
    lam: complex

    def index(self, n: int) -> int:
        if not self.n_lo <= n <= self.n_hi:
            raise ValueError(f"site {n} outside trace range [{self.n_lo}, {self.n_hi}]")
        return n - self.n_lo

    def value_at(self, n: int) -> complex:
        i = self.index(n)
        return complex(self.values[i] * math.exp(self.log_scale[i]))


def three_term_scan(coeff, x0: complex, x1: complex,
                    ) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The three-term recurrence x[0] = x0, x[1] = x1,
    x[j+1] = coeff[j-1] * x[j] - x[j-1], as (values, log_scale, stop).

    values[j] holds x[j] at its storage-time scale and log_scale[j] the
    cumulative natural-log factor, so the true value is
    values[j] * e^log_scale[j]: the active pair is divided by its max
    magnitude whenever that exceeds RESCALE_AT.  The scan ends at the
    first entry whose magnitude is not finite; stop is its index (that
    entry is not written), or None if the scan completed.
    """
    values = np.empty(len(coeff) + 2, dtype=np.complex128)
    log_scale = np.zeros(len(coeff) + 2, dtype=np.float64)
    a, b, s = complex(x0), complex(x1), 0.0
    values[:2] = a, b
    for i, c in enumerate(complex(c) for c in coeff):
        a, b = b, c * b - a
        try:
            mag = max(abs(b), abs(a))  # in this order a NaN |b| stays NaN
        except OverflowError:  # finite parts, modulus above the float limit
            mag = math.inf
        if not mag < math.inf:
            return values, log_scale, i + 2
        if mag > RESCALE_AT:
            a /= mag
            b /= mag
            s += math.log(mag)
        values[i + 2] = b
        log_scale[i + 2] = s
    return values, log_scale, None


def propagate(potential: PotentialSpec, lam: complex,
              seed: tuple[complex, complex], anchor: int,
              rng: tuple[int, int]) -> SolutionTrace:
    """Extend seed = (u(anchor), u(anchor+1)) across rng = [n_lo, n_hi].

    Forward and mirrored backward recursion fill the whole range; the
    active pair is rescaled at RESCALE_AT and the cumulative log factor is
    recorded per site.  A non-finite value raises BlowupError naming its
    site.
    """
    n_lo, n_hi, anchor = int(rng[0]), int(rng[1]), int(anchor)
    if not (n_lo <= anchor and anchor + 1 <= n_hi):
        raise ValueError("range must contain anchor and anchor+1")
    d = potential.values(np.arange(n_lo, n_hi + 1).reshape(-1, 1))
    lam = complex(lam)
    a0 = anchor - n_lo

    # forward: x_j = u(anchor + j), coefficients at sites anchor+1 .. n_hi-1;
    # backward: y_j = u(anchor + 1 - j), coefficients at sites anchor ..
    # n_lo+1, so y_j for j >= 2 holds the sites anchor-1 down to n_lo
    vals_f, sc_f, stop_f = three_term_scan(lam - d[a0 + 1:-1], seed[0], seed[1])
    vals_b, sc_b, stop_b = three_term_scan(lam - d[a0:0:-1], seed[1], seed[0])
    if stop_f is not None or stop_b is not None:
        site = anchor + stop_f if stop_f is not None else anchor + 1 - stop_b
        raise BlowupError(
            f"non-finite value at site {site}: the recurrence left the "
            "float64 range (a potential entry or lambda near the float limit)",
            site=site, where="onedim.propagate")

    return SolutionTrace(n_lo=n_lo, n_hi=n_hi,
                         values=np.concatenate((vals_b[:1:-1], vals_f)),
                         log_scale=np.concatenate((sc_b[:1:-1], sc_f)),
                         lam=lam)


@dataclass(frozen=True)
class ShootingResult:
    compatible: bool
    mismatch: float
    lam: complex
    contractive_ratio: complex


def _scaled_pair(trace: SolutionTrace, n: int) -> tuple[complex, complex]:
    """Values at sites n, n+1 brought to a common (dropped) scale."""
    i0, i1 = trace.index(n), trace.index(n + 1)
    s0, s1 = float(trace.log_scale[i0]), float(trace.log_scale[i1])
    ref = max(s0, s1)
    return (complex(trace.values[i0] * math.exp(s0 - ref)),
            complex(trace.values[i1] * math.exp(s1 - ref)))


def shooting_l2_test(potential: PotentialSpec, lam: complex, window: int,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> ShootingResult:
    """Two-sided shooting: does the recurrence admit a decaying solution
    at lambda, up to window truncation?

    Requires a decaying potential (certified tail with zero base) so the
    asymptotics are governed by the free recurrence.  The free transfer
    ratios r solve r + 1/r = lambda; for real lambda in [-2, 2] both have
    modulus one and the test refuses (band regime), as it refuses a
    non-finite lambda, which has no ratio.
    Decaying branches are propagated inward from +-window and compared
    through the scale-free Wronskian mismatch at sites 0, 1; compatible
    means a mismatch within tol.match.
    """
    tail = potential.tail_info()
    if tail is None or tail.base != 0:
        raise DecayCertificateError(
            "shooting needs a potential certified to decay to zero "
            "(tail base 0); the declared kind does not certify that",
            where="onedim.shooting_l2_test",
        )
    lam = complex(lam)
    r = contractive_ratio(lam)
    if r == 0 or not cmath.isfinite(r):
        raise SpecrangeError(
            f"lambda = {lam}: its decaying ratio r (r + 1/r = lambda) is not "
            "representable",
            where="onedim.shooting_l2_test",
        )
    if abs(r) >= 1.0 - BAND_EDGE_MARGIN:
        raise BandRegimeError(
            "band regime - shooting inapplicable: lambda lies in the "
            "essential band [-2, 2] where no decaying direction exists",
            where="onedim.shooting_l2_test",
        )
    n = int(window)
    if n < 2:
        raise ValueError("window must be >= 2")

    right = propagate(potential, lam, seed=(1.0 + 0j, r), anchor=n,
                      rng=(0, n + 1))
    left = propagate(potential, lam, seed=(r, 1.0 + 0j), anchor=-n - 1,
                     rng=(-n - 1, 1))
    up0, up1 = _scaled_pair(right, 0)
    um0, um1 = _scaled_pair(left, 0)
    w = up0 * um1 - up1 * um0
    mp = math.hypot(abs(up0), abs(up1))
    mm = math.hypot(abs(um0), abs(um1))
    if mp == 0.0 or mm == 0.0:
        raise BlowupError("propagated branch vanished identically",
                          site=0, where="onedim.shooting_l2_test")
    mismatch = abs(w) / (mp * mm)
    return ShootingResult(compatible=mismatch <= tol.match,
                          mismatch=mismatch, lam=lam, contractive_ratio=r)
