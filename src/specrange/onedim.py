"""Second-order transfer recurrence on Z: propagation and the two-sided
shooting compatibility test.

The eigen-equation u(n-1) + d(n) u(n) + u(n+1) = lambda u(n) rearranges to
u(n+1) = (lambda - d(n)) u(n) - u(n-1); a trace is determined by the pair
(u(n0), u(n0+1)).  Plain propagation raises once magnitudes pass 1e300
(growth is itself the l2 diagnosis); normalized propagation rescales at
1e150 and tracks the per-site natural-log factor instead, which is what
the shooting test uses in growth regimes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import (OVERFLOW_AT, RESCALE_AT, Tolerances, DEFAULT_TOLERANCES)
from .exceptions import BandRegimeError, BlowupError, DecayCertificateError
from .model import PotentialSpec

BAND_EDGE_MARGIN = 1e-12


@dataclass(frozen=True)
class SolutionTrace:
    """Recurrence solution on [n_lo, n_hi] with per-site log-scale factors.

    The true value at site n is values[n - n_lo] * exp(log_scale[n - n_lo]);
    log_scale is identically zero unless normalized propagation rescaled.
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

    def log_magnitude(self, n: int) -> float:
        """log|u(n)| including the scale factor; -inf at exact zeros."""
        i = self.index(n)
        v = abs(self.values[i])
        return -math.inf if v == 0.0 else math.log(v) + float(self.log_scale[i])

    def residual_max(self, potential: PotentialSpec) -> float:
        """max_n |u(n-1) + (d(n) - lambda) u(n) + u(n+1)| / max|u|, over
        interior sites whose three-point stencil shares one scale factor."""
        ns = np.arange(self.n_lo, self.n_hi + 1)
        d = potential.values(ns.reshape(-1, 1))
        peak = float(np.abs(self.values).max())
        if peak == 0.0:
            return 0.0
        worst = 0.0
        for i in range(1, len(ns) - 1):
            if not (self.log_scale[i - 1] == self.log_scale[i] == self.log_scale[i + 1]):
                continue
            res = abs(self.values[i - 1] + (d[i] - self.lam) * self.values[i]
                      + self.values[i + 1])
            worst = max(worst, res / peak)
        return worst


def three_term_scan(coeff, x0: complex, x1: complex, normalize: bool,
                    ) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The three-term recurrence x[0] = x0, x[1] = x1,
    x[j+1] = coeff[j-1] * x[j] - x[j-1], as (values, log_scale, stop).

    values[j] holds x[j] at its storage-time scale and log_scale[j] the
    cumulative natural-log factor, so the true value is
    values[j] * e^log_scale[j].  With normalize=True the active pair is
    divided by its max magnitude whenever it exceeds RESCALE_AT (log factor
    accumulated) and stop is None.  Otherwise the scan stops at the first
    magnitude above OVERFLOW_AT, and stop is the index of the first entry
    not written (None if the scan completed).
    """
    values = np.empty(len(coeff) + 2, dtype=np.complex128)
    log_scale = np.zeros(len(coeff) + 2, dtype=np.float64)
    a = complex(x0)
    b = complex(x1)
    s = 0.0
    values[0] = a
    values[1] = b
    for i, c in enumerate(complex(c) for c in coeff):
        nxt = c * b - a
        a = b
        b = nxt
        mag = max(abs(a), abs(b))
        if normalize:
            if mag > RESCALE_AT:
                a /= mag
                b /= mag
                s += math.log(mag)
        elif mag > OVERFLOW_AT:
            return values, log_scale, i + 2
        values[i + 2] = b
        log_scale[i + 2] = s
    return values, log_scale, None


def propagate(potential: PotentialSpec, lam: complex,
              seed: tuple[complex, complex], anchor: int,
              rng: tuple[int, int], *, normalize: bool = False) -> SolutionTrace:
    """Extend seed = (u(anchor), u(anchor+1)) across rng = [n_lo, n_hi].

    Forward and mirrored backward recursion fill the whole range.  In plain
    mode a magnitude above 1e300 raises BlowupError naming the site; with
    normalize=True the active pair is rescaled at 1e150 and the cumulative
    log factor is recorded per site.
    """
    n_lo, n_hi = int(rng[0]), int(rng[1])
    anchor = int(anchor)
    if not (n_lo <= anchor and anchor + 1 <= n_hi):
        raise ValueError("range must contain anchor and anchor+1")
    ns = np.arange(n_lo, n_hi + 1)
    d = potential.values(ns.reshape(-1, 1))
    lam = complex(lam)

    count = n_hi - n_lo + 1
    values = np.zeros(count, dtype=np.complex128)
    scales = np.zeros(count, dtype=np.float64)

    # forward: x_j = u(anchor + j), coefficients at sites anchor+1 .. n_hi-1
    fwd_sites = np.arange(anchor + 1, n_hi)
    coeff_f = lam - d[fwd_sites - n_lo]
    vals_f, sc_f, stop_f = three_term_scan(coeff_f, seed[0], seed[1], normalize)
    if stop_f is not None:
        raise BlowupError(
            f"magnitude exceeded {OVERFLOW_AT:.1e} at site {anchor + stop_f} "
            f"(growth regime; use normalized propagation)",
            site=anchor + stop_f, where="one_dim.propagate",
        )
    a0 = anchor - n_lo
    values[a0:] = vals_f
    scales[a0:] = sc_f

    # backward: y_j = u(anchor + 1 - j), coefficients at sites anchor .. n_lo+1
    bwd_sites = np.arange(anchor, n_lo, -1)
    coeff_b = lam - d[bwd_sites - n_lo]
    vals_b, sc_b, stop_b = three_term_scan(coeff_b, seed[1], seed[0], normalize)
    if stop_b is not None:
        raise BlowupError(
            f"magnitude exceeded {OVERFLOW_AT:.1e} at site {anchor + 1 - stop_b} "
            f"(growth regime; use normalized propagation)",
            site=anchor + 1 - stop_b, where="one_dim.propagate",
        )
    # y index j corresponds to site anchor + 1 - j
    for j in range(2, len(vals_b)):
        i = (anchor + 1 - j) - n_lo
        values[i] = vals_b[j]
        scales[i] = sc_b[j]

    return SolutionTrace(n_lo=n_lo, n_hi=n_hi, values=values, log_scale=scales,
                         lam=lam)


@dataclass(frozen=True)
class ShootingResult:
    compatible: bool
    mismatch: float
    lam: complex
    contractive_ratio: complex


def _contractive_ratio(lam: complex) -> complex:
    disc = cmath.sqrt(lam * lam - 4.0)
    r1 = (lam + disc) / 2.0
    r2 = (lam - disc) / 2.0
    return r1 if abs(r1) < abs(r2) else r2


def _scaled_pair(trace: SolutionTrace, n: int) -> tuple[complex, complex]:
    """Values at sites n, n+1 brought to a common (dropped) scale."""
    i0, i1 = trace.index(n), trace.index(n + 1)
    s0, s1 = float(trace.log_scale[i0]), float(trace.log_scale[i1])
    ref = max(s0, s1)
    return (complex(trace.values[i0] * math.exp(s0 - ref)),
            complex(trace.values[i1] * math.exp(s1 - ref)))


def shooting_l2_test(potential: PotentialSpec, lam: complex, window: int,
                     match_tol: float | None = None,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> ShootingResult:
    """Two-sided shooting: does the recurrence admit a decaying solution
    at lambda, up to window truncation?

    Requires a decaying potential (certified tail with zero base) so the
    asymptotics are governed by the free recurrence.  The free transfer
    ratios r solve r + 1/r = lambda; for real lambda in [-2, 2] both have
    modulus one and the test refuses (band regime).  Decaying branches are
    propagated inward from +-window and compared through the scale-free
    Wronskian mismatch at sites 0, 1.
    """
    tail = potential.tail_info()
    if tail is None or tail.base != 0:
        raise DecayCertificateError(
            "shooting needs a potential certified to decay to zero "
            "(tail base 0); the declared kind does not certify that",
            where="one_dim.shooting_l2_test",
        )
    lam = complex(lam)
    r = _contractive_ratio(lam)
    if abs(r) >= 1.0 - BAND_EDGE_MARGIN:
        raise BandRegimeError(
            "band regime - shooting inapplicable: lambda lies in the "
            "essential band [-2, 2] where no decaying direction exists",
            where="one_dim.shooting_l2_test",
        )
    n = int(window)
    if n < 2:
        raise ValueError("window must be >= 2")
    if match_tol is None:
        match_tol = tol.match

    right = propagate(potential, lam, seed=(1.0 + 0j, r), anchor=n,
                      rng=(0, n + 1), normalize=True)
    left = propagate(potential, lam, seed=(r, 1.0 + 0j), anchor=-n - 1,
                     rng=(-n - 1, 1), normalize=True)
    up0, up1 = _scaled_pair(right, 0)
    um0, um1 = _scaled_pair(left, 0)
    w = up0 * um1 - up1 * um0
    mp = math.hypot(abs(up0), abs(up1))
    mm = math.hypot(abs(um0), abs(um1))
    if mp == 0.0 or mm == 0.0:
        raise BlowupError("propagated branch vanished identically",
                          site=0, where="one_dim.shooting_l2_test")
    mismatch = abs(w) / (mp * mm)
    return ShootingResult(compatible=mismatch <= match_tol,
                          mismatch=mismatch, lam=lam, contractive_ratio=r)

