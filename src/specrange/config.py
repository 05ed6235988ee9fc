"""Shared defaults: tolerances, dimension caps, scan radii, environment knobs."""

from __future__ import annotations

from dataclasses import dataclass, replace

DEFAULT_MAX_DIM = 4096
MAX_DIM_ENV = "SPECRANGE_MAX_DIM"

SCAN_RADIUS_1D = 1000
SCAN_RADIUS_ND = 100

DEFAULT_N_ANGLES = 720
# one support solve per angle: 2^16 angles of a 64 x 64 box take about an
# hour, and the angle arrays stay a few MB
MAX_N_ANGLES = 2 ** 16
# sweep: each step runs one full analysis and writes one CSV row, and the
# parameter values are formed before the first analysis
MAX_SWEEP_STEPS = 2 ** 16

# onedim propagation: the active pair is rescaled above this magnitude
RESCALE_AT = 1e150

# construct: cap on |(u(n-1)+u(n+1))/u(n)| before the induced potential
# is declared unusable
RATIO_CAP = 1e3


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle threaded through the pipeline.

    Relative entries scale with the operator: boundary/cert thresholds are
    rel * (1 + frobenius), the support threshold is support_rel * max|f|.
    The *_abs fields, when set, override the scaled value outright.
    """

    eig: float = 1e-9
    hull: float = 1e-8
    boundary_rel: float = 1e-6
    cert_rel: float = 1e-6
    support_rel: float = 1e-8
    match: float = 1e-6
    boundary_abs: float | None = None
    cert_abs: float | None = None

    def boundary(self, frobenius: float) -> float:
        if self.boundary_abs is not None:
            return self.boundary_abs
        return self.boundary_rel * (1.0 + frobenius)

    def cert(self, frobenius: float) -> float:
        if self.cert_abs is not None:
            return self.cert_abs
        return self.cert_rel * (1.0 + frobenius)

    def with_overrides(self, **kw) -> "Tolerances":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULT_TOLERANCES = Tolerances()
