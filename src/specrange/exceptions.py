"""Error hierarchy.  Every message names the originating module.operation."""

from __future__ import annotations


class SpecrangeError(Exception):
    """Base class; `where` is a "module.operation" tag baked into the message."""

    def __init__(self, message: str, *, where: str = ""):
        self.where = where
        super().__init__(f"[{where}] {message}" if where else message)


class SchemaError(SpecrangeError):
    """Scenario file violates the fixed JSON schema.  Carries the offending path."""

    def __init__(self, message: str, *, path: str = "", where: str = "scenario.parse"):
        self.path = path
        if path:
            message = f"at {path}: {message}"
        super().__init__(message, where=where)


class DimensionLimitError(SpecrangeError):
    pass


class NotHermitianError(SpecrangeError):
    pass


class EigenSolverError(SpecrangeError):
    """Non-convergence or residual contract breach; carries worst residual seen."""

    def __init__(self, message: str, *, worst_residual: float = float("nan"), where: str = ""):
        self.worst_residual = worst_residual
        super().__init__(message, where=where)


class HullDomainError(SpecrangeError):
    """Queried point lies outside the outer half-plane hull."""


class ProvenanceError(SpecrangeError):
    pass


class BlowupError(SpecrangeError):
    """Propagation met a non-finite value (the rescaled recurrence left the
    float64 range); carries the site."""

    def __init__(self, message: str, *, site: int, where: str = ""):
        self.site = site
        super().__init__(message, where=where)


class BandRegimeError(SpecrangeError):
    pass


class DecayCertificateError(SpecrangeError):
    pass


class DesignError(SpecrangeError):
    """Domain failure in the counterexample designer (maps to CLI exit 4)."""


class CertificationError(SpecrangeError):
    """Built operator failed its certification; carries the residual table."""

    def __init__(self, message: str, *, residuals: dict | None = None, where: str = ""):
        self.residuals = dict(residuals or {})
        super().__init__(message, where=where)
