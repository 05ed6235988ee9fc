"""Inverse design: manufacture a potential whose truncation carries a
certified boundary eigenvalue at a prescribed a + ib.

The recipe runs backwards from the eigenfunction.  Pick real a with
|a| > 2 and the contractive ratio r solving r + 1/r = a (the tail ratio
of onedim's recurrence).  Build u as a piecewise geometric sequence with
prescribed zeros and sign flips chosen so u(z-1) + u(z+1) = 0 at every
zero z; read off the real diagonal from the eigen-equation (it vanishes
except next to the zeros); set the imaginary diagonal to b exactly on the
support of u and 0 at the zeros, so the imaginary part acts on u as
multiplication by b.  The numerical range then lives in the strip
0 <= Im z <= b while a + ib is an eigenvalue, forcing it onto the
boundary.  The design window holds (-10, 10) and every zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classify import (EigenClassification, NormalityVerdict, SplitVerdict,
                       classify)
from .config import RATIO_CAP, Tolerances, DEFAULT_TOLERANCES
from .exceptions import CertificationError, DesignError
from .model import (ConstantPotential, LatticeBox, Operator, PotentialSpec,
                    SumPotential, TablePotential, assemble, check_dimension)
from .numrange import NumericalRangeHull, compute_hull
from .onedim import contractive_ratio, stencil_residuals

TINY_ENTRY = 1e-12


def contractive_tail_ratio(a: float) -> float:
    """The root of r^2 - a r + 1 = 0 with |r| < 1; needs finite |a| > 2."""
    a = float(a)
    if not math.isfinite(a):
        raise DesignError(f"eigenvalue {a} is not finite",
                          where="construct.design_eigenfunction")
    if abs(a) <= 2.0:
        raise DesignError(
            f"no decaying tail ratio exists for eigenvalue {a}: r + 1/r = a "
            "has no root with |r| < 1 when |a| <= 2",
            where="construct.design_eigenfunction",
        )
    r = contractive_ratio(a).real
    # the design's tail r^|n| must stay a normal float64 past its first site
    if not r * r >= np.finfo(np.float64).tiny:
        raise DesignError(
            f"eigenvalue {a}: its tail ratio r (r + 1/r = a) is not "
            "representable in float64: r^2 underflows",
            where="construct.design_eigenfunction")
    return r


@dataclass(frozen=True)
class DesignedEigenfunction:
    """Real sequence on Z: stored on [window_lo, window_hi], geometric
    tails c_minus * r^(-n) to the left and c_plus * r^n to the right."""

    window_lo: int
    window_hi: int
    values: tuple[float, ...]
    zeros: tuple[int, ...]
    tail_ratio: float
    c_minus: float
    c_plus: float

    def value_at(self, n: int) -> float:
        n = int(n)
        if n < self.window_lo:
            return self.c_minus * self.tail_ratio ** (-n)
        if n > self.window_hi:
            return self.c_plus * self.tail_ratio ** n
        return self.values[n - self.window_lo]

    def vector_on_box(self, box: LatticeBox) -> np.ndarray:
        if box.nu != 1:
            raise DesignError("designed eigenfunctions are 1D",
                              where="construct.vector_on_box")
        lo, hi = box.ranges[0]
        return np.array([self.value_at(n) for n in range(lo, hi + 1)],
                        dtype=np.complex128)

    @cached_property
    def peak(self) -> float:
        return max(abs(v) for v in self.values)

    def stencil_residual(self, real_diag: PotentialSpec, a: float) -> float:
        """sup-norm residual of u(n-1) + Re d(n) u(n) + u(n+1) = a u(n)
        across the window, relative to max|u|."""
        ns = np.arange(self.window_lo - 1, self.window_hi + 2)
        u = np.array([self.value_at(n) for n in ns])
        d = real_diag.values(ns.reshape(-1, 1)).real
        return float(stencil_residuals(u, d, a).max()) / self.peak


def design_eigenfunction(a: float, zero_sites: list[int],
                         window: tuple[int, int]) -> DesignedEigenfunction:
    """Piecewise geometric eigenfunction candidate with prescribed zeros.

    Left of the first zero, u follows the left-decaying branch r^(-n);
    each later segment follows the right-decaying branch r^n with its
    amplitude flipped so u(z-1) + u(z+1) = 0 at the zero z between them.
    With no zeros the symmetric peak u(n) = r^(|n|) is used.  Values are
    scaled so max|u| = 1 on the window.
    """
    r = contractive_tail_ratio(a)
    w_lo, w_hi = int(window[0]), int(window[1])
    if w_lo >= w_hi:
        raise DesignError("window must contain at least two sites",
                          where="construct.design_eigenfunction")
    zeros = sorted(int(z) for z in zero_sites)
    if len(set(zeros)) != len(zeros):
        raise DesignError("duplicate zero sites",
                          where="construct.design_eigenfunction")
    for z0, z1 in zip(zeros, zeros[1:]):
        if z1 - z0 < 2:
            raise DesignError(
                f"adjacent zero sites {z0}, {z1}: a solution vanishing at "
                "two consecutive sites is identically zero",
                where="construct.design_eigenfunction")
    for z in zeros:
        if not (w_lo + 1 <= z <= w_hi - 1):
            raise DesignError(
                f"zero site {z} must lie strictly inside the window "
                f"[{w_lo}, {w_hi}]",
                where="construct.design_eigenfunction")

    ns = range(w_lo, w_hi + 1)
    # segment amplitudes: A0 on the left-decaying branch, then one
    # right-decaying amplitude per zero, flipped for u(z-1) = -u(z+1)
    amp = [1.0]
    try:
        if not zeros:
            vals = [r ** abs(n) for n in ns]
            c_minus = c_plus = 1.0
        else:
            vals = []
            u_before = 1.0 * r ** (-(zeros[0] - 1))
            for z, nxt in zip(zeros, zeros[1:] + [None]):
                amp.append(-u_before / r ** (z + 1))
                if nxt is not None:
                    u_before = amp[-1] * r ** (nxt - 1)
            for n in ns:
                if n < zeros[0]:
                    vals.append(amp[0] * r ** (-n))
                else:
                    seg = sum(1 for z in zeros if z <= n)
                    vals.append(0.0 if n in zeros else amp[seg] * r ** n)
            c_minus, c_plus = amp[0], amp[-1]
        scale = max(abs(v) for v in vals)
        vals = [v / scale for v in vals + [c_minus, c_plus]]
        finite = all(map(math.isfinite, vals)) and all(amp)
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        # r^k leaves float64 (or an amplitude underflows to 0) once a zero
        # lies some hundreds of sites out
        raise DesignError(
            f"zeros {zeros} lie too far out for tail ratio {r!r}: the "
            "geometric amplitudes are not representable in float64",
            where="construct.design_eigenfunction")
    return DesignedEigenfunction(
        window_lo=w_lo, window_hi=w_hi, values=tuple(vals[:-2]),
        zeros=tuple(zeros), tail_ratio=r, c_minus=vals[-2], c_plus=vals[-1])


def real_potential_from_eigenfunction(u: DesignedEigenfunction, a: float,
                                      ) -> TablePotential:
    """Solve the eigen-equation for the real diagonal.

    Re d(n) = a - (u(n-1) + u(n+1)) / u(n) where u(n) != 0, and 0 at the
    zeros (the equation there holds automatically by the flip constraint).
    Geometric tails make this vanish identically outside a neighborhood
    of the zeros, so the result is a finite table.
    """
    a = float(a)
    entries = {}
    for n in range(u.window_lo, u.window_hi + 1):
        un = u.value_at(n)
        if n in u.zeros or un == 0.0:
            mismatch = u.value_at(n - 1) + u.value_at(n + 1)
            if abs(mismatch) > TINY_ENTRY * u.peak:
                raise DesignError(
                    f"zero at site {n} is inconsistent: u({n - 1}) + "
                    f"u({n + 1}) = {mismatch!r} does not vanish",
                    where="construct.real_potential_from_eigenfunction",
                )
            continue
        ratio = (u.value_at(n - 1) + u.value_at(n + 1)) / un
        if abs(ratio) > RATIO_CAP:
            raise DesignError(
                f"neighbor ratio at site {n} has magnitude {abs(ratio):.3e} "
                f"above the cap {RATIO_CAP:.1e}; use a smoother design "
                "(larger window or fewer zeros)",
                where="construct.real_potential_from_eigenfunction",
            )
        d = a - ratio
        if abs(d) > TINY_ENTRY:
            entries[(n,)] = complex(d)
    spec = TablePotential(entries)
    res = u.stencil_residual(spec, a)
    if res > 1e-12:
        raise DesignError(
            f"designed eigenfunction fails its own eigen-equation: relative "
            f"stencil residual {res:.3e} exceeds 1e-12",
            where="construct.real_potential_from_eigenfunction",
        )
    return spec


def designed_potential(u: DesignedEigenfunction, re_spec: TablePotential,
                       b: float) -> PotentialSpec:
    """The designed diagonal: re_spec plus the imaginary part b on supp(u)
    (tails included) and 0 at the zeros, so that the imaginary part acts
    on u as multiplication by b exactly.

    b is nonzero at all but finitely many sites; the finite description is
    one table (the real entries plus -ib at each zero) plus the constant ib.
    """
    b = float(b)
    if not (math.isfinite(b) and b > 0.0):
        raise DesignError(
            f"b must be finite and positive (got {b}); the strip "
            "construction places the numerical range in 0 <= Im z <= b",
            where="construct.designed_potential",
        )
    if not u.zeros:
        warnings.warn(
            "eigenfunction has no zeros: the imaginary diagonal is the "
            "constant b, a shifted selfadjoint operator (degenerate case)",
            stacklevel=2,
        )
    entries = dict(re_spec.entries)
    entries.update({(z,): complex(0.0, -b) for z in u.zeros})
    const = ConstantPotential(complex(0.0, b))
    return SumPotential((TablePotential(entries), const)) if entries else const


@dataclass(frozen=True)
class CounterexampleBuild:
    operator: Operator
    potential: PotentialSpec
    hull: NumericalRangeHull
    records: list[EigenClassification]
    classification: EigenClassification


def symmetric_box(n_sites: int) -> LatticeBox:
    lo = -((int(n_sites) - 1) // 2)
    return LatticeBox(nu=1, ranges=((lo, lo + int(n_sites) - 1),))


def build_counterexample(a: float, b: float, zero_sites: list[int],
                         n_sites: int = 101, n_angles: int = 720,
                         tol: Tolerances = DEFAULT_TOLERANCES,
                         max_dim: int | None = None) -> CounterexampleBuild:
    """Assemble the truncated operator and certify its boundary eigenvalue.

    Requires the eigenvalue nearest a + ib to sit within the match
    tolerance, be boundary, and pass both certificates; and the computed
    hull to lie in the strip 0 <= Im z <= b.  Failure raises with the
    offending residuals (the usual cause is a truncation too small for
    the tails to clear the box edge).  The design window is the smallest
    that holds (-10, 10) and every zero with one site to spare; the box is
    checked against it and against the dimension cap max_dim before the
    design, whose cost grows with the window.  The build carries every
    classification record, not only the designed one.
    """
    zeros = [int(z) for z in zero_sites]
    w_lo = min([-10] + [z - 1 for z in zeros])
    w_hi = max([10] + [z + 1 for z in zeros])
    box = symmetric_box(n_sites)
    lo, hi = box.ranges[0]
    if not (lo < w_lo and w_hi < hi):
        raise DesignError(
            f"truncation [{lo}, {hi}] must strictly contain the design "
            f"window [{w_lo}, {w_hi}]", where="construct.build_counterexample")
    check_dimension(box, max_dim)
    u = design_eigenfunction(a, zeros, (w_lo, w_hi))
    potential = designed_potential(
        u, real_potential_from_eigenfunction(u, a), b)
    op = assemble(box, potential, max_dim=max_dim)
    hull = compute_hull(op, n_angles=n_angles)
    expected = complex(a, b)

    records = classify(op, hull, tol=tol)
    best = min(records, key=lambda c: abs(c.pair.value - expected))
    gap = abs(best.pair.value - expected)
    problems: dict[str, float] = {}
    if gap > tol.match:
        problems["eigenvalue_gap"] = gap
    if not best.is_boundary:
        problems["boundary_distance"] = best.boundary_distance
    if best.normality is not NormalityVerdict.CERTIFIED_NORMAL:
        problems["normality_residual"] = best.normality_residual
    if best.split is not SplitVerdict.CERTIFIED:
        problems["split_residual_re"] = best.split_residual_re
        problems["split_residual_im"] = best.split_residual_im
    strip_lo = min(v.imag for v in hull.polygon)
    strip_hi = max(v.imag for v in hull.polygon)
    if strip_lo < -tol.hull or strip_hi > b + tol.hull:
        problems["hull_strip_excess"] = max(-strip_lo, strip_hi - b)
    if problems:
        raise CertificationError(
            "counterexample certification failed (truncation likely too "
            "small for the tails): " +
            ", ".join(f"{k}={v:.3e}" for k, v in problems.items()),
            residuals=problems, where="construct.build_counterexample",
        )
    return CounterexampleBuild(operator=op, potential=potential, hull=hull,
                               records=records, classification=best)
