"""Boundary-eigenvalue classification and certification.

`classify` decides what each eigenpair's record says, once: its distance to
the sampled numerical-range hull, and two independent certificates.

  normality:    a boundary eigenvalue of any operator forces the eigenvector
                into the kernel of the adjoint pencil, so
                ||A* f - conj(lambda) f|| must vanish;
  Re/Im split:  equivalently the eigenvector must satisfy both hermitian
                eigenproblems Re(A) f = Re(lambda) f and Im(A) f = Im(lambda) f,
                and for assembled lattice operators Im(A) is the diagonal
                Im d, which pins Im d(k) = Im(lambda) on the support.

Both certificates read A only through op.products (rows A f and A* f, a
stencil for an assembled operator) and op.diagonal; the residual norms are
formed on A scaled by a power of two, so they are finite whenever ||A||_F
is.

Interior eigenvalues get verdict not_applicable.  A boundary pair whose
normality residual exceeds the certification threshold is "violated";
residuals an order of magnitude above threshold are the typical signature
of a truncation artifact rather than a genuine boundary eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .config import Tolerances, DEFAULT_TOLERANCES
from .exceptions import EigenSolverError, ProvenanceError
from .linalg import EigenPair, eig_general, residual_blocks
from .model import Operator
from .numrange import NumericalRangeHull


class NormalityVerdict(str, Enum):
    CERTIFIED_NORMAL = "certified_normal"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not_applicable"


class SplitVerdict(str, Enum):
    CERTIFIED = "certified"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class EigenClassification:
    """What classify decided about one eigenpair.

    support_extent is the (min, max) coordinate of the thresholded support
    on each axis; box_limited is true when that support is strictly
    interior to the box on every axis.  Genuine eigenfunctions of the
    infinite operator reach arbitrarily far in every coordinate direction,
    so an interior extent flags the vector as shaped by the truncation (or
    by thresholding of fast-decaying tails).  Both are None for an empty
    support; they and split are None without a box (an explicit matrix).
    classify sets the last four fields (`_decided`).
    """

    pair: EigenPair
    boundary_distance: float
    is_boundary: bool
    normality_residual: float
    split_residual_re: float
    split_residual_im: float
    support_indices: np.ndarray
    support_extent: tuple[tuple[int, int], ...] | None = None
    box_limited: bool | None = None
    normality: NormalityVerdict | None = None
    split: SplitVerdict | None = None

    @property
    def certified(self) -> bool:
        """Boundary, certified normal and certified split."""
        return (self.is_boundary
                and self.normality is NormalityVerdict.CERTIFIED_NORMAL
                and self.split is SplitVerdict.CERTIFIED)


def classify(op: Operator, hull: NumericalRangeHull,
             tol: Tolerances = DEFAULT_TOLERANCES) -> list[EigenClassification]:
    """One record per eig_general pair, in the same (Re, Im) order, with
    both certificates decided.

    The hull must have been computed from the same operator; the sampled
    minimum margin is the boundary distance (see numrange module notes on
    its direction of error).  Never raises ProvenanceError: without a box
    the split verdict is None.
    """
    frob = op.frobenius
    if not np.isfinite(frob):
        raise EigenSolverError(
            f"||A||_F = {frob} is beyond the float64 range, so the residuals "
            f"and the tolerances scaled by it are undefined",
            where="classify.classify")
    tol_boundary = tol.boundary(frob)
    pairs = eig_general(op, tol)
    scale = op.scale
    out = []
    for b in residual_blocks(len(pairs)):
        block = pairs[b]
        f = np.array([p.vector for p in block])  # rows f_j
        lam = np.array([p.value for p in block])[:, None] / scale
        # rows A f_j / scale and A* f_j / scale: the norms below are formed
        # on A / scale (exactly), so they overflow only with ||A||_F
        af, ahf = op.products(f / scale)
        normality = scale * np.linalg.norm(ahf - lam.conj() * f, axis=1)
        split_re = scale * np.linalg.norm((af + ahf) / 2.0 - lam.real * f,
                                          axis=1)
        split_im = scale * np.linalg.norm((af - ahf) / 2.0j - lam.imag * f,
                                          axis=1)
        absf = np.abs(f)
        thresh = tol.support_rel * absf.max(axis=1)
        for j, pair in enumerate(block):
            dist = hull.boundary_distance(pair.value, outside_tol=tol_boundary)
            out.append(EigenClassification(
                pair=pair,
                boundary_distance=dist,
                is_boundary=dist <= tol_boundary,
                normality_residual=float(normality[j]),
                split_residual_re=float(split_re[j]),
                split_residual_im=float(split_im[j]),
                support_indices=np.flatnonzero(absf[j] > thresh[j]),
            ))
    # a pass of its own, so that its temporaries do not alternate on the
    # heap with the support arrays the records keep: alternating, they left
    # holes that raised the peak RSS of runs on 24 x 24 boxes by up to 5 MB
    return [_decided(op, rec, tol) for rec in out]


def _decided(op: Operator, rec: EigenClassification,
             tol: Tolerances) -> EigenClassification:
    """rec with its certificate verdicts, support extent and box flag."""
    box = op.box
    extent = limited = None
    if box is not None and len(rec.support_indices):
        coords = box.sites[rec.support_indices]
        extent = tuple((int(x.min()), int(x.max())) for x in coords.T)
        limited = all(blo < lo and hi < bhi
                      for (lo, hi), (blo, bhi) in zip(extent, box.ranges))
    return replace(
        rec, support_extent=extent, box_limited=limited,
        normality=hildebrandt_certificate(op, rec, tol),
        split=None if box is None else split_certificate(op, rec, tol))


def hildebrandt_certificate(op: Operator, cls: EigenClassification,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> NormalityVerdict:
    """Normality certificate for a boundary eigenpair.

    certified_normal iff boundary and normality residual <= tol_cert;
    any larger residual on the boundary is a violation (values beyond
    10x the threshold indicate a truncation artifact); interior pairs
    are not_applicable.
    """
    if not cls.is_boundary:
        return NormalityVerdict.NOT_APPLICABLE
    if cls.normality_residual <= tol.cert(op.frobenius):
        return NormalityVerdict.CERTIFIED_NORMAL
    return NormalityVerdict.VIOLATED


def split_certificate(op: Operator, cls: EigenClassification,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> SplitVerdict:
    """Re/Im eigen-equation split certificate for a boundary eigenpair.

    Requires an assembled operator (op.box): on top of the two split
    residuals, the diagonal structure of Im(A) is checked sitewise,
    |Im d(k) - Im lambda| <= tol_cert for every support site k.  Im A is
    the diagonal Im d of an assembled operator, so Im d(k) is read from
    op.diagonal.
    """
    if op.box is None:
        raise ProvenanceError(
            "split certificate needs assembly provenance (a lattice box)",
            where="classify.split_certificate",
        )
    if not cls.is_boundary:
        return SplitVerdict.NOT_APPLICABLE
    bound = tol.cert(op.frobenius)
    if cls.split_residual_re > bound or cls.split_residual_im > bound:
        return SplitVerdict.VIOLATED
    if len(cls.support_indices):
        imvals = op.diagonal.imag[cls.support_indices]
        if float(np.abs(imvals - cls.pair.value.imag).max()) > bound:
            return SplitVerdict.VIOLATED
    return SplitVerdict.CERTIFIED
