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

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .config import Tolerances, DEFAULT_TOLERANCES
from .exceptions import EigenSolverError, ProvenanceError
from .linalg import EigenPair, eig_general, residual_blocks
from .model import LatticeBox, Operator
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


class _Evidence(NamedTuple):
    """The fields of a record that its certificates read, which classify
    hands them before it builds the record."""

    pair: EigenPair
    is_boundary: bool
    normality_residual: float
    split_residual_re: float
    split_residual_im: float
    support_indices: np.ndarray


def classify(op: Operator, hull: NumericalRangeHull,
             tol: Tolerances = DEFAULT_TOLERANCES) -> list[EigenClassification]:
    """One record per eig_general pair, in the same (Re, Im) order, with
    both certificates decided.

    The hull must have been computed from the same operator; the sampled
    minimum margin is the boundary distance (see numrange module notes on
    its direction of error).  Never raises ProvenanceError: without a box
    the split verdict is None.  Pairs go in blocks of RESIDUAL_BLOCK: each
    block's residuals, margins, supports and extents are arrays, and each
    record is built once from their rows.
    """
    frob = op.frobenius
    if not np.isfinite(frob):
        raise EigenSolverError(
            f"||A||_F = {frob} is beyond the float64 range, so the residuals "
            f"and the tolerances scaled by it are undefined",
            where="classify.classify")
    tol_boundary = tol.boundary(frob)
    pairs = eig_general(op, tol)
    out = []
    for b in residual_blocks(len(pairs)):
        # a call per block, so that a block's temporaries are freed before
        # the next block allocates its own
        out += _block_records(op, hull, tol, tol_boundary, pairs[b])
    return out


def _block_records(op: Operator, hull: NumericalRangeHull, tol: Tolerances,
                   tol_boundary: float,
                   block: list[EigenPair]) -> list[EigenClassification]:
    """The records of a block of pairs."""
    scale = op.scale
    box = op.box
    f = np.array([p.vector for p in block])  # rows f_j
    values = np.array([p.value for p in block])
    lam = values[:, None] / scale
    # rows A f_j / scale and A* f_j / scale: the norms below are formed
    # on A / scale (exactly), so they overflow only with ||A||_F
    af, ahf = op.products(f / scale)
    normality = scale * np.linalg.norm(ahf - lam.conj() * f, axis=1)
    split_re = scale * np.linalg.norm((af + ahf) / 2.0 - lam.real * f,
                                      axis=1)
    split_im = scale * np.linalg.norm((af - ahf) / 2.0j - lam.imag * f,
                                      axis=1)
    dist = hull.boundary_distances(values, outside_tol=tol_boundary)
    absf = np.abs(f)
    support = absf > (tol.support_rel * absf.max(axis=1))[:, None]
    # each row's support sites, as views of one array (np.nonzero's
    # column indices would be views of an array twice that size)
    sites = np.flatnonzero(support)
    sites %= support.shape[1]
    sizes = np.count_nonzero(support, axis=1)
    indices = np.split(sites, np.cumsum(sizes)[:-1])
    extents = limited = [None] * len(block)
    if box is not None:
        extents, limited = _extents(box, support, sizes)
    out = []
    for pair, d, boundary, nr, sr, si, idx, extent, lim in zip(
            block, dist.tolist(), (dist <= tol_boundary).tolist(),
            normality.tolist(), split_re.tolist(), split_im.tolist(),
            indices, extents, limited):
        ev = _Evidence(pair, boundary, nr, sr, si, idx)
        out.append(EigenClassification(
            pair=pair, boundary_distance=d, is_boundary=boundary,
            normality_residual=nr, split_residual_re=sr,
            split_residual_im=si, support_indices=idx,
            support_extent=extent, box_limited=lim,
            normality=hildebrandt_certificate(op, ev, tol),
            split=None if box is None else split_certificate(op, ev, tol)))
    return out


def _extents(box: LatticeBox, support: np.ndarray, sizes: np.ndarray):
    """(support_extent, box_limited) of each row of the support mask: the
    masked min and max of each coordinate of box.sites, and whether they
    lie strictly inside the box's ranges; None for an empty row."""
    lo = np.empty((len(support), box.nu), dtype=np.int64)
    hi = np.empty_like(lo)
    inside = np.ones(len(support), dtype=bool)
    top = np.iinfo(np.int64)
    for a, (blo, bhi) in enumerate(box.ranges):
        coord = box.sites[:, a]
        lo[:, a] = np.where(support, coord, top.max).min(axis=1)
        hi[:, a] = np.where(support, coord, top.min).max(axis=1)
        inside &= (blo < lo[:, a]) & (hi[:, a] < bhi)
    empty = (sizes == 0).tolist()
    extents = [None if e else tuple(zip(l, h))
               for e, l, h in zip(empty, lo.tolist(), hi.tolist())]
    limited = [None if e else v for e, v in zip(empty, inside.tolist())]
    return extents, limited


def hildebrandt_certificate(op: Operator, cls: EigenClassification,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> NormalityVerdict:
    """Normality certificate for a boundary eigenpair.

    certified_normal iff boundary and normality residual <= tol_cert;
    any larger residual on the boundary is a violation (values beyond
    10x the threshold indicate a truncation artifact); interior pairs
    are not_applicable.  Reads only the fields of cls that _Evidence
    holds, so classify can decide before it builds the record.
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
    op.diagonal.  Reads only the fields of cls that _Evidence holds.
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
