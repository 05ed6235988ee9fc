"""Dense eigensolvers with recomputed residual contracts.

Solving delegates to LAPACK (numpy/scipy); nothing returned by the backend
is trusted: unit norms are re-imposed, residuals are recomputed from the
returned vectors, and the residual contract is enforced here.  Eigenvector
phases are canonicalized (largest-magnitude entry real positive) so results
are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, DEFAULT_TOLERANCES
from .exceptions import EigenSolverError, NotHermitianError
from .model import _as_array, frobenius_norm

HERMITIAN_TOL = 1e-12
ORTHO_TOL = 1e-10
# Eigenvectors per residual product: one matrix product per block replaces
# a mat-vec per vector, and the block's temporaries stay O(n * block).
RESIDUAL_BLOCK = 64


@dataclass(frozen=True)
class EigenPair:
    value: complex
    vector: np.ndarray
    residual: float


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Scale vec in place so its largest entry is real positive."""
    k = int(np.argmax(np.abs(vec)))
    pivot = vec[k]
    if pivot != 0:
        vec *= abs(pivot) / pivot
    return vec


def residual_blocks(n: int):
    """Slices of at most RESIDUAL_BLOCK consecutive indices covering range(n)."""
    return (slice(j, min(j + RESIDUAL_BLOCK, n))
            for j in range(0, n, RESIDUAL_BLOCK))


def eig_general(op, tol: Tolerances = DEFAULT_TOLERANCES) -> list[EigenPair]:
    """All eigenpairs of a general complex matrix.

    Deterministic order: ascending by (Re, Im).  Every residual
    ||A v - lambda v||_2 is recomputed and must satisfy
    residual <= tol.eig * (1 + ||A||_F); otherwise this raises, carrying
    the worst residual achieved.
    """
    a = _as_array(op)
    frob = frobenius_norm(a)
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"eigensolver did not converge: {exc}",
            worst_residual=float("nan"),
            where="linalg.eig_general",
        ) from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    # One contiguous row per eigenvector, normalised in place: each pair's
    # vector is a view of this one block rather than a separate small array,
    # so n pairs do not scatter n allocations (and their temporaries) over
    # the heap, and a run of rows is one operand of the residual product.
    vecs = vecs.T[order]
    for v in vecs:
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise EigenSolverError("backend returned a zero eigenvector",
                                   where="linalg.eig_general")
        v /= nrm
        _canonical_phase(v)
    res = np.empty(len(vals))
    for b in residual_blocks(len(vals)):
        f = vecs[b]  # rows f_j; row j of f @ A^T is A f_j
        res[b] = np.linalg.norm(f @ a.T - vals[b, None] * f, axis=1)
    worst = float(res.max()) if len(res) else 0.0
    pairs = list(map(EigenPair, vals.tolist(), vecs, res.tolist()))
    bound = tol.eig * (1.0 + frob)
    if worst > bound:
        raise EigenSolverError(
            f"residual contract breached: worst residual {worst:.3e} "
            f"exceeds {bound:.3e}",
            worst_residual=worst,
            where="linalg.eig_general",
        )
    return pairs


def eig_hermitian(op, tol: Tolerances = DEFAULT_TOLERANCES,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and orthonormal eigenvector columns.

    Input must be hermitian within 1e-12 entrywise; pairwise orthogonality
    of the returned basis is enforced to 1e-10.
    """
    a = _as_array(op)
    dev = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    if dev > HERMITIAN_TOL:
        raise NotHermitianError(
            f"matrix deviates from hermitian by {dev:.3e} (> {HERMITIAN_TOL})",
            where="linalg.eig_hermitian",
        )
    frob = frobenius_norm(a)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"eigensolver did not converge: {exc}",
            worst_residual=float("nan"),
            where="linalg.eig_hermitian",
        ) from exc
    for j in range(vecs.shape[1]):
        vecs[:, j] = _canonical_phase(vecs[:, j] / np.linalg.norm(vecs[:, j]))
    res = np.linalg.norm(a @ vecs - vecs * vals[None, :], axis=0)
    worst = float(res.max()) if len(res) else 0.0
    if worst > tol.eig * (1.0 + frob):
        raise EigenSolverError(
            f"residual contract breached: worst residual {worst:.3e}",
            worst_residual=worst,
            where="linalg.eig_hermitian",
        )
    gram = np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1]))
    if gram.size and float(gram.max()) > ORTHO_TOL:
        raise EigenSolverError(
            f"orthonormality breached by {float(gram.max()):.3e}",
            worst_residual=worst,
            where="linalg.eig_hermitian",
        )
    return vals, vecs
