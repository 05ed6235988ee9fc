"""Dense eigensolvers with recomputed residual contracts.

Solving delegates to LAPACK (numpy/scipy); nothing returned by the backend
is trusted: unit norms are re-imposed, residuals are recomputed from the
returned vectors, and the residual contract is enforced here.  Eigenvector
phases are canonicalized (largest-magnitude entry real positive) so results
are reproducible run to run.

eig_general takes any model.Operator: the only dense copy of A it makes is
the buffer LAPACK ?geev overwrites, and its residuals come from the
operator's own products (a stencil for an assembled operator), formed on A
scaled by a power of two so that they overflow only with ||A||_F.  An
assembled operator that commutes with the exchange of two axes of its box
(Operator.swap) is solved as two half-size blocks carved from that one
buffer, and its eigenvectors are lifted exactly into the n x n rows that
the rest of the solve reads as it reads an unsplit one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import Tolerances, DEFAULT_TOLERANCES
from .exceptions import EigenSolverError, NotHermitianError
from .model import as_operator, frobenius_norm

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


def _geev(a: np.ndarray, solve_scale: float):
    """(eigenvalues, right eigenvector columns) of the Fortran-ordered a,
    by LAPACK ?geev (the routine and workspace size np.linalg.eig uses, so
    the same bits with the same BLAS) on a / solve_scale, overwriting a."""
    geev, geev_lwork = scipy.linalg.get_lapack_funcs(
        ("geev", "geev_lwork"), dtype=np.complex128)
    work, info = geev_lwork(len(a), compute_vl=0, compute_vr=1)
    if solve_scale != 1.0:
        a /= solve_scale
    vals, _, vr, info = geev(a, compute_vl=0, compute_vr=1,
                             lwork=int(work.real), overwrite_a=1)
    vals *= solve_scale
    if info != 0:
        raise EigenSolverError(
            f"eigensolver did not converge: LAPACK geev returned info = "
            f"{info}",
            worst_residual=float("nan"),
            where="linalg.eig_general",
        )
    return vals, vr


def _solve(op, solve_scale: float):
    """(eigenvalues, eigenvectors as rows) of op from one ?geev on the
    buffer op.fill writes: two n x n arrays at most."""
    n = op.dim
    buf = np.empty((n, n), dtype=np.complex128, order="F")
    op.fill(buf)
    vals, vr = _geev(buf, solve_scale)
    return vals, vr.T


def _solve_split(op, solve_scale: float):
    """(eigenvalues, eigenvectors as rows) of op from one ?geev per block
    of op.fill_split, both carved from one n x n buffer, which then takes
    the block eigenvectors lifted into its n rows: the even ones' entries
    repeat at sigma(k), the odd ones' change sign there and vanish on the
    fixed points, so the lift is exact.  The even rows come first."""
    sigma, ev, od = op.swap
    n, ne, no = op.dim, len(ev), len(od)
    flat = np.empty(n * n, dtype=np.complex128)
    even = flat[:ne * ne].reshape((ne, ne), order="F")
    odd = flat[ne * ne:ne * ne + no * no].reshape((no, no), order="F")
    op.fill_split(even, odd)
    vals_e, vr_e = _geev(even, solve_scale)
    vals_o, vr_o = _geev(odd, solve_scale)
    del even, odd
    vecs = flat.reshape(n, n)
    vecs[:ne, ev] = vr_e.T
    vecs[:ne, sigma[ev]] = vr_e.T
    vecs[ne:, od] = vr_o.T
    vecs[ne:, sigma[od]] = np.negative(vr_o, out=vr_o).T
    vecs[ne:, ev[sigma[ev] == ev]] = 0.0
    return np.concatenate([vals_e, vals_o]), vecs


def eig_general(op, tol: Tolerances = DEFAULT_TOLERANCES) -> list[EigenPair]:
    """All eigenpairs of a general complex matrix (an Operator or an array).

    Deterministic order: ascending by (Re, Im).  Every residual
    ||A v - lambda v||_2 is recomputed and must satisfy
    residual <= tol.eig * (1 + ||A||_F); otherwise this raises, carrying
    the worst residual achieved.

    LAPACK ?geev overwrites the one dense copy of A that op.fill writes
    into its Fortran-ordered buffer, divided by op.lapack_scale, and the
    eigenvector matrix it returns is normalised in place and read in
    (Re, Im) order through an index: two n x n arrays at most.  An
    operator with a swap (an exchange of two axes of its box that A
    commutes with) is instead solved as its two blocks of op.fill_split,
    of sizes (n + f) / 2 and (n - f) / 2 for f fixed sites, about a
    quarter of the work in about 1.5 n x n arrays; the lifted vectors are
    exactly even or odd under the exchange, and the pairs agree with the
    unsplit solve to rounding, not bit for bit.  The residuals come from
    op.products on f / op.scale, exactly scaled, so they stay finite
    whenever ||A||_F is.
    """
    op = as_operator(op)
    if not op.finite:
        raise EigenSolverError("matrix has entries beyond the float64 range",
                               where="linalg.eig_general")
    n = op.dim
    if n == 0:
        return []
    frob = op.frobenius
    solve = _solve if op.swap is None else _solve_split
    vals, vecs = solve(op, op.lapack_scale)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    # One contiguous row per eigenvector, normalised in place: each pair's
    # vector is a view of this one block rather than a separate small array,
    # so n pairs do not scatter n allocations (and their temporaries) over
    # the heap.
    for v in vecs:
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise EigenSolverError("backend returned a zero eigenvector",
                                   where="linalg.eig_general")
        v /= nrm
        _canonical_phase(v)
    scale = op.scale
    res = np.empty(len(vals))
    for b in residual_blocks(len(vals)):
        f = vecs[order[b]]
        af, _ = op.products(f / scale)  # rows A f_j / scale
        res[b] = scale * np.linalg.norm(af - (vals[b, None] / scale) * f,
                                        axis=1)
    worst = float(res.max()) if len(res) else 0.0
    pairs = list(map(EigenPair, vals.tolist(), (vecs[k] for k in order),
                     res.tolist()))
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
    a = as_operator(op).matrix
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
