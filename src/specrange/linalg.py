"""The one dense eigensolver, eig_general, with a recomputed residual
contract.

Solving delegates to LAPACK through scipy.linalg, which is imported at the
first solve, not with this module; nothing returned by the backend is
trusted: each vector is made unit with its largest entry real positive,
so results repeat run to run, its residual is recomputed, and the residual
contract is enforced here.

eig_general takes any model.Operator, and the only dense copy of A it
makes is one n x n buffer.  The operator writes into it its blocks on the
even and odd vectors of an exchange of sites that A commutes with: the
exchange of two axes of its box (Operator.swap), two half-size blocks, or
the trivial exchange, whose one block is A itself.  LAPACK ?geev
overwrites each block, and the block eigenvectors are lifted exactly into
the buffer's n rows.  The residuals come from the operator's own product
A f (a stencil for an assembled operator), formed on A scaled by a power of
two so that they overflow only with ||A||_F.  An assembled operator whose
Im d is a constant c (Operator.normal_shift) is normal, and its pairs are
(mu + i c, u) for the eigenpairs of the real symmetric Re A: each block is
then the real part alone, solved by LAPACK ?syevr instead of ?geev.  An
explicit matrix, Hermitian or not, is never taken for normal: ?geev.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, DEFAULT_TOLERANCES
from .exceptions import EigenSolverError
from .model import as_operator, trivial_swap

# Eigenvectors per residual product: one product per block (a stencil for
# an assembled operator) replaces a mat-vec per vector, and the block's
# temporaries stay O(n * block).
RESIDUAL_BLOCK = 64


@dataclass(frozen=True)
class EigenPair:
    value: complex
    vector: np.ndarray
    residual: float


def residual_blocks(n: int):
    """Slices of at most RESIDUAL_BLOCK consecutive indices covering range(n)."""
    return (slice(j, min(j + RESIDUAL_BLOCK, n))
            for j in range(0, n, RESIDUAL_BLOCK))


def _block_eig(a: np.ndarray, solve_scale: float, shift: float | None):
    """(eigenvalues, eigenvector columns) of the Fortran-ordered block a on
    a / solve_scale, overwriting a.  Without a shift by LAPACK ?geev (the
    routine and workspace size np.linalg.eig uses, so the same bits with
    the same BLAS); with one, a is real symmetric and its eigenpairs
    (mu, u) give (mu + i shift, u), by ?syevr on its upper triangle.  A
    block of size 0 is not handed to LAPACK."""
    if not len(a):
        return np.empty(0, dtype=np.complex128), a
    # loaded at the first solve, so criteria and refused calls skip it
    import scipy.linalg
    if solve_scale != 1.0:
        a /= solve_scale
    if shift is None:
        routine, lwork = scipy.linalg.get_lapack_funcs(
            ("geev", "geev_lwork"), dtype=np.complex128)
        work, info = lwork(len(a), compute_vl=0, compute_vr=1)
        vals, _, vecs, info = routine(a, compute_vl=0, compute_vr=1,
                                      lwork=int(work.real), overwrite_a=1)
        vals *= solve_scale
    else:
        routine, lwork = scipy.linalg.get_lapack_funcs(
            ("syevr", "syevr_lwork"), dtype=np.float64)
        work, iwork, info = lwork(len(a))
        mu, vecs, _, _, info = routine(a, compute_v=1, lwork=int(work),
                                       liwork=int(iwork), overwrite_a=1)
        vals = (mu * solve_scale).astype(np.complex128)
        vals.imag = shift
    if info != 0:
        raise EigenSolverError(
            f"eigensolver did not converge: LAPACK "
            f"{'geev' if shift is None else 'syevr'} returned info = {info}",
            worst_residual=float("nan"),
            where="linalg.eig_general",
        )
    return vals, vecs


def _solve(op, solve_scale: float):
    """(eigenvalues, eigenvectors as rows) of op from one ?geev per block
    of op.fill_blocks on op.swap, or on the trivial exchange when op.swap
    is None (one block, A itself), both blocks carved from one n x n
    buffer, which then takes the block eigenvectors lifted into its n
    rows: the even ones' entries repeat at sigma(k), the odd ones' change
    sign there and vanish on the fixed points, so the lift is exact.  The
    even rows come first.

    A normal op's blocks are those of Re A, real, solved by ?syevr.  The
    odd block is symmetric; the even one, written on the unnormalised
    basis e_k + e_sigma(k), is made so by the diagonal similarity
    N B N^-1 with N = sqrt 2 on the pair sites and 1 on the fixed points
    (its entries between the two take sqrt 2 and 2 sqrt(1/2), the same
    float), and its eigenvectors are divided by N before the lift."""
    n, shift = op.dim, op.normal_shift
    swap = trivial_swap(n) if op.swap is None else op.swap
    sigma, ev, od = swap
    ne, no = len(ev), len(od)
    flat = np.empty(n * n, dtype=np.complex128)
    mem = flat if shift is None else flat.view(np.float64)
    even = mem[:ne * ne].reshape((ne, ne), order="F")
    odd = mem[ne * ne:ne * ne + no * no].reshape((no, no), order="F")
    op.fill_blocks(swap, even, odd)
    fixed = sigma[ev] == ev
    if shift is not None:
        pair, fix = np.flatnonzero(~fixed), np.flatnonzero(fixed)
        even[np.ix_(pair, fix)] *= np.sqrt(2.0)
        even[np.ix_(fix, pair)] *= np.sqrt(0.5)
    vals_e, vr_e = _block_eig(even, solve_scale, shift)
    if shift is not None:
        vr_e *= np.where(fixed, 1.0, np.sqrt(0.5))[:, None]
    vals_o, vr_o = _block_eig(odd, solve_scale, shift)
    del even, odd
    vecs = flat.reshape(n, n)
    vecs[:ne, ev] = vr_e.T
    if not fixed.all():  # on the trivial exchange sigma[ev] is ev
        vecs[:ne, sigma[ev]] = vr_e.T
    vecs[ne:, od] = vr_o.T
    vecs[ne:, sigma[od]] = np.negative(vr_o, out=vr_o).T
    vecs[ne:, ev[fixed]] = 0.0
    return np.concatenate([vals_e, vals_o]), vecs


def eig_general(op, tol: Tolerances = DEFAULT_TOLERANCES) -> list[EigenPair]:
    """All eigenpairs of a general complex matrix (an Operator or an array).

    Deterministic order: ascending by (Re, Im).  Every residual
    ||A v - lambda v||_2 is recomputed and must satisfy
    residual <= tol.eig * (1 + ||A||_F); otherwise this raises, carrying
    the worst residual achieved.

    A is solved as its blocks on the even and odd vectors of op.swap, or
    of the trivial exchange when op.swap is None, written by
    op.fill_blocks into one Fortran-ordered n x n buffer.  LAPACK ?geev
    overwrites each block, divided by op.lapack_scale; the block
    eigenvectors are lifted into the buffer's rows.  One pass over
    blocks of these rows in (Re, Im) order makes each row unit (by the
    ddot calls of np.linalg.norm), its largest entry real positive,
    writes it back and forms its residual: two n x n arrays at most.
    On the trivial exchange the one block is A, so the pairs are those
    of ?geev on the dense matrix, bit for bit with one BLAS thread.
    A swap (an exchange of two axes of the box that A commutes with)
    gives blocks of sizes (n + f) / 2 and (n - f) / 2 for f fixed sites,
    about a quarter of the work in about 1.5 n x n arrays; the lifted
    vectors are exactly even or odd under the exchange, and the pairs
    agree with the dense solve to rounding, not bit for bit.

    A normal operator (op.normal_shift is c, not None: an assembled
    operator with Im d = c on its box) has the eigenpairs (mu + i c, u)
    of the real symmetric Re A.  Each block is then Re A's, written as a
    real array into the same buffer, divided by op.lapack_scale and
    solved by ?syevr, a fraction of ?geev's work; the pairs have
    Im lambda = c exactly and real vectors, and agree with the ?geev
    solve of the same matrix to rounding.  An explicit matrix is never
    taken for normal.

    The residuals come from op.apply on f / op.scale, exactly scaled, so
    they stay finite whenever ||A||_F is.
    """
    op = as_operator(op)
    if not op.finite:
        raise EigenSolverError("matrix has entries beyond the float64 range",
                               where="linalg.eig_general")
    n = op.dim
    if n == 0:
        return []
    frob = op.frobenius
    vals, vecs = _solve(op, op.lapack_scale)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    scale = op.scale
    res = np.empty(n)
    for b in residual_blocks(n):
        # unit rows (np.linalg.norm's ddot calls), largest entry positive
        f = vecs[order[b]]
        nrm = np.sqrt(
            np.matmul(f.real[:, None], f.real[:, :, None])[:, 0, 0]
            + np.matmul(f.imag[:, None], f.imag[:, :, None])[:, 0, 0])
        if not nrm.all():
            raise EigenSolverError("backend returned a zero eigenvector",
                                   where="linalg.eig_general")
        f /= nrm[:, None]
        pivot = f[np.arange(len(f)), np.argmax(np.abs(f), axis=1)]
        f *= (np.abs(pivot) / pivot)[:, None]
        vecs[order[b]] = f
        # rows A f_j / scale - (lambda_j / scale) f_j and their norms, with
        # the operations of np.linalg.norm(..., axis=1) on three blocks of
        # temporaries; f / scale is f itself for a scale of 1
        r = op.apply(f if scale == 1.0 else f / scale)
        t = (vals[b, None] / scale) * f
        r -= t
        np.conjugate(r, out=t)
        t *= r
        res[b] = scale * np.sqrt(np.add.reduce(t.real, axis=1))
    worst = float(res.max())
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

