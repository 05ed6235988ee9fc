"""Numerical range via support-function sweeps.

For each angle theta the top eigenpair of Re(e^{i theta} A) gives one outer
half-plane {z : Re(e^{i theta} z) <= s(theta)} and one inner witness point
<A f, f> that attains the support line.  The witness hull (inner polygon)
and the half-plane intersection (outer region) sandwich the true numerical
range; the gap shrinks like 1/n_angles^2 on smooth boundary arcs.

The per-angle solver is chosen once per matrix from its entries:

  A = A^T (every assembled lattice operator, A = J + diag(V) with J real):
      Re(e^{i theta} A) = cos(theta) Re A - sin(theta) Im A is real
      symmetric, and the witness is f^T A f for the real unit vector f.
      - bandwidth 1 (1D chains): LAPACK ?stebz (bisection for the top
        eigenvalue) and ?stein (inverse iteration for its vector) on the
        diagonal and sub-diagonal, witness in O(n).  These are the calls
        scipy.linalg.eigh_tridiagonal(select='i') makes, with its answers
        bit for bit, but made directly: on the chains of a sweep (tens to
        hundreds of sites) that wrapper's per-call argument handling cost
        more than the two LAPACK calls.  Finiteness is checked once per
        matrix instead of once per angle; a rotation that overflows
        (entries near the float64 limit) makes ?stebz fail, which raises
        EigenSolverError;
      - otherwise (boxes with nu >= 2): a real dense scipy.linalg.eigh.
  any other matrix (a Jordan block, a random matrix): a complex Hermitian
      dense scipy.linalg.eigh of Re(e^{i theta} A).

A subset solve can return no eigenpair: the dense one when the top
eigenvalue is highly degenerate, bisection when its Gershgorin bounds
overflow (entries near the float64 limit).  The full spectrum of the same
matrix is used then (?stevd for a chain, which scales the matrix first).

Membership and boundary-distance queries run against the outer description.
The sampled minimum margin equals the distance to the outer region's
boundary, which upper-bounds the distance to the true boundary: on curved
arcs a genuine boundary point may read as slightly interior (never the
other way around), and on flat faces whose normal is on the angle grid the
margin is exact.  Grids divisible by 4 sample the axis directions exactly,
which is what the diagonal-imaginary-part certificates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .config import Tolerances, DEFAULT_TOLERANCES, DEFAULT_N_ANGLES
from .exceptions import EigenSolverError, HullDomainError
from .model import _as_array, imag_part, real_part


def _top_eigpair(build) -> tuple[float, np.ndarray]:
    """Top eigenpair of the Hermitian matrix that build() returns.  eigh may
    overwrite that matrix, so the fallback builds it again."""
    h = build()
    n = h.shape[0]
    w, v = scipy.linalg.eigh(h, subset_by_index=(n - 1, n - 1),
                             overwrite_a=True)
    if len(w) == 0:
        # LAPACK's subset driver can return nothing when many eigenvalues
        # tie at the top; the full spectrum of the same matrix cannot.
        w, v = scipy.linalg.eigh(build(), overwrite_a=True)
    return float(w[-1]), v[:, -1]


def _lapack_ok(info: int, routine: str) -> None:
    if info != 0:
        raise EigenSolverError(f"LAPACK {routine} returned info = {info}",
                               where="numrange.tridiagonal")


def _tridiagonal_top(n: int):
    """(dd, ee) -> top eigenpair of the real symmetric tridiagonal matrix
    with diagonal dd and sub-diagonal ee, by the LAPACK calls that
    scipy.linalg.eigh_tridiagonal(dd, ee, select='i',
    select_range=(n - 1, n - 1)) makes.  The routines are looked up once
    here; dd and ee must be finite float64 arrays.  A 1 x 1 matrix needs no
    LAPACK call (the wrapper's quick exit)."""
    if n == 1:
        return lambda dd, ee: (float(dd[0]), np.ones(1))
    stebz, stein, stevd = scipy.linalg.get_lapack_funcs(
        ("stebz", "stein", "stevd"), dtype=np.float64)

    def top(dd: np.ndarray, ee: np.ndarray) -> tuple[float, np.ndarray]:
        m, w, iblock, isplit, info = stebz(dd, ee, 2, 0.0, 1.0, n, n, 0.0,
                                           "B")
        _lapack_ok(info, "stebz")
        if m == 0:
            # its Gershgorin bounds overflowed; ?stevd scales the matrix first
            w, v, info = stevd(dd, ee)
            _lapack_ok(info, "stevd")
            return float(w[-1]), v[:, -1]
        v, info = stein(dd, ee, w[:m], iblock, isplit)
        _lapack_ok(info, "stein")
        # stebz orders by block, not by value
        j = np.argsort(w[:m])[-1] if m > 1 else 0
        return float(w[j]), v[:, j]
    return top


def _rotation(p: np.ndarray, q: np.ndarray):
    """theta -> cos(theta) p - sin(theta) q, built into two buffers allocated
    once here.  p and q are Fortran-ordered, so the result is too and eigh
    works on it in place instead of copying it."""
    buf, tmp = np.empty_like(p), np.empty_like(p)

    def build(theta: float) -> np.ndarray:
        np.multiply(p, np.cos(theta), out=buf)
        np.multiply(q, np.sin(theta), out=tmp)
        return np.subtract(buf, tmp, out=buf)
    return build


def _bandwidth_at_most_one(a: np.ndarray) -> bool:
    """For a symmetric a: every nonzero entry lies on the three central
    diagonals."""
    return np.count_nonzero(a) == (np.count_nonzero(np.diagonal(a))
                                   + 2 * np.count_nonzero(np.diagonal(a, 1)))


def _sweep_solver(a: np.ndarray):
    """The per-angle solver theta -> (s(theta), witness) for matrix a, chosen
    once from a's structure (see the module notes)."""
    if not np.array_equal(a, a.T):
        rotated = _rotation(np.asfortranarray(real_part(a).matrix),
                            np.asfortranarray(imag_part(a).matrix))

        def dense(theta: float) -> tuple[float, complex]:
            s, f = _top_eigpair(lambda: rotated(theta))
            return s, complex(np.vdot(f, a @ f))
        return dense

    n = a.shape[0]
    if _bandwidth_at_most_one(a):
        d, e = np.diagonal(a).copy(), np.diagonal(a, -1).copy()
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise ValueError("array must not contain infs or NaNs")
        # d and e end to end, so one rotation per angle forms both
        re_de = np.concatenate([d.real, e.real])
        im_de = np.concatenate([d.imag, e.imag])
        top = _tridiagonal_top(n)

        def tridiagonal(theta: float) -> tuple[float, complex]:
            c, sn = np.cos(theta), np.sin(theta)
            de = c * re_de - sn * im_de
            s, f = top(de[:n], de[n:])
            return s, complex(d @ f ** 2 + 2.0 * (e @ (f[:-1] * f[1:])))
        return tridiagonal

    re, im = a.real.copy(), a.imag.copy()
    rotated = _rotation(re.T, im.T)  # symmetric: the same entries, F-ordered

    def real_symmetric(theta: float) -> tuple[float, complex]:
        s, f = _top_eigpair(lambda: rotated(theta))
        return s, complex(f @ re @ f, f @ im @ f)
    return real_symmetric


def support_function(op, theta: float) -> tuple[float, complex]:
    """Support value s(theta) = lambda_max(Re(e^{i theta} A)) and the witness
    <A f, f> for a maximizing unit vector f.  Re(e^{i theta} witness) equals
    the support value up to eigensolver accuracy."""
    return _sweep_solver(_as_array(op))(float(theta))


def _convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Monotone chain on complex points; counterclockwise vertex order.
    Degenerate inputs yield 1 (point) or 2 (segment) vertices."""
    pts = np.unique(points)
    pts = pts[np.lexsort((pts.imag, pts.real))]
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[complex] = []
        for p in seq:
            while len(out) >= 2:
                o, q = out[-2], out[-1]
                cross = (q.real - o.real) * (p.imag - o.imag) - \
                        (q.imag - o.imag) * (p.real - o.real)
                if cross <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if not hull:
        hull = [pts[0]]
    return np.asarray(hull, dtype=np.complex128)


@dataclass(frozen=True)
class NumericalRangeHull:
    """Sampled two-sided description of Num(A).

    thetas/supports/witnesses are parallel arrays (one sample per angle,
    ascending theta); polygon is the counterclockwise witness hull, which
    may degenerate to 2 vertices (segment) or 1 (point).
    """

    thetas: np.ndarray
    supports: np.ndarray
    witnesses: np.ndarray
    polygon: np.ndarray
    n_angles: int

    @cached_property
    def _phases(self) -> np.ndarray:
        return np.exp(1j * self.thetas)

    def margins(self, z: complex) -> np.ndarray:
        """s(theta) - Re(e^{i theta} z) over all sampled angles."""
        return self.supports - (self._phases * z).real

    def contains(self, z: complex, tol: float = 0.0) -> bool:
        """Outer membership test: all sampled half-plane constraints within tol."""
        return bool(np.all(self.margins(z) >= -tol))

    def boundary_distance(self, z: complex, outside_tol: float = 1e-9) -> float:
        """Distance from z to the boundary of the outer region (min margin,
        clamped at zero).  Raises HullDomainError when z violates some
        half-plane by more than outside_tol: that distinguishes genuinely
        outside points from boundary points within tolerance."""
        m = float(self.margins(z).min())
        if m < -outside_tol:
            raise HullDomainError(
                f"point {z} lies outside the sampled hull by {-m:.3e} "
                f"(> {outside_tol:.1e}); boundary distance undefined",
                where="numrange.boundary_distance",
            )
        return max(m, 0.0)

    def vertices(self) -> np.ndarray:
        return self.polygon


def compute_hull(op, n_angles: int = DEFAULT_N_ANGLES) -> NumericalRangeHull:
    """Sweep theta_m = 2 pi m / n_angles, m = 0..n_angles-1."""
    if n_angles < 3:
        raise ValueError("n_angles must be >= 3")
    solve = _sweep_solver(_as_array(op))
    ts = np.array([2.0 * np.pi * m / n_angles for m in range(n_angles)],
                  dtype=np.float64)
    samples = [solve(t) for t in ts]
    sup = np.array([s for s, _ in samples], dtype=np.float64)
    wit = np.array([w for _, w in samples], dtype=np.complex128)
    poly = _convex_hull_ccw(wit)
    return NumericalRangeHull(thetas=ts, supports=sup, witnesses=wit,
                              polygon=poly, n_angles=n_angles)
