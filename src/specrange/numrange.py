"""Numerical range via support-function sweeps.

For each angle theta the top eigenpair of Re(e^{i theta} A) gives one outer
half-plane {z : Re(e^{i theta} z) <= s(theta)} and one inner witness point
<A f, f> that attains the support line.  The witness hull (inner polygon)
and the half-plane intersection (outer region) sandwich the true numerical
range; the gap shrinks like 1/n_angles^2 on smooth boundary arcs.

The per-angle solver is chosen once per operator from its type.

  an assembled operator (model.LatticeOperator, A = J + diag(d) with J the
  box's real hopping, so A = A^T):
      Re(e^{i theta} A) = cos(theta) Re A - sin(theta) Im A is real
      symmetric, and the witness is f^T A f for the real unit vector f.
      d, the bandwidth and the hopping band come from the box, with no
      n x n array.
      - bandwidth 1 (1D chains, and boxes with one axis longer than 1):
        LAPACK ?stebz (bisection for the top eigenvalue) and ?stein
        (inverse iteration for its vector) on the diagonal and
        sub-diagonal, witness in O(n).  These are the calls
        scipy.linalg.eigh_tridiagonal(select='i') makes, with its answers
        bit for bit, but made directly: on the chains of a sweep (tens to
        hundreds of sites) that wrapper's per-call argument handling cost
        more than the two LAPACK calls.  A chain whose entries leave
        [2^-64, 2^64] is solved divided by its power-of-two scale
        (Operator.lapack_scale), which keeps ?stebz's bounds and ?stein's
        vectors finite up to the float64 limit; bisection that finds no
        eigenvalue raises EigenSolverError;
      - bandwidth kd > 1 (boxes with nu >= 2: kd = L on an L x L box,
        L^2 on L^3): shifted inverse iteration on the band of
        H = cos(theta) Re A - sin(theta) Im A, LAPACK ?pbtrf/?pbtrs and
        BLAS ?sbmv, O(n kd^2) per step and about eight steps per angle.
        Re A and Im A are stored in band form once per operator, divided
        by their power-of-two scale.  Each shift sigma is certified to lie
        above lambda_max by a successful band Cholesky factorisation of
        sigma I - H, and the iteration stops when the Rayleigh quotient
        rho has residual at most delta and sigma = rho + delta factors, so
        s(theta) = rho with lambda_max in the certified bracket
        [rho, rho + delta].  delta is a fixed multiple of
        kd * eps * (1 + max row sum |A|), Cholesky's backward error, not a
        setting.  An angle the iteration has not certified within
        _BAND_MAX_FACTORS factorisations goes to a real dense
        scipy.linalg.eigh, whose n x n buffers are allocated only then.
  any other operator (an explicit matrix, whatever its entries): a complex
      Hermitian dense scipy.linalg.eigh of Re(e^{i theta} A), rotated from
      Re A = (A + A*)/2 and Im A = (A - A*)/2i, formed once per operator.
      Its subset solve can return no eigenpair when the top eigenvalue is
      highly degenerate; the full spectrum of the same matrix is used then.

Non-finite entries, and a support value or witness beyond the float64 range
once unscaled (entries near 1.7e308), raise EigenSolverError.

The witness polygon drops witnesses that lie on the chord between their
neighbours up to COLLINEAR_REL of the witness set's extent, so a flat
edge's vertex list does not follow the last bits of its witnesses.

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

from .config import DEFAULT_N_ANGLES
from .exceptions import EigenSolverError, HullDomainError
from .model import LatticeOperator, Operator, as_operator


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
                               where="numrange.compute_hull")


def _tridiagonal_top(n: int):
    """(dd, ee) -> top eigenpair of the real symmetric tridiagonal matrix
    with diagonal dd and sub-diagonal ee, by the LAPACK calls that
    scipy.linalg.eigh_tridiagonal(dd, ee, select='i',
    select_range=(n - 1, n - 1)) makes.  The routines are looked up once
    here; dd and ee must be finite float64 arrays.  A 1 x 1 matrix needs no
    LAPACK call (the wrapper's quick exit)."""
    if n == 1:
        return lambda dd, ee: (float(dd[0]), np.ones(1))
    stebz, stein = scipy.linalg.get_lapack_funcs(("stebz", "stein"),
                                                 dtype=np.float64)

    def top(dd: np.ndarray, ee: np.ndarray) -> tuple[float, np.ndarray]:
        m, w, iblock, isplit, info = stebz(dd, ee, 2, 0.0, 1.0, n, n, 0.0,
                                           "B")
        _lapack_ok(info, "stebz")
        if m == 0:
            raise EigenSolverError("LAPACK stebz found no eigenvalue",
                                   where="numrange.compute_hull")
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


def _unband(ab: np.ndarray) -> np.ndarray:
    """The symmetric n x n matrix whose lower band is ab (C-ordered)."""
    n = ab.shape[1]
    m = np.zeros((n, n))
    for d in range(ab.shape[0]):
        i = np.arange(n - d)
        m[i + d, i] = m[i, i + d] = ab[d, :n - d]
    return m


# The certified bracket of the banded solver is [rho, rho + delta] with
# delta = _BAND_DELTA_ULPS * (kd + 1) * eps * (1 + max row sum |A|): the
# backward error of a band Cholesky factorisation is a small multiple of
# (kd + 1) * eps * ||sigma I - H||, and the row sum bounds ||H(theta)||.
_BAND_DELTA_ULPS = 8.0
# Band factorisations per angle before the dense solver takes over.
_BAND_MAX_FACTORS = 60


def _banded_solver(p: np.ndarray, q: np.ndarray, kd: int, scale: float,
                   signs: np.ndarray):
    """theta -> (s(theta), witness) for the symmetric A = P + i Q whose lower
    bands (Re A and Im A in LAPACK band storage) are p and q: the top
    eigenpair of H = cos(theta) Re A - sin(theta) Im A by shifted inverse
    iteration on H's band, or None when the iteration has not certified it
    within _BAND_MAX_FACTORS factorisations.

    Each step takes the Rayleigh quotient rho = x^T H x and the residual
    r = ||H x - rho x|| and factors sigma I - H by ?pbtrf at
    sigma = rho + max(r, delta), widening sigma until the factorisation
    succeeds, which proves lambda_max < sigma.  It stops when r <= delta
    and sigma = rho + delta factors: lambda_max then lies in
    [rho, rho + delta].  Otherwise ?pbtrs solves (sigma I - H) y = x and
    x = y / ||y||.  The start depends on theta alone: the off-diagonal of H
    is cos(theta) times the hopping, nonnegative, so the Perron vector of H
    is positive when cos(theta) >= 0 and carries the hopping's +-1 `signs`
    (opposite at the ends of every hop) when cos(theta) < 0; a start of
    those signs cannot be orthogonal to it."""
    n = p.shape[1]
    # The iteration runs on A / scale, each entry's parts below 2 in
    # modulus, so no product or norm in it overflows; a power of two scales
    # exactly.
    p, q = p / scale, q / scale
    absb = np.hypot(p, q)
    row_sums = absb.sum(axis=0)
    for d in range(1, kd + 1):
        row_sums[d:] += absb[d, :n - d]
    delta = (_BAND_DELTA_ULPS * (kd + 1) * np.finfo(np.float64).eps
             * (1.0 / scale + float(row_sums.max())))
    starts = (np.full(n, n ** -0.5), signs * n ** -0.5)
    pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"),
                                                 dtype=np.float64)
    sbmv, = scipy.linalg.get_blas_funcs(("sbmv",), dtype=np.float64)
    h, shifted = np.empty_like(p), np.empty_like(p)

    def factors(sigma: float) -> bool:
        """Cholesky-factor sigma I - H into `shifted`; True on success."""
        np.negative(h, out=shifted)
        shifted[0] += sigma
        _, info = pbtrf(shifted, lower=1, overwrite_ab=1)
        return info == 0

    def witness(f: np.ndarray) -> complex:
        return complex(scale * (f @ sbmv(kd, 1.0, p, f, lower=1)),
                       scale * (f @ sbmv(kd, 1.0, q, f, lower=1)))

    def banded(theta: float) -> tuple[float, complex] | None:
        c, s = np.cos(theta), np.sin(theta)
        np.multiply(p, c, out=h)
        np.multiply(q, s, out=shifted)
        np.subtract(h, shifted, out=h)
        x = starts[int(c < 0)]
        budget = _BAND_MAX_FACTORS
        while budget > 0:
            y = sbmv(kd, 1.0, h, x, lower=1)
            rho = float(x @ y)
            y -= rho * x
            r = float(np.linalg.norm(y))
            certified, gap = r <= delta, max(r, delta)
            budget -= 1
            while not factors(rho + gap):
                if budget == 0:
                    return None
                certified, gap, budget = False, 2.0 * gap, budget - 1
            if certified:
                return rho * scale, witness(x)
            x, info = pbtrs(shifted, x, lower=1)
            _lapack_ok(info, "pbtrs")
            x /= np.linalg.norm(x)
        return None
    return banded


def _chain_solver(d: np.ndarray, e: np.ndarray, scale: float):
    """theta -> (s(theta), witness) for the complex symmetric tridiagonal A
    with diagonal d and sub-diagonal e, by _tridiagonal_top on A / scale
    (Operator.lapack_scale).  Unscaled, ?stein's vectors of a 7-site chain
    overflow to NaN once an entry passes about 2^339, and ?stebz's
    Gershgorin bounds near the float64 limit; the scaled chain's stay
    finite for every finite A, and a power of two scales exactly.  Chains
    of moderate entries are left unscaled: ?stein's pivot floor is eps, not
    eps times the norm, so scaling would move the last bits of the answers
    scipy.linalg.eigh_tridiagonal gives."""
    n = len(d)
    d, e = d / scale, e / scale
    # d and e end to end, so one rotation per angle forms both
    re_de = np.concatenate([d.real, e.real])
    im_de = np.concatenate([d.imag, e.imag])
    top = _tridiagonal_top(n)

    def tridiagonal(theta: float) -> tuple[float, complex]:
        c, sn = np.cos(theta), np.sin(theta)
        de = c * re_de - sn * im_de
        s, f = top(de[:n], de[n:])
        w = d @ f ** 2 + 2.0 * (e @ (f[:-1] * f[1:]))
        return s * scale, complex(scale * w.real, scale * w.imag)
    return tridiagonal


def _band_solver(p: np.ndarray, q: np.ndarray, kd: int, scale: float,
                 signs: np.ndarray):
    """The banded solver of the bands p, q, with the real dense solver of
    the same matrix for the angles it gives up on, built on first use."""
    band = _banded_solver(p, q, kd, scale, signs)
    dense = None

    def band_or_dense(theta: float) -> tuple[float, complex]:
        nonlocal dense
        sample = band(theta)
        if sample is None:
            if dense is None:
                dense = _real_dense_solver(_unband(p), _unband(q))
            sample = dense(theta)
        return sample
    return band_or_dense


def _sweep_solver(op: Operator):
    """The per-angle solver theta -> (s(theta), witness) for op, chosen once
    from its type (see the module notes): an assembled operator's from its
    box, the complex dense solver for any other."""
    if not op.finite:
        raise EigenSolverError("matrix has entries beyond the float64 range",
                               where="numrange.compute_hull")
    if not isinstance(op, LatticeOperator):
        a = op.matrix
        ah = a.conj().T
        rotated = _rotation(np.asfortranarray((a + ah) / 2.0),
                            np.asfortranarray((a - ah) / 2.0j))

        def dense(theta: float) -> tuple[float, complex]:
            s, f = _top_eigpair(lambda: rotated(theta))
            return s, complex(np.vdot(f, a @ f))
        return dense
    kd, n = op.bandwidth, op.dim
    if kd <= 1:
        return _chain_solver(op.diagonal, np.ones(n - 1, complex),
                             op.lapack_scale)
    p = op.hopping_band()
    q = np.zeros_like(p)
    p[0], q[0] = op.diagonal.real, op.diagonal.imag
    # the box's checkerboard: +1 on the sites whose offsets from its first
    # site have an even sum, -1 on the others
    signs = 1.0 - 2.0 * (np.indices(op.box.shape).sum(axis=0).ravel() % 2)
    return _band_solver(p, q, kd, op.scale, signs)


def _real_dense_solver(re: np.ndarray, im: np.ndarray):
    """theta -> (s(theta), witness) for the symmetric re + i im by a real
    dense eigh, its n x n buffers allocated here."""
    rotated = _rotation(re.T, im.T)  # symmetric: the same entries, F-ordered

    def real_symmetric(theta: float) -> tuple[float, complex]:
        s, f = _top_eigpair(lambda: rotated(theta))
        return s, complex(f @ re @ f, f @ im @ f)
    return real_symmetric


# A witness closer than this fraction of the witness set's extent to the
# chord between its polygon neighbours is not a vertex.  Witnesses on a
# flat edge are collinear up to rounding (about 1e-14 of the extent), and an
# exact turn test keeps or drops them with their last bits.  Genuine
# vertices bulge further: 1e-10 already drops some of a 300-site chain's
# 720-angle hull, 1e-12 none of the bundled or benchmark hulls.
COLLINEAR_REL = 1e-12


def _convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Monotone chain on complex points; counterclockwise vertex order,
    nearly collinear points dropped (COLLINEAR_REL).  Degenerate inputs
    yield 1 (point) or 2 (segment) vertices."""
    pts = np.unique(points)
    pts = pts[np.lexsort((pts.imag, pts.real))]
    if len(pts) <= 2:
        return pts
    # The tests run on the points scaled by a power of two (exactly, so the
    # order above holds) into [-1, 1], where their products cannot overflow.
    big = max(np.abs(pts.real).max(), np.abs(pts.imag).max())
    scaled = pts * np.ldexp(1.0, -int(np.frexp(big)[1]))
    tol = COLLINEAR_REL * max(np.ptp(scaled.real), np.ptp(scaled.imag))
    z = scaled.tolist()

    def turn(i: int, j: int, k: int) -> float:
        """|z[k] - z[i]| times the distance of z[j] left of the chord
        z[i] -> z[k] (negative on its right)."""
        o, q, p = z[i], z[j], z[k]
        return (q.real - o.real) * (p.imag - o.imag) - \
            (q.imag - o.imag) * (p.real - o.real)

    def on_chord(i: int, j: int, k: int) -> bool:
        """z[j] lies within tol of the chord z[i] -> z[k], between its ends."""
        chord, rel = z[k] - z[i], z[j] - z[i]
        along = (rel * chord.conjugate()).real
        return (turn(i, j, k) <= tol * abs(chord)
                and 0.0 <= along <= abs(chord) ** 2)

    def half(order):
        out: list[int] = []
        for k in order:
            while len(out) >= 2 and turn(out[-2], out[-1], k) <= 0.0:
                out.pop()
            out.append(k)
        return out

    ring = half(range(len(z)))[:-1] + half(range(len(z) - 1, -1, -1))[:-1]
    # then drop each vertex on the chord between its neighbours, until none
    # is left: a vertex whose neighbour was dropped has a new chord
    dropped = True
    while dropped and len(ring) > 2:
        dropped = False
        for j in range(len(ring) - 1, -1, -1):
            if len(ring) > 2 and on_chord(ring[j - 1], ring[j],
                                          ring[(j + 1) % len(ring)]):
                del ring[j]
                dropped = True
    return pts[ring]


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
    solve = _sweep_solver(as_operator(op))
    ts = np.array([2.0 * np.pi * m / n_angles for m in range(n_angles)],
                  dtype=np.float64)
    samples = [solve(t) for t in ts]
    sup = np.array([s for s, _ in samples], dtype=np.float64)
    wit = np.array([w for _, w in samples], dtype=np.complex128)
    if not (np.isfinite(sup).all() and np.isfinite(wit).all()):
        raise EigenSolverError(
            "a support value or witness is beyond the float64 range",
            where="numrange.compute_hull")
    poly = _convex_hull_ccw(wit)
    return NumericalRangeHull(thetas=ts, supports=sup, witnesses=wit,
                              polygon=poly, n_angles=n_angles)
