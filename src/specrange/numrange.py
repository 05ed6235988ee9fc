"""Numerical range via support-function sweeps.

For each angle theta the top eigenpair of Re(e^{i theta} A) gives one outer
half-plane {z : Re(e^{i theta} z) <= s(theta)} and one inner witness point
<A f, f> that attains the support line.  The witness hull (inner polygon)
and the half-plane intersection (outer region) sandwich the true numerical
range; the gap shrinks like 1/n_angles^2 on smooth boundary arcs.

The sweep's solver is chosen once per operator from its type.

  an assembled operator (model.LatticeOperator, A = J + diag(d) with J the
  box's real hopping, so A = A^T):
      H = Re(e^{i theta} A) = cos(theta) Re A - sin(theta) Im A is real
      symmetric with half-bandwidth kd, the box's largest stride (1 on a
      chain, L on an L x L box, L^2 on L^3), and the witness is f^T A f for
      the real unit vector f.  One certified shifted inverse iteration on
      H's band serves every box (_band_sweep), a chunk of angles per LAPACK
      call, with no n x n array: s(theta) is the Rayleigh quotient rho, and
      a successful band Cholesky factorisation proves lambda_max in
      [rho, rho + delta].  delta is a fixed multiple of
      (kd + 1) * eps * (1 + max row sum |A|), Cholesky's backward error,
      not a setting.  H's sub-diagonals are the box's hopping pairs
      (LatticeOperator.hops).  An angle the iteration has not certified
      within _BAND_MAX_FACTORS factorisations goes to a real dense
      scipy.linalg.eigh of H / scale, written from the box and d into one
      real n x n buffer (Operator.fill_blocks on the trivial exchange), and
      its witness is formed as a certified angle's is.
  any other operator (an explicit matrix, whatever its entries): a complex
      Hermitian dense scipy.linalg.eigh of Re(e^{i theta} A), rotated from
      Re A = (A + A*)/2 and Im A = (A - A*)/2i, formed once per operator.
      Its subset solve can return no eigenpair when the top eigenvalue is
      highly degenerate; the full spectrum of the same matrix is used then.

Non-finite entries, and a support value or witness beyond the float64 range
once unscaled (entries near 1.7e308), raise EigenSolverError.

The witness polygon drops witnesses that lie on the chord between their
neighbours up to COLLINEAR_REL of the witness set's extent, so a flat
edge's vertex list does not follow the last bits of its witnesses.  Each
pass tests every vertex against its current neighbours, from the last to
the first, dropping it at once; an array screen over the ring decides
first whether any vertex could drop, and ends the passes when none can.

Margins and boundary distances are taken against the outer description.
The sampled minimum margin equals the distance to the outer region's
boundary, which upper-bounds the distance to the true boundary: on curved
arcs a genuine boundary point may read as slightly interior (never the
other way around), and on flat faces whose normal is on the angle grid the
margin is exact.  Grids divisible by 4 sample the axis directions exactly,
but classify does not rely on that for the strip edges Im z = min and
max Im d: it decides eigenvalues there from the strip itself, on any grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .config import DEFAULT_N_ANGLES
from .exceptions import EigenSolverError, HullDomainError
from .model import LatticeOperator, Operator, as_operator, trivial_swap


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


# The certified bracket of the band iteration is [rho, rho + delta] with
# delta = _BAND_DELTA_ULPS * (kd + 1) * eps * (1 + max row sum |A|): the
# backward error of a band Cholesky factorisation is a small multiple of
# (kd + 1) * eps * ||sigma I - H||, and the row sum bounds ||H(theta)||.
_BAND_DELTA_ULPS = 8.0
# Band factorisations per angle before the dense solver takes over.
_BAND_MAX_FACTORS = 60
# Solves with the one factorisation at the Gershgorin shift that open each
# angle's iteration.
_WARM_UP_SOLVES = 3
# Band elements per chunk of angles: a chunk holds
# max(1, SWEEP_CHUNK // ((kd + 1) n)) angles, so its arrays stay near
# 256 KB whatever the operator, and one angle once kd > _CHUNK_MAX_KD.
SWEEP_CHUNK = 2 ** 15
# The largest half-bandwidth whose angles share a chunk: ?pbtrf factors a
# band column by column up to kd = 64 and in blocks beyond, and only
# column by column is each angle's factor its own entries' (see
# _band_sweep).
_CHUNK_MAX_KD = 63
# A vector norm below this has lost bits to underflow in its squares.
_FAINT = 2.0 ** -500


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _band_cholesky(kd: int):
    """(cholesky, backsolve) on a band ab in C-ordered (N, kd + 1) storage,
    ab.T being LAPACK's Fortran-ordered lower band: cholesky(ab) factors
    the band in place and returns ?pbtrf's info (k > 0: the leading minor
    of order k is not positive definite, the columns before k factored);
    backsolve(ab, b) solves with the factors.  A tridiagonal band (kd = 1)
    goes to ?pttrf/?pttrs, its L D L^T form: the same certificate (every
    pivot positive) and the same info, at well under half of ?pbtrf's and
    ?pbtrs's cost per column on chains, whose band routines spend most of
    each column in BLAS calls of length 1; its ab is Fortran-ordered, so
    LAPACK works on the two contiguous diagonals in place."""
    if kd == 1:
        pttrf, pttrs = scipy.linalg.get_lapack_funcs(("pttrf", "pttrs"),
                                                     dtype=np.float64)

        def cholesky(ab: np.ndarray) -> int:
            _, _, info = pttrf(ab[:, 0], ab[:-1, 1],
                               overwrite_d=1, overwrite_e=1)
            if info < 0:
                _lapack_ok(info, "pttrf")
            return info

        def backsolve(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
            x, info = pttrs(ab[:, 0], ab[:-1, 1], b, overwrite_b=1)
            _lapack_ok(info, "pttrs")
            return x
        return cholesky, backsolve
    pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"),
                                                 dtype=np.float64)

    def cholesky(ab: np.ndarray) -> int:
        _, info = pbtrf(ab.T, lower=1, overwrite_ab=1)
        if info < 0:
            _lapack_ok(info, "pbtrf")
        return info

    def backsolve(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
        x, info = pbtrs(ab.T, b, lower=1, overwrite_b=1)
        _lapack_ok(info, "pbtrs")
        return x
    return cholesky, backsolve


def _band_sweep(op: LatticeOperator):
    """thetas -> (supports, witnesses) for the assembled op: the top
    eigenpair of H = cos(theta) Re A - sin(theta) Im A at each angle, by
    shifted inverse iteration on H's band, a chunk of angles at a time.

    The iteration runs on A divided by its power-of-two scale
    (Operator.scale), so no product or norm in it overflows.  A chunk's
    bands lie side by side as one block-diagonal band, no entry coupling
    two blocks, so one band Cholesky factorisation and one solve
    (_band_cholesky) serve all its angles.  Each angle starts from a vector
    of theta alone: the off-diagonal of H is cos(theta) times the hopping,
    so the Perron vector of H is positive when cos(theta) >= 0 and carries
    the box's checkerboard signs (opposite at the ends of every hop) when
    cos(theta) < 0; a start of those signs cannot be orthogonal to it.
    _WARM_UP_SOLVES solves at sigma = the Gershgorin bound + delta, where
    sigma I - H is diagonally dominant and factors, move it toward the top
    vector.  Then each step takes the Rayleigh quotient rho = x^T H x and
    the residual r = ||H x - rho x|| and factors sigma I - H at
    sigma = rho + max(r, delta), doubling the gap until the factorisation
    succeeds, which proves lambda_max < sigma.  An angle stops when
    r <= delta and sigma = rho + delta factors: lambda_max then lies in
    [rho, rho + delta].  Otherwise (sigma I - H) y = x is solved and
    x = y / ||y||.  An angle not certified within _BAND_MAX_FACTORS
    factorisations goes to a real dense eigh of H / scale, and its top
    vector to the same witness expression.

    Products and norms are elementwise numpy operations and sums along one
    angle's row, and the factorisation and solve sweep column by column
    (LAPACK blocks ?pbtrf only for kd > 64, and angles share a chunk only
    while kd <= _CHUNK_MAX_KD), so an angle's bits depend neither on the
    chunk it shares nor on the BLAS thread count."""
    n, kd, scale = op.dim, op.bandwidth, op.scale
    per_chunk = (max(1, SWEEP_CHUNK // ((kd + 1) * n))
                 if kd <= _CHUNK_MAX_KD else 1)
    re_d, im_d = op.diagonal.real / scale, op.diagonal.imag / scale
    # J / scale, one sub-diagonal per axis longer than 1, at its stride k:
    # entry i holds J[i + k, i] / scale, 0 where i + k leaves the box, so
    # tiled over a chunk it couples no two blocks
    hops = []
    for k, i in op.hops():
        sub = np.zeros(n)
        sub[i] = 1.0 / scale
        hops.append((k, np.tile(sub, per_chunk)))

    def product(diag, subs, x: np.ndarray) -> np.ndarray:
        """M x_j for each row x_j of x, M block-diagonal with diagonal diag
        (flat, or None for 0) and entries M[i + k, i] = sub[i] for the
        (k, sub) in subs.  Flat, so each shifted product is one contiguous
        operation; a term across two blocks is a product with 0."""
        flat = x.reshape(-1)
        out = np.zeros_like(flat) if diag is None else diag * flat
        for k, sub in subs:
            t = sub.reshape(-1)[:len(flat) - k]
            out[k:] += t * flat[:-k]
            out[:-k] += t * flat[k:]
        return out.reshape(x.shape)

    degree = product(None, hops, np.ones((1, n)))[0]  # row sums of |J|
    delta = (_BAND_DELTA_ULPS * (kd + 1) * np.finfo(np.float64).eps
             * (1.0 / scale + float((np.hypot(re_d, im_d) + degree).max())))
    # the box's checkerboard: +1 on the sites whose offsets from its first
    # site have an even sum, -1 on the others
    signs = 1.0 - 2.0 * (np.indices(op.box.shape).sum(axis=0).ravel() % 2)
    starts = np.stack([np.full(n, n ** -0.5), signs * n ** -0.5])
    cholesky, backsolve = _band_cholesky(kd)

    def factor(hd: np.ndarray, subs, sigma: np.ndarray):
        """(ab, ok): the band Cholesky factors of sigma_j I - H_j side by
        side, H_j the block with diagonal hd[j] and sub-diagonals subs, and
        the mask of the blocks that factored.  The factorisation stops at
        the first block that does not factor; that block becomes the
        identity and the call resumes after it.  Blocks share a chunk only
        when kd <= _CHUNK_MAX_KD, where the factorisation sweeps
        column by column, so a block's factor is its own entries' and the
        blocks before a failing one are factored in full.  kd columns of
        the identity close the band, so the last block's solve sees the
        band lengths the others do."""
        m = len(sigma)
        ab = np.zeros((m * n + kd, kd + 1), order="F" if kd == 1 else "C")
        ab[m * n:, 0] = 1.0
        ok = np.ones(m, dtype=bool)
        lo = 0
        while lo < m:
            blocks = ab[lo * n:m * n].reshape(m - lo, n, kd + 1)
            if lo:
                blocks[...] = 0.0  # the failed call may have written here
            np.subtract(sigma[lo:, None], hd[lo:], out=blocks[:, :, 0])
            for k, sub in subs:
                np.negative(sub[lo:], out=blocks[:, :, k])
            info = cholesky(ab[lo * n:])
            if info == 0:
                break
            b = lo + (info - 1) // n
            ok[b] = False
            ab[b * n:(b + 1) * n] = 0.0
            ab[b * n:(b + 1) * n, 0] = 1.0
            lo = b + 1
        return ab, ok

    def solve(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Each row x_j through the factors ab (those of len(x) blocks and
        the closing identity), normalised."""
        m = len(x)
        rhs = np.zeros(m * n + kd)
        rhs[:m * n] = x.reshape(-1)
        y = backsolve(ab, rhs)[:m * n].reshape(m, n)
        norms = _row_norms(y)
        # A row whose squares underflow (y is about 1e-293 on one site of
        # modulus 5e-324, where delta is 8 eps / scale) is first divided by
        # its largest entry.
        faint = ~(norms >= _FAINT)
        if faint.any():
            y[faint] /= np.abs(y[faint]).max(axis=1)[:, None]
            norms[faint] = _row_norms(y[faint])
        return y / norms[:, None]

    def witness(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Re, Im) of f_j^T (A / scale) f_j for the rows f_j of f."""
        return (np.add.reduce(f * (re_d * f + product(None, hops, f)), axis=1),
                np.add.reduce(f * (im_d * f), axis=1))

    def chunk(c: np.ndarray, s: np.ndarray):
        """(rho, Re w, Im w) for the angles of cosines c and sines s, on
        A / scale."""
        m = len(c)
        hd = c[:, None] * re_d - s[:, None] * im_d
        subs = [(k, c[:, None] * j[:m * n].reshape(m, n)) for k, j in hops]
        x = starts[(c < 0).astype(int)]
        # every angle left takes one factorisation per step, so one count
        # is each one's budget
        steps = _BAND_MAX_FACTORS
        if steps > 0:
            bound = (hd + np.abs(c)[:, None] * degree).max(axis=1)
            ab, _ = factor(hd, subs, bound + delta)
            steps -= 1
            for _ in range(_WARM_UP_SOLVES):
                x = solve(ab, x)
        rho_out, wr, wi = np.empty(m), np.empty(m), np.empty(m)
        todo = np.arange(m)
        # 2^k after k failed factorisations since x last moved
        widen = np.ones(m)
        for _ in range(steps):
            if not len(todo):
                break
            hx = product(hd.reshape(-1), subs, x)
            rho = np.add.reduce(x * hx, axis=1)
            r = _row_norms(hx - rho[:, None] * x)
            certified = (r <= delta) & (widen == 1.0)
            ab, ok = factor(hd, subs, rho + np.maximum(r, delta) * widen)
            done = ok & certified
            moving = ok & ~certified
            # the blocks are uncoupled, so a moving row has the bits of its
            # own solve whatever the other blocks hold
            x = np.where(moving[:, None], solve(ab, x), x)
            widen = np.where(moving, 1.0, 2.0 * widen)
            if done.any():
                i = todo[done]
                rho_out[i] = rho[done]
                wr[i], wi[i] = witness(x[done])
                left = ~done
                todo, hd, x, widen = todo[left], hd[left], x[left], widen[left]
                subs = [(k, sub[left]) for k, sub in subs]
        if len(todo):
            # each angle left: a real dense eigh of H / scale, written into
            # one buffer from Re A whenever eigh has overwritten it
            h, f = np.empty((n, n), order="F"), np.empty((len(todo), n))
            diag = np.arange(n)

            def build(i: int) -> np.ndarray:
                op.fill_blocks(trivial_swap(n), h, h[:0, :0])
                np.multiply(h, c[i] / scale, out=h)
                h[diag, diag] -= s[i] * im_d
                return h
            for j, i in enumerate(todo):
                rho_out[i], f[j] = _top_eigpair(lambda: build(i))
            wr[todo], wi[todo] = witness(f)
        return rho_out, wr, wi

    def sweep(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cos, sin = np.cos(thetas), np.sin(thetas)
        parts = [chunk(cos[j:j + per_chunk], sin[j:j + per_chunk])
                 for j in range(0, len(thetas), per_chunk)]
        rho, wr, wi = (np.concatenate(p) for p in zip(*parts))
        wit = np.empty(len(thetas), dtype=np.complex128)
        # a support or witness beyond the float64 range becomes inf here,
        # which compute_hull refuses
        with np.errstate(over="ignore"):
            sup = rho * scale
            wit.real, wit.imag = wr * scale, wi * scale
        return sup, wit
    return sweep


def _sweep(op: Operator):
    """The sweep thetas -> (supports, witnesses) of op, chosen once from its
    type (see the module notes): the band iteration for an assembled
    operator, the complex dense solver for any other."""
    if not op.finite:
        raise EigenSolverError("matrix has entries beyond the float64 range",
                               where="numrange.compute_hull")
    if isinstance(op, LatticeOperator):
        return _band_sweep(op)
    a = op.matrix
    ah = a.conj().T
    # Fortran-ordered, so each rotation is too and eigh works on it in place
    re = np.asfortranarray((a + ah) / 2.0)
    im = np.asfortranarray((a - ah) / 2.0j)

    def dense(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sup = np.empty(len(thetas))
        wit = np.empty(len(thetas), dtype=np.complex128)
        for i, theta in enumerate(thetas):
            sup[i], f = _top_eigpair(
                lambda: re * np.cos(theta) - im * np.sin(theta))
            wit[i] = np.vdot(f, a @ f)
        return sup, wit
    return dense


# A witness closer than this fraction of the witness set's extent to the
# chord between its polygon neighbours is not a vertex.  Witnesses on a
# flat edge are collinear up to rounding (about 1e-14 of the extent), and an
# exact turn test keeps or drops them with their last bits.  Genuine
# vertices bulge further: 1e-10 already drops some of a 300-site chain's
# 720-angle hull, 1e-12 none of the bundled or benchmark hulls.
COLLINEAR_REL = 1e-12


def _chain(xs: list[float], ys: list[float], order) -> list[int]:
    """One half of the monotone chain over the points (xs[k], ys[k]) in
    `order`: each point pops the last vertex while the turn from the
    vertex before it does not go strictly left."""
    out: list[int] = []
    for k in order:
        px, py = xs[k], ys[k]
        while len(out) >= 2:
            o, q = out[-2], out[-1]
            ox, oy = xs[o], ys[o]
            if (xs[q] - ox) * (py - oy) - (ys[q] - oy) * (px - ox) <= 0.0:
                out.pop()
            else:
                break
        out.append(k)
    return out


def _drop_chord_vertices(points: np.ndarray, ring: list[int],
                         tol: float) -> list[int]:
    """ring, indices into points, without the vertices that lie within tol
    of the chord between their neighbours, between its ends: passes from
    the last vertex to the first, each testing a vertex against its current
    neighbours and dropping it at once, until a pass drops none.

    One array screen over the ring opens each pass; it flags every vertex
    the exact test would drop, so a pass it flags none of ends the loop."""
    x, y, z = points.real, points.imag, points.tolist()
    ring = list(ring)

    def on_chord(i: int, j: int, k: int) -> bool:
        chord, rel = z[k] - z[i], z[j] - z[i]
        turn = rel.real * chord.imag - rel.imag * chord.real
        along = (rel * chord.conjugate()).real
        return (turn <= tol * abs(chord)
                and 0.0 <= along <= abs(chord) ** 2)

    dropped = True
    while dropped and len(ring) > 2:
        r = np.array(ring)
        left, right = np.roll(r, 1), np.roll(r, -1)
        cx, cy = x[right] - x[left], y[right] - y[left]
        turn = (x[r] - x[left]) * cy - (y[r] - y[left]) * cx
        if not (turn <= 2.0 * tol * np.hypot(cx, cy)).any():
            break
        dropped = False
        for j in range(len(ring) - 1, -1, -1):
            if len(ring) > 2 and on_chord(ring[j - 1], ring[j],
                                          ring[(j + 1) % len(ring)]):
                del ring[j]
                dropped = True
    return ring


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
    xs, ys = scaled.real.tolist(), scaled.imag.tolist()
    n = len(xs)
    ring = (_chain(xs, ys, range(n))[:-1]
            + _chain(xs, ys, range(n - 1, -1, -1))[:-1])
    return pts[_drop_chord_vertices(scaled, ring, tol)]


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

    @cached_property
    def _phases(self) -> np.ndarray:
        return np.exp(1j * self.thetas)

    def margins(self, z) -> np.ndarray:
        """s(theta) - Re(e^{i theta} z) over all sampled angles; for a
        column of k points, a (k, n_angles) array of their rows.  A margin
        beyond the float64 range is inf with its sign, as IEEE arithmetic
        rounds it; a point inside has min margin at most half the width."""
        with np.errstate(over="ignore"):
            return self.supports - (self._phases * z).real

    def boundary_distances(self, zs, outside_tol: float = 1e-9) -> np.ndarray:
        """Distance from each point of zs to the boundary of the outer
        region (min margin, clamped at zero).  Raises HullDomainError for
        the first point that violates some half-plane by more than
        outside_tol: that distinguishes genuinely outside points from
        boundary points within tolerance.  Temporaries hold
        len(zs) x n_angles margins."""
        zs = np.asarray(zs, dtype=np.complex128)
        m = self.margins(zs[:, None]).min(axis=1)
        outside = np.flatnonzero(m < -outside_tol)
        if len(outside):
            j = outside[0]
            raise HullDomainError(
                f"point {complex(zs[j])} lies outside the sampled hull by "
                f"{-float(m[j]):.3e} (> {outside_tol:.1e}); boundary "
                f"distance undefined",
                where="numrange.boundary_distances",
            )
        return np.where(m < 0.0, 0.0, m)


def compute_hull(op, n_angles: int = DEFAULT_N_ANGLES) -> NumericalRangeHull:
    """Sweep theta_m = 2 pi m / n_angles, m = 0..n_angles-1."""
    if n_angles < 3:
        raise ValueError("n_angles must be >= 3")
    sweep = _sweep(as_operator(op))
    ts = np.array([2.0 * np.pi * m / n_angles for m in range(n_angles)],
                  dtype=np.float64)
    sup, wit = sweep(ts)
    if not (np.isfinite(sup).all() and np.isfinite(wit).all()):
        raise EigenSolverError(
            "a support value or witness is beyond the float64 range",
            where="numrange.compute_hull")
    poly = _convex_hull_ccw(wit)
    return NumericalRangeHull(thetas=ts, supports=sup, witnesses=wit,
                              polygon=poly)
