"""Support-function sweeps against geometric oracles."""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specrange import numrange
from specrange.config import DEFAULT_MAX_DIM
from specrange.exceptions import EigenSolverError, HullDomainError
from specrange.model import (ConstantPotential, GeometricDecayPotential,
                             LatticeBox, LatticeOperator, OperatorMatrix,
                             SeededRandomPotential, SumPotential,
                             TablePotential, as_operator, assemble)
from specrange.numrange import compute_hull
from specrange.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BOX_2D = LatticeBox(2, ((-3, 2), (-2, 2)))


def hull_of(matrix, n_angles=360):
    return compute_hull(OperatorMatrix(np.asarray(matrix, dtype=complex)),
                        n_angles=n_angles)


def test_jordan_block_hull_is_half_disk_boundary():
    hull = hull_of([[0.0, 1.0], [0.0, 0.0]], n_angles=720)
    # numerical range of the 2x2 nilpotent Jordan block: disk of radius 1/2
    assert np.max(np.abs(hull.supports - 0.5)) < 1e-12
    verts = hull.polygon
    assert np.max(np.abs(np.abs(verts) - 0.5)) < 1e-4


def test_diagonal_hull_support_equals_pointwise_max():
    d = np.array([1.0 + 0.2j, -0.4 + 1.1j, 0.3 - 0.9j, -1.2 - 0.1j])
    hull = hull_of(np.diag(d), n_angles=360)
    for theta, s in zip(hull.thetas, hull.supports):
        oracle = np.max((np.exp(1j * theta) * d).real)
        assert abs(s - oracle) < 1e-12


def test_hermitian_hull_degenerates_to_real_segment():
    d = np.array([-1.5, -0.2, 0.4, 2.0])
    hull = hull_of(np.diag(d), n_angles=360)
    verts = hull.polygon
    assert np.max(np.abs(verts.imag)) < 1e-9
    assert abs(verts.real.max() - 2.0) < 1e-9
    assert abs(verts.real.min() + 1.5) < 1e-9


def test_translation_covariance_of_supports():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    c = 0.7 - 0.3j
    h0 = hull_of(a, n_angles=90)
    h1 = hull_of(a + c * np.eye(7), n_angles=90)
    shift = (np.exp(1j * h0.thetas) * c).real
    assert np.max(np.abs(h1.supports - (h0.supports + shift))) < 1e-10


def test_rotation_covariance_on_the_sampled_grid():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    n = 90
    k = 13
    phi = 2 * np.pi * k / n
    h0 = hull_of(a, n_angles=n)
    h1 = hull_of(np.exp(1j * phi) * a, n_angles=n)
    # s_{e^{i phi} A}(theta_m) = s_A(theta_{m+k})
    assert np.max(np.abs(h1.supports - np.roll(h0.supports, -k))) < 1e-10


def test_eigenvalues_lie_inside_with_margin():
    box = LatticeBox(1, ((-12, 12),))
    pot = SeededRandomPotential(17, box, (-0.5, 0.5), (0.0, 0.8))
    op = assemble(box, pot)
    hull = compute_hull(op, n_angles=360)
    for lam in np.linalg.eigvals(op.matrix):
        assert (hull.margins(lam) >= -1e-10).all()
        assert hull.boundary_distances([lam])[0] >= 0.0


def test_witness_points_attain_their_supports():
    box = LatticeBox(1, ((-8, 8),))
    pot = SeededRandomPotential(23, box, (-0.4, 0.4), (0.1, 0.6))
    op = assemble(box, pot)
    hull = compute_hull(op, n_angles=60)
    for theta, s, w in zip(hull.thetas, hull.supports, hull.witnesses):
        # the witness is the Rayleigh point of the top vector at this angle
        assert abs((np.exp(1j * theta) * w).real - s) < 1e-9
        assert (hull.margins(complex(w)) >= -1e-9).all()


def test_contains_rejects_far_point_and_distance_raises():
    hull = hull_of([[0.0, 1.0], [0.0, 0.0]], n_angles=360)
    assert not (hull.margins(2.0 + 2.0j) >= -1e-8).all()
    with pytest.raises(HullDomainError):
        hull.boundary_distances([2.0 + 2.0j])
    assert hull.boundary_distances([0.0])[0] == pytest.approx(0.5, abs=1e-6)


def test_block_distances_clamp_near_points_and_name_the_first_far_one():
    # the triangle 0, 1, i: points outside by less than outside_tol are at
    # distance 0; the error names the first point outside by more
    hull = hull_of(np.diag([0.0, 1.0, 1.0j]), n_angles=8)
    near = [0.25 + 0.25j, 1.0 + 1e-12, -1e-12j]
    dist = hull.boundary_distances(near, outside_tol=1e-9)
    assert dist[0] > 0.2 and dist[1] == dist[2] == 0.0
    assert [hull.boundary_distances([z], outside_tol=1e-9)[0]
            for z in near] == dist.tolist()
    with pytest.raises(HullDomainError, match=r"point \(2\+2j\) lies outside"):
        hull.boundary_distances([0.25, 2.0 + 2.0j, 3.0])


def test_margins_beyond_the_float_range_raise_no_warning():
    # a 2-site chain with d = (1e308, -1e308): the hull is about the
    # segment [-1e308, 1e308], and an eigenvalue's margin at the opposite
    # angle is about 2e308, beyond the float64 range
    op = assemble(LatticeBox(1, ((0, 1),)),
                  TablePotential({(0,): 1e308, (1,): -1e308}))
    hull = compute_hull(op, n_angles=360)
    values = np.linalg.eigvals(op.matrix)
    tol = 1e-12 * op.frobenius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = hull.boundary_distances(values, outside_tol=tol)
        assert np.isfinite(dist).all() and (dist <= tol).all()
        assert hull.margins(values[:, None]).max() == np.inf
        assert (hull.margins(values[0]) >= -tol).all()
        for outside in (1.7e308, -1.7e308, 1e307j):
            assert not (hull.margins(outside) >= -tol).all()
            with pytest.raises(HullDomainError, match="lies outside"):
                hull.boundary_distances([outside], outside_tol=tol)


def test_refining_angles_tightens_the_outer_polygon():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    coarse = hull_of(a, n_angles=90)
    fine = hull_of(a, n_angles=720)
    # every fine vertex satisfies the coarse half-planes: outer regions nest
    for v in fine.polygon:
        assert (coarse.margins(complex(v)) >= -1e-9).all()
    # and the fine region is no larger in any sampled direction
    assert np.max(fine.supports[::8] - coarse.supports) < 1e-12


def test_angle_grid_shape_and_first_angle():
    hull = hull_of(np.diag([1.0, -1.0]), n_angles=16)
    assert len(hull.thetas) == 16 == len(hull.supports)
    assert hull.thetas[0] == 0.0


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_every_bundled_hull_lies_in_the_strip_of_im_d(path):
    # Im A = diag(Im d), so W(A) lies in min Im d <= Im z <= max Im d (the
    # fact classify's strip rule reads): every witness and polygon vertex
    # of each bundled scenario's hull, at its own angle count
    sc = load_scenario(path)
    op = assemble(sc.box, sc.potential)
    hull = compute_hull(op, n_angles=sc.n_angles)
    im_d = op.diagonal.imag
    slack = 1e-14 * (1.0 + np.abs(op.diagonal).max())
    for z in (hull.witnesses, hull.polygon):
        assert z.imag.min() >= im_d.min() - slack
        assert z.imag.max() <= im_d.max() + slack


def dense_supports(a, thetas):
    """Reference: top eigenvalue of the complex hermitian Re(e^{i theta} A),
    from the full spectrum."""
    return np.array([np.linalg.eigvalsh(
        (np.exp(1j * t) * a + np.exp(-1j * t) * a.conj().T) / 2.0)[-1]
        for t in thetas])


def structured_operators():
    scenarios = [load_scenario(p) for p in sorted(SCENARIO_DIR.glob("*.json"))]
    ops = [pytest.param(assemble(sc.box, sc.potential), id=sc.name)
           for sc in scenarios]
    ops.append(pytest.param(
        assemble(BOX_2D, GeometricDecayPotential(0.6 + 0.9j, 0.5)),
        id="box_2d"))
    return ops


@pytest.mark.parametrize("op", structured_operators())
def test_structured_sweep_matches_dense_complex_path(op):
    hulls = [compute_hull(op, n_angles=n) for n in (359, 360, 718)]
    # the 718 grid contains the 359 grid, so solve each distinct angle once
    thetas = np.unique(np.concatenate([h.thetas for h in hulls]))
    ref = dict(zip(thetas, dense_supports(op.matrix, thetas)))
    for hull in hulls:
        expect = np.array([ref[t] for t in hull.thetas])
        assert np.max(np.abs(hull.supports - expect)) < 1e-12, len(hull.thetas)
        on_line = (np.exp(1j * hull.thetas) * hull.witnesses).real
        assert np.max(np.abs(on_line - hull.supports)) < 1e-9, len(hull.thetas)


# an explicit matrix, an assembled chain and an assembled box: each solver
@pytest.mark.parametrize("matrix", [
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    assemble(LatticeBox(1, ((-6, 6),)),
             GeometricDecayPotential(0.4 - 0.7j, 0.6)),
    assemble(BOX_2D, GeometricDecayPotential(0.6 + 0.9j, 0.5)),
])
def test_support_function_equals_every_hull_sample(matrix):
    op = as_operator(matrix)
    hull = compute_hull(op, n_angles=24)
    sweep = numrange._sweep(op)
    for t, s, w in zip(hull.thetas, hull.supports, hull.witnesses):
        sup, wit = sweep(np.array([t]))
        assert (sup[0], wit[0]) == (s, w)


def solver_calls(monkeypatch, op):
    """Run one hull of op (an operator or a matrix) and record which
    eigensolver each angle went to, with the dtype of the matrix (or
    diagonal, or band) it was handed: scipy's drivers, and the LAPACK and
    BLAS routines that the chain and band paths fetch and call themselves."""
    calls = []
    eigh, eigh_tridiagonal = scipy.linalg.eigh, scipy.linalg.eigh_tridiagonal
    get_lapack_funcs = scipy.linalg.get_lapack_funcs
    get_blas_funcs = scipy.linalg.get_blas_funcs

    def spy_eigh(h, *args, **kw):
        calls.append(("eigh", h.dtype))
        return eigh(h, *args, **kw)

    def spy_tridiagonal(d, e, *args, **kw):
        calls.append(("eigh_tridiagonal", d.dtype))
        return eigh_tridiagonal(d, e, *args, **kw)

    def recording(name, routine):
        def call(*args, **kw):
            first = next(x for x in args if isinstance(x, np.ndarray))
            calls.append((name, first.dtype))
            return routine(*args, **kw)
        return call

    def spying_on(get_funcs):
        def get(names, *args, **kw):
            routines = get_funcs(names, *args, **kw)
            return [recording(n, r) for n, r in zip(names, routines)]
        return get

    monkeypatch.setattr(scipy.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy_tridiagonal)
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs",
                        spying_on(get_lapack_funcs))
    monkeypatch.setattr(scipy.linalg, "get_blas_funcs",
                        spying_on(get_blas_funcs))
    compute_hull(op, n_angles=12)
    return set(calls)


def test_solver_path_follows_matrix_structure(monkeypatch):
    rng = np.random.default_rng(3)
    general = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    chain = assemble(LatticeBox(1, ((-6, 6),)),
                     GeometricDecayPotential(0.4 - 0.7j, 0.6))
    box = assemble(BOX_2D, GeometricDecayPotential(0.6 + 0.9j, 0.5))
    complex_dense = {("eigh", np.dtype(np.complex128))}
    # an explicit matrix, whatever its structure: the dense complex path
    for m in (general, [[0.0, 1.0], [0.0, 0.0]], chain.matrix, box.matrix):
        assert solver_calls(monkeypatch, m) == complex_dense
    # an assembled chain, then an assembled box: real solves only, both by
    # the one band Cholesky inverse iteration, with no scipy driver between;
    # the chain's band is tridiagonal, factored and solved by its L D L^T
    # routines
    assert solver_calls(monkeypatch, chain) == {
        ("pttrf", np.dtype(np.float64)), ("pttrs", np.dtype(np.float64))}
    assert solver_calls(monkeypatch, box) == {
        ("pbtrf", np.dtype(np.float64)), ("pbtrs", np.dtype(np.float64))}


def tridiagonal_tops(a, thetas):
    """Reference: the top eigenvalue of Re(e^{i theta} A) at each angle, by
    scipy.linalg.eigh_tridiagonal with select='i' on its diagonal and
    sub-diagonal."""
    d, e = np.diagonal(a).copy(), np.diagonal(a, -1).copy()
    n = len(d)
    return np.array([scipy.linalg.eigh_tridiagonal(
        np.cos(t) * d.real - np.sin(t) * d.imag,
        np.cos(t) * e.real - np.sin(t) * e.imag,
        select="i", select_range=(n - 1, n - 1))[0][-1] for t in thetas])


def bracket(op):
    """delta, the width of the band iteration's certified bracket on the
    unscaled operator: 8 (kd + 1) eps (1 + max row sum |A|)."""
    rows = np.abs(op.matrix).sum(axis=1).max()
    return (numrange._BAND_DELTA_ULPS * (op.bandwidth + 1)
            * np.finfo(np.float64).eps * (1.0 + rows))


def centred_box(nu, side):
    lo = -(side // 2)
    return LatticeBox(nu, ((lo, lo + side - 1),) * nu)


def seeded_field(box, seed):
    return SumPotential((
        SeededRandomPotential(seed, box, (-0.5, 0.5), (0.0, 1.0)),
        GeometricDecayPotential(0.12 + 0.25j, 0.7)))


def random_chain(n, seed):
    """A chain of n sites with a random complex table potential."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    return assemble(LatticeBox(1, ((0, n - 1),)),
                    TablePotential({(k,): v for k, v in enumerate(values)}))


def chain_operators():
    chains = [p for p in structured_operators() if p.values[0].bandwidth <= 1]
    chains += [pytest.param(random_chain(n, n), id=f"random_{n}")
               for n in (1, 2, 3, 40, 301)]
    return chains


@pytest.mark.parametrize("op", chain_operators())
def test_chain_sweep_equals_eigh_tridiagonal_bit_for_bit(monkeypatch, op):
    # The top eigenvalue is certified to lie in [s, s + delta] for each
    # support s, so s is within delta (and the reference's own rounding) of
    # scipy.linalg.eigh_tridiagonal's; every witness lies on its support
    # line, and no angle leaves the band iteration for the dense solver.
    dense_calls = []
    monkeypatch.setattr(scipy.linalg, "eigh",
                        lambda *a, **kw: dense_calls.append(1))
    hulls = [compute_hull(op, n_angles=n) for n in (359, 360, 720)]
    monkeypatch.undo()
    assert not dense_calls
    delta = bracket(op)
    for hull in hulls:
        ref = tridiagonal_tops(op.matrix, hull.thetas)
        slack = delta + 4.0 * np.spacing(np.abs(ref))
        assert np.all(np.abs(hull.supports - ref) <= slack), len(hull.thetas)
        on_line = (np.exp(1j * hull.thetas) * hull.witnesses).real
        assert np.all(np.abs(on_line - hull.supports)
                      <= 1e-12 * (1.0 + np.abs(hull.supports))), len(hull.thetas)


@pytest.mark.parametrize("op, n_angles", [
    pytest.param(random_chain(301, 301), 720, id="chain_301"),
    pytest.param(assemble(BOX_2D, GeometricDecayPotential(0.6 + 0.9j, 0.5)),
                 720, id="box_2d"),
    pytest.param(assemble(centred_box(2, 16), GeometricDecayPotential(
        0.45 + 0.6j, 0.7)), 32, id="box_16x16"),
    pytest.param(assemble(centred_box(2, 24), GeometricDecayPotential(
        0.4 + 0.7j, 0.6)), 32, id="box_24x24"),
])
def test_one_angle_has_the_bits_of_its_chunked_hull_sample(op, n_angles):
    # compute_hull sweeps its grid in chunks of angles (54 to a chunk on
    # the 301-site chain, 7 on the 16 x 16 box, 2 on the 24 x 24 box); the
    # same angle alone gives the same bits
    hull = compute_hull(op, n_angles=n_angles)
    sweep = numrange._sweep(op)
    for t, s, w in zip(hull.thetas, hull.supports, hull.witnesses):
        sup, wit = sweep(np.array([t]))
        assert (sup[0], wit[0]) == (s, w)


@pytest.mark.parametrize("ranges, per_chunk", [
    (((0, 1), (0, 63)), 1),  # kd = 64: one angle a chunk, whatever its size
    (((-12, 11), (-12, 11)), 2),
])
def test_angles_share_a_chunk_only_while_kd_is_at_most_63(monkeypatch,
                                                          ranges, per_chunk):
    op = assemble(LatticeBox(2, ranges), GeometricDecayPotential(0.4 + 0.7j,
                                                                 0.6))
    rows = []
    band_cholesky = numrange._band_cholesky

    def spy(kd):
        cholesky, backsolve = band_cholesky(kd)
        return (lambda ab: rows.append(len(ab)) or cholesky(ab)), backsolve

    monkeypatch.setattr(numrange, "_band_cholesky", spy)
    compute_hull(op, n_angles=8)
    n, kd = op.dim, op.bandwidth
    assert max(rows) == per_chunk * n + kd


def table_chain(values):
    return assemble(LatticeBox(1, ((0, len(values) - 1),)), TablePotential(
        {(k,): v for k, v in enumerate(values) if v != 0}))


@pytest.mark.parametrize("op", [
    pytest.param(random_chain(n, n), id=f"random_{n}") for n in (1, 2, 3)] + [
    pytest.param(table_chain([0.0] * 12), id="zero"),
    # Im V constant: at theta = pi/2 every site ties for the top
    pytest.param(assemble(LatticeBox(1, ((0, 11),)),
                          ConstantPotential(0.3 + 0.7j)), id="constant_im"),
    pytest.param(table_chain([1e-300, -2e-300 + 1e-300j, 3e-300j, 1e-300]),
                 id="tiny_1e-300"),
    pytest.param(table_chain([1e300, -2e300 + 1e300j, 3e300j, 1e300]),
                 id="huge_1e300"),
])
def test_chain_sweep_at_the_edges_raises_no_warning(op):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hull = compute_hull(op, n_angles=360)
    assert np.all(np.isfinite(hull.supports))
    assert np.all(np.isfinite(hull.witnesses))
    on_line = (np.exp(1j * hull.thetas) * hull.witnesses).real
    assert np.all(np.abs(on_line - hull.supports)
                  <= 1e-12 * (1.0 + np.abs(hull.supports)))


@pytest.mark.parametrize("scenario, box", [
    ("counterexample_a-2.5_b1", None),
    ("levelset_gap_im2", {"nu": 2, "ranges": [[-8, 7], [-8, 7]]}),
])
def test_hull_bytes_do_not_follow_the_blas_thread_count(tmp_path, scenario,
                                                        box):
    # a numrange-only run (no ?geev) with one and with two BLAS threads
    doc = json.loads((SCENARIO_DIR / f"{scenario}.json").read_text())
    doc["analysis"] = ["numrange"]
    if box is not None:
        doc["box"] = box
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                     if p]))
        proc = subprocess.run([sys.executable, "-m", "specrange", "run",
                               str(path), "--out-dir", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(outputs[0]) == sorted(outputs[1])
    assert any(name.endswith(".hull.csv") for name in outputs[0])
    assert outputs[0] == outputs[1]


def test_chain_sweep_of_entries_near_the_float_limit():
    # Entries near the float64 limit: the band iteration runs on the chain
    # divided by its power-of-two scale (Operator.scale), so its shifts,
    # products and norms stay finite.  Next to 1e308 the hopping is lost to
    # rounding, so s(theta) is Re(e^{i theta} c) to that accuracy.
    c = 1e308 + 1e308j
    op = assemble(LatticeBox(1, ((-3, 3),)), ConstantPotential(c))
    hull = compute_hull(op, n_angles=360)
    exact = (np.exp(1j * hull.thetas) * c).real
    assert np.all(np.isfinite(hull.supports))
    assert np.max(np.abs(hull.supports - exact)) <= 1e-12 * abs(c)
    on_line = (np.exp(1j * hull.thetas) * hull.witnesses).real
    assert np.max(np.abs(on_line - hull.supports)) <= 1e-12 * abs(c)


def test_band_sweep_of_entries_near_the_float_limit(monkeypatch):
    # the band iteration runs on A scaled by a power of two, so its residual
    # norms do not overflow and no angle needs the dense solver
    c = 1e308 + 1e308j
    op = assemble(LatticeBox(2, ((-3, 3), (-3, 3))), ConstantPotential(c))
    monkeypatch.setattr(scipy.linalg, "eigh", None)
    hull = compute_hull(op, n_angles=32)
    exact = (np.exp(1j * hull.thetas) * c).real
    assert np.max(np.abs(hull.supports - exact)) <= 1e-12 * abs(c)
    on_line = (np.exp(1j * hull.thetas) * hull.witnesses).real
    assert np.max(np.abs(on_line - hull.supports)) <= 1e-12 * abs(c)


def test_tied_extreme_does_not_crash_either_path():
    # A constant potential makes the top eigenvalue of Re(e^{i theta} A)
    # nearly 64-fold degenerate at theta = pi/2 and 3 pi/2, where the
    # hopping is scaled by cos(theta) ~ 6e-17; LAPACK's subset driver then
    # may return no eigenpair.  The seeded_random fields add generic
    # potentials on the same box.
    box = LatticeBox(2, ((0, 7), (0, 7)))
    pots = [SeededRandomPotential(seed, box, (-0.5, 0.5), (0.0, 0.8))
            for seed in range(40)]
    pots += [ConstantPotential(c) for c in (1j, 0.3 + 0.4j, -0.2 + 0.7j)]
    phases = np.exp(0.7j * np.arange(box.site_count))
    for pot in pots:
        op = assemble(box, pot)
        a = op.matrix
        # the assembled operator takes the band path; a diagonal unitary
        # similarity keeps Num(A), and as an explicit matrix takes the
        # dense complex path
        phased = phases[:, None] * a * phases.conj()[None, :]
        for x, m in ((op, a), (phased, phased)):
            hull = compute_hull(x, n_angles=32)
            ref = dense_supports(m, hull.thetas)
            assert np.max(np.abs(hull.supports - ref)) < 1e-12, pot
            on_line = (np.exp(1j * hull.thetas) * hull.witnesses).real
            assert np.max(np.abs(on_line - hull.supports)) < 1e-9, pot


EIGH = scipy.linalg.eigh


def expression_sweep(a, thetas, op=None):
    """Reference: each angle's matrix formed as a fresh expression, which
    eigh copies before it solves.  For the assembled op (a = op.matrix)
    that matrix is H / scale = cos(theta) Re A / scale - sin(theta)
    Im d / scale on the diagonal, and the witness is f^T (A / scale) f
    with J f summed hop by hop as the band sweep's stencil does, both
    scaled back."""
    n = len(a)
    if op is not None:
        scale, k = op.scale, np.arange(n)
        re_d, im_d = a.real.diagonal() / scale, a.imag.diagonal() / scale
    else:
        p, q = (a + a.conj().T) / 2.0, (a - a.conj().T) / 2.0j
    out = []
    for t in thetas:
        if op is not None:
            h = a.real * (np.cos(t) / scale)
            h[k, k] -= np.sin(t) * im_d
        else:
            h = np.cos(t) * p - np.sin(t) * q
        w, v = EIGH(h, subset_by_index=(n - 1, n - 1))
        if len(w) == 0:
            w, v = EIGH(h)
        f = v[:, -1]
        if op is None:
            out.append((float(w[-1]), complex(np.vdot(f, a @ f))))
            continue
        jf = np.zeros(n)
        for stride, i in op.hops():
            jf[i + stride] += f[i] / scale
            jf[i] += f[i + stride] / scale
        wr = np.add.reduce(f * (re_d * f + jf))
        wi = np.add.reduce(f * (im_d * f))
        out.append((float(w[-1]) * scale, complex(wr * scale, wi * scale)))
    return out


def test_buffered_sweep_reproduces_the_expression_bit_for_bit(monkeypatch):
    # A constant potential ties the top eigenvalue at theta = pi/2, which
    # sends some angles to the full-spectrum fallback after the subset solve
    # may have overwritten its input.  An assembled box reaches the real
    # dense eigh only when the band iteration gives up, forced here by a
    # budget of no band factorisations; a phased explicit matrix takes the
    # complex dense path.  The third potential's scale is 64, not 1.
    box = LatticeBox(2, ((0, 7), (0, 7)))
    phases = np.exp(0.7j * np.arange(box.site_count))
    fallbacks = []

    def spy(h, *args, **kw):
        if "subset_by_index" not in kw:
            fallbacks.append(h.dtype)
        return EIGH(h, *args, **kw)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    monkeypatch.setattr(numrange, "_BAND_MAX_FACTORS", 0)
    for pot in (ConstantPotential(0.3 + 0.4j),
                GeometricDecayPotential(0.6 + 0.9j, 0.5),
                GeometricDecayPotential(60.0 + 90.0j, 0.5)):
        op = assemble(box, pot)
        a = op.matrix
        phased = phases[:, None] * a * phases.conj()[None, :]
        for x, m in ((op, a), (phased, phased)):
            hull = compute_hull(x, n_angles=32)
            ref = expression_sweep(m, hull.thetas, x if x is op else None)
            assert hull.supports.tolist() == [s for s, _ in ref]
            assert hull.witnesses.tolist() == [w for _, w in ref]
    # the real dense path's full-spectrum eigh ran
    assert np.dtype(np.float64) in fallbacks


def band_operators():
    """Assembled operators of bandwidth > 1, each with the angle grids it is
    swept at: the boxes of a 2D lattice workload (L = 8, 16, 24, with a
    geometric and a seeded field), a nu = 3 box and a 2 x 3 x 5 box whose
    band is half its size (kd = 15 of n = 30).  The larger boxes keep to 32
    angles because the complex dense reference costs about 0.1 s per angle
    there."""
    cases = []
    for side in (8, 16, 24):
        box = centred_box(2, side)
        grids = (32, 359, 360) if side == 8 else (32,)
        for label, pot in (("geometric", GeometricDecayPotential(0.45 + 0.6j,
                                                                 0.7)),
                           ("field", seeded_field(box, side))):
            cases.append(pytest.param(assemble(box, pot), grids,
                                      id=f"L{side}_{label}"))
    box3 = centred_box(3, 5)
    cases.append(pytest.param(assemble(box3, seeded_field(box3, 3)),
                              (32, 359, 360), id="nu3_5"))
    box235 = LatticeBox(3, ((0, 1), (0, 2), (0, 4)))
    cases.append(pytest.param(assemble(box235, seeded_field(box235, 4)),
                              (32, 359, 360), id="random_dense_30"))
    return cases


@pytest.mark.parametrize("op, grids", band_operators())
def test_band_sweep_matches_the_dense_path(monkeypatch, op, grids):
    dense_calls = []
    monkeypatch.setattr(scipy.linalg, "eigh",
                        lambda *a, **kw: dense_calls.append(1))
    hulls = [compute_hull(op, n_angles=n) for n in grids]
    monkeypatch.undo()
    # every angle was certified on the band, none went to the dense solver
    assert not dense_calls
    matrix = op.matrix
    for hull in hulls:
        ref = dense_supports(matrix, hull.thetas)
        assert np.max(np.abs(hull.supports - ref)) < 1e-12, len(hull.thetas)
        on_line = (np.exp(1j * hull.thetas) * hull.witnesses).real
        assert np.max(np.abs(on_line - hull.supports)) < 1e-9, len(hull.thetas)


def test_band_iteration_that_gives_up_reaches_the_dense_solver(monkeypatch):
    # one factorisation cannot both move the start vector and certify it
    op = assemble(BOX_2D, GeometricDecayPotential(0.6 + 0.9j, 0.5))
    dense_calls = []

    def spy(h, *args, **kw):
        dense_calls.append(h.dtype)
        return EIGH(h, *args, **kw)

    monkeypatch.setattr(numrange, "_BAND_MAX_FACTORS", 1)
    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    hull = compute_hull(op, n_angles=16)
    monkeypatch.undo()
    assert dense_calls == [np.dtype(np.float64)] * 16
    assert np.max(np.abs(hull.supports
                         - dense_supports(op.matrix, hull.thetas))) < 1e-12


def test_band_fallback_peak_memory_is_one_real_array(monkeypatch):
    # every angle goes to the real dense eigh: H / scale is written from
    # Re A into one real n x n buffer, about 1.2 real n x n arrays with
    # eigh's workspace; a second n x n array (a copy of Re A or Im A, or
    # of the complex dense matrix) would read over 2
    box = LatticeBox(2, ((0, 23), (0, 23)))
    op = assemble(box, GeometricDecayPotential(0.6 + 0.9j, 0.5))
    monkeypatch.setattr(numrange, "_BAND_MAX_FACTORS", 0)
    compute_hull(op, n_angles=8)
    tracemalloc.start()
    try:
        compute_hull(op, n_angles=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * op.dim ** 2


@pytest.mark.parametrize("box", [LatticeBox(1, ((-3, 3),)),
                                 LatticeBox(2, ((-3, 3), (-3, 3)))],
                         ids=["chain", "box_7x7"])
def test_band_fallback_works_on_the_scaled_box_and_d(monkeypatch, box):
    # every angle goes to the real dense eigh, which runs on A divided by
    # its power-of-two scale, built from the box and d: next to 1e308 the
    # supports stay finite and the witnesses on their lines, and a support
    # beyond the float64 range is refused as the band iteration refuses it
    def no_matrix(self):
        raise AssertionError("the sweep read LatticeOperator.matrix")

    dense_calls = []

    def spy(h, *args, **kw):
        dense_calls.append(h.dtype)
        return EIGH(h, *args, **kw)

    monkeypatch.setattr(LatticeOperator, "matrix", property(no_matrix))
    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    monkeypatch.setattr(numrange, "_BAND_MAX_FACTORS", 0)
    c = 1e308 + 1e308j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hull = compute_hull(assemble(box, ConstantPotential(c)), n_angles=32)
        with pytest.raises(EigenSolverError):
            compute_hull(assemble(box, ConstantPotential(1.7e308 - 1.7e308j)),
                         n_angles=32)
    assert len(dense_calls) >= 64
    assert set(dense_calls) == {np.dtype(np.float64)}
    exact = (np.exp(1j * hull.thetas) * c).real
    assert np.all(np.isfinite(hull.supports))
    assert np.max(np.abs(hull.supports - exact)) <= 1e-12 * abs(c)
    on_line = (np.exp(1j * hull.thetas) * hull.witnesses).real
    assert np.max(np.abs(on_line - hull.supports)) <= 1e-12 * abs(c)


def test_box_at_the_dimension_cap_sweeps():
    # a 64 x 64 box is DEFAULT_MAX_DIM sites, the largest a run assembles
    box = centred_box(2, 64)
    assert box.site_count == DEFAULT_MAX_DIM
    op = assemble(box, seeded_field(box, 64))
    hull = compute_hull(op, n_angles=8)
    on_line = (np.exp(1j * hull.thetas) * hull.witnesses).real
    assert np.all(np.isfinite(hull.supports))
    assert np.max(np.abs(on_line - hull.supports)) < 1e-9


def test_box_hull_loads_no_sparse_solver():
    # scipy.sparse.linalg costs the process memory at import; the band path
    # uses only the LAPACK and BLAS routines scipy.linalg already loads
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from specrange.model import (GeometricDecayPotential, "
            "LatticeBox, assemble)\n"
            "from specrange.numrange import compute_hull\n"
            "box = LatticeBox(2, ((0, 7), (0, 7)))\n"
            "compute_hull(assemble(box, GeometricDecayPotential(0.6 + 0.9j, "
            "0.5)), n_angles=8)\n"
            "print('scipy.sparse.linalg' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_only_a_solve_loads_scipy(tmp_path):
    # importing scipy.linalg is most of a process's start-up: criteria,
    # --help and every call refused before a solve never load scipy, and
    # the first solve loads scipy.linalg
    src = Path(__file__).resolve().parent.parent / "src"
    code = textwrap.dedent("""\
        import sys
        from pathlib import Path
        import specrange
        import specrange.cli as cli
        scenarios, out = Path(sys.argv[1]), sys.argv[2]
        free = str(scenarios / "free_1d.json")
        for f in sorted(scenarios.glob("*.json")):
            assert cli.main(["criteria", str(f), "--out-dir", out]) == 0, f
        try:
            cli.main(["--help"])
        except SystemExit as exc:
            assert exc.code == 0
        else:
            raise AssertionError("--help returned")
        missing = str(Path(out) / "missing.json")
        assert cli.main(["run", missing, "--out-dir", out]) == 2
        assert cli.main(["run", free, "--max-dim", "10",
                         "--out-dir", out]) == 3
        assert cli.main(["construct", "--a", "-2.5", "--b", "1", "--zeros",
                         "0", "--n", "5", "--out-dir", out]) == 4
        before = "scipy" in sys.modules
        assert cli.main(["run", free, "--out-dir", out]) == 0
        print(before, "scipy.linalg" in sys.modules)
        """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, str(SCENARIO_DIR),
                           str(tmp_path)], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False True"
    assert len(list(tmp_path.glob("*.criteria.json"))) == 14


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e160])
def test_nearly_collinear_witnesses_are_not_vertices(scale):
    # witnesses along the edges of a rectangle, off their edges by rounding
    # (a few 1e-15 of the extent) to either side; an exact turn test kept
    # those on the outer side as vertices, and at 1e160 its products
    # overflowed
    corners = np.array([0.0, 4.0, 4.0 + 3.0j, 3.0j])
    t = np.linspace(0.0, 1.0, 9)[1:-1]
    rng = np.random.default_rng(7)
    for _ in range(20):
        edges = [a + t * (b - a) for a, b in zip(corners,
                                                 np.roll(corners, -1))]
        noise = rng.uniform(-4e-15, 4e-15, size=(4, len(t)))
        normals = 1j * (np.roll(corners, -1) - corners) / np.abs(
            np.roll(corners, -1) - corners)
        pts = np.concatenate([corners] + [e + n * d for e, n, d in
                                          zip(edges, noise, normals)])
        poly = numrange._convex_hull_ccw(scale * pts)
        assert sorted(poly.tolist(), key=lambda z: (z.real, z.imag)) == \
            sorted((scale * corners).tolist(), key=lambda z: (z.real, z.imag))
    # a witness 1e-9 of the extent outside an edge is a vertex
    bulge = numrange._convex_hull_ccw(
        scale * np.concatenate([corners, [2.0 - 4e-9j]]))
    assert len(bulge) == 5


def test_flat_hull_reports_its_end_points():
    # levelset_gap_im2's witnesses lie on one segment up to rounding; its
    # polygon is that segment, not a sliver whose vertex count follows the
    # witnesses' last bits
    sc = load_scenario(SCENARIO_DIR / "levelset_gap_im2.json")
    hull = compute_hull(assemble(sc.box, sc.potential), n_angles=sc.n_angles)
    assert len(hull.polygon) == 2


def reference_turn(z, i, j, k):
    """|z[k] - z[i]| times the distance of z[j] left of the chord
    z[i] -> z[k] (negative on its right)."""
    o, q, p = z[i], z[j], z[k]
    return (q.real - o.real) * (p.imag - o.imag) - \
        (q.imag - o.imag) * (p.real - o.real)


def reference_drop(z, ring, tol):
    """ring after passes from its last vertex to its first that drop each
    vertex within tol of the chord between its current neighbours, between
    its ends, until a pass drops none; one Python call per vertex."""
    ring = list(ring)

    def on_chord(i, j, k):
        chord, rel = z[k] - z[i], z[j] - z[i]
        along = (rel * chord.conjugate()).real
        return (reference_turn(z, i, j, k) <= tol * abs(chord)
                and 0.0 <= along <= abs(chord) ** 2)

    dropped = True
    while dropped and len(ring) > 2:
        dropped = False
        for j in range(len(ring) - 1, -1, -1):
            if len(ring) > 2 and on_chord(ring[j - 1], ring[j],
                                          ring[(j + 1) % len(ring)]):
                del ring[j]
                dropped = True
    return ring


def reference_convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """The polygon with one Python call per point: the monotone chain by
    reference_turn, then reference_drop.  numrange._convex_hull_ccw must
    return its bytes."""
    pts = np.unique(points)
    pts = pts[np.lexsort((pts.imag, pts.real))]
    if len(pts) <= 2:
        return pts
    big = max(np.abs(pts.real).max(), np.abs(pts.imag).max())
    scaled = pts * np.ldexp(1.0, -int(np.frexp(big)[1]))
    tol = numrange.COLLINEAR_REL * max(np.ptp(scaled.real),
                                       np.ptp(scaled.imag))
    z = scaled.tolist()

    def half(order):
        out = []
        for k in order:
            while (len(out) >= 2
                   and reference_turn(z, out[-2], out[-1], k) <= 0.0):
                out.pop()
            out.append(k)
        return out

    ring = half(range(len(z)))[:-1] + half(range(len(z) - 1, -1, -1))[:-1]
    return pts[reference_drop(z, ring, tol)]


def test_polygon_has_the_reference_bytes_on_every_shipped_hull(
        tmp_path, monkeypatch):
    # the bundled scenarios, and the hull_1d and lattice_2d inputs that the
    # benchmark generates at seeds 1-3
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        SCENARIO_DIR.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    for seed in (1, 2, 3):
        for workload in ("hull_1d", "lattice_2d"):
            items = workloads.generate(workload, seed,
                                       str(tmp_path / f"{workload}_{seed}"))
            paths += [Path(item.argv[1]) for item in items]
    assert len(paths) == 14 + 3 * (3 + 6)
    for path in paths:
        sc = load_scenario(str(path))
        witnesses = compute_hull(assemble(sc.box, sc.potential),
                                 n_angles=sc.n_angles).witnesses
        assert numrange._convex_hull_ccw(witnesses).tobytes() == \
            reference_convex_hull_ccw(witnesses).tobytes(), path


# coordinates from a few values, so that points repeat and line up
GRID = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0])


@st.composite
def point_sets(draw):
    """Points with duplicates, collinear runs (exact, or off their line by
    a few rounding errors or by about COLLINEAR_REL of the extent) and sets
    of 1 or 2 points, at a scale of 1, 1e-150 or 1e160."""
    pts = draw(st.lists(st.builds(complex, GRID, GRID), max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.builds(complex, GRID, GRID)), \
            draw(st.builds(complex, GRID, GRID))
        t = np.linspace(0.0, 1.0, draw(st.integers(2, 9)))
        off = draw(st.lists(st.sampled_from([0.0, 4e-16, -4e-16, 1e-12,
                                             -1e-12, 3e-12, 6e-12, 2e-11]),
                            min_size=len(t), max_size=len(t)))
        normal = 1j * (b - a) / abs(b - a) if b != a else 1j
        pts += (a + t * (b - a) + np.array(off) * normal).tolist()
    if not pts:
        pts = [draw(st.builds(complex, GRID, GRID))]
    scale = draw(st.sampled_from([1.0, 1e-150, 1e160]))
    return scale * np.array(pts, dtype=np.complex128)


@given(point_sets())
@settings(max_examples=400, deadline=None)
def test_polygon_has_the_reference_bytes_on_degenerate_point_sets(points):
    assert numrange._convex_hull_ccw(points).tobytes() == \
        reference_convex_hull_ccw(points).tobytes()


@st.composite
def rings_with_chords(draw):
    """(points, ring, tol): a ring whose last vertex D lies near the chord
    from the vertex before it, C, to the first, A, which itself lies near
    the chord from C to the second, B; dropping D gives A a new left
    neighbour.  Coordinates are multiples of 1/64, off their chords by
    multiples of tol / 4."""
    unit = st.integers(-64, 64).map(lambda k: k / 64.0)
    c, b = draw(st.builds(complex, unit, unit)), \
        draw(st.builds(complex, unit, unit))
    tol = draw(st.sampled_from([1e-12, 1e-3, 0.05]))
    off = st.integers(-6, 6).map(lambda k: k * tol / 4.0)
    s, u = draw(st.integers(1, 7)) / 8.0, draw(st.integers(1, 7)) / 8.0
    a = c + s * (b - c) + complex(draw(off), draw(off))
    d = c + u * (a - c) + complex(draw(off), draw(off))
    extra = draw(st.lists(st.builds(complex, unit, unit), max_size=2))
    return np.array([a, b, *extra, c, d]), list(range(3 + len(extra) + 1)), tol


@given(rings_with_chords())
@example((np.array([-0.4315290727219597 + 0.06905308558496256j,
                    0.2048437786994437 - 0.3753285153270609j,
                    -0.9058157592213083 + 0.4358802807860851j,
                    -0.6967161015951198 + 0.5883594856603314j,
                    -0.4768699584924825 + 0.10292725508008771j,
                    -0.4590523167618486 + 0.1006636868105273j]),
          [0, 1, 2, 3, 4, 5], 0.004622565949342819))
@settings(max_examples=300, deadline=None)
def test_chord_drop_has_the_reference_result_on_any_ring(case):
    # the first vertex is tested again once the last one is dropped (the
    # example: its old left neighbour put it outside the array screen)
    points, ring, tol = case
    assert numrange._drop_chord_vertices(points, ring, tol) == \
        reference_drop(points.tolist(), ring, tol)
