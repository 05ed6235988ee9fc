"""End-to-end acceptance gate.

Each test prints exactly one `criterion NN: PASS/FAIL - detail` line, with
closed-form or externally pinned oracles wherever one exists.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from specrange.classify import (NormalityVerdict, SplitVerdict, classify,
                                hildebrandt_certificate, split_certificate)
from specrange.cli import main
from specrange.config import DEFAULT_TOLERANCES
from specrange.construct import build_counterexample, symmetric_box
from specrange.criteria import CriteriaParams, evaluate_all
from specrange.linalg import eig_general
from specrange.model import (Alternating1DPotential, LatticeBox,
                             OperatorMatrix, SeededRandomPotential,
                             TablePotential, assemble)
from specrange.numrange import compute_hull
from specrange.onedim import propagate, shooting_l2_test
from specrange.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

ABSENCE_SCENARIOS = [
    "alternating_01_all",
    "geometric_pair_all",
    "halfspace_table_im07",
    "levelset_gap_im2",
    "pair_b1_table",
    "power_decay_pair_all",
    "real_power_nonreal",
    "real_window_am3",
    "seeded_box_pair_all",
    "summability_even_all",
    "summability_geometric_all",
    "table_bump_pair_all",
]


@pytest.fixture
def announce(capfd):
    def _announce(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {num}: {detail}"
    return _announce


@pytest.fixture(scope="module")
def designed_build():
    return build_counterexample(-2.5, 1.0, [0], n_sites=101)


def test_criterion_01_free_chain_extremes_and_real_hull(announce):
    op = assemble(LatticeBox(1, ((-100, 99),)), TablePotential({}))
    vals = [p.value for p in eig_general(op)]
    edge = 2.0 * math.cos(math.pi / 201.0)
    dev = max(abs(vals[-1] - edge), abs(vals[0] + edge))
    hull = compute_hull(op, n_angles=360)
    im = float(np.abs(np.asarray(hull.vertices()).imag).max())
    announce(1, dev <= 1e-9 and im <= 1e-9,
             f"edge deviation {dev:.3e}, max |Im hull| {im:.3e}")


def test_criterion_02_random_potentials_stay_in_analytic_box(announce):
    cases = []
    box1 = LatticeBox(1, ((-30, 29),))
    for i in range(25):
        cases.append((SeededRandomPotential(1000 + i, box1, (-0.8, 0.6),
                                            (-0.5, 0.9)),
                      box1, 1, (-0.8, 0.6), (-0.5, 0.9)))
    box2 = LatticeBox(2, ((-4, 3), (-4, 3)))
    for i in range(25):
        cases.append((SeededRandomPotential(2000 + i, box2, (-0.7, 0.7),
                                            (-0.4, 0.8)),
                      box2, 2, (-0.7, 0.7), (-0.4, 0.8)))
    worst = -np.inf
    for pot, box, nu, rr, ir in cases:
        verts = np.asarray(compute_hull(assemble(box, pot),
                                        n_angles=360).vertices())
        worst = max(worst,
                    (-2 * nu + rr[0]) - verts.real.min(),
                    verts.real.max() - (2 * nu + rr[1]),
                    ir[0] - verts.imag.min(),
                    verts.imag.max() - ir[1])
    announce(2, worst <= 1e-8,
             f"50 potentials, worst bound excess {worst:.3e}")


def test_criterion_03_rayleigh_points_are_contained(announce):
    rng = np.random.default_rng(7)
    worst = np.inf
    spot_ok = True
    for i in range(10):
        box = LatticeBox(1, ((-25, 24),))
        pot = SeededRandomPotential(3000 + i, box, (-0.6, 0.6), (-0.3, 0.7))
        op = assemble(box, pot)
        hull = compute_hull(op, n_angles=720)
        v = rng.standard_normal((50, 10_000)) \
            + 1j * rng.standard_normal((50, 10_000))
        v /= np.linalg.norm(v, axis=0)
        ray = np.einsum("ij,ij->j", v.conj(), op.matrix @ v)
        phases = np.exp(1j * hull.thetas)[:, None]
        margins = hull.supports[:, None] - (phases * ray[None, :]).real
        worst = min(worst, float(margins.min()))
        spot_ok = spot_ok and all(hull.contains(z, 1e-8) for z in ray[:50])
    announce(3, worst >= -1e-8 and spot_ok,
             f"10 x 10^4 vectors, worst containment margin {worst:.3e}")


def test_criterion_04_jordan_hull_is_the_half_disk_boundary(announce):
    op = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]],
                                 dtype=np.complex128))
    verts = np.asarray(compute_hull(op, n_angles=720).vertices())
    out = float(np.abs(np.abs(verts) - 0.5).max())
    circle = 0.5 * np.exp(2j * np.pi * np.arange(4000) / 4000)
    p = np.column_stack([circle.real, circle.imag])
    a = np.column_stack([verts.real, verts.imag])
    b = np.roll(a, -1, axis=0)
    ab = b - a
    t = ((p[:, None, :] - a[None, :, :]) * ab[None, :, :]).sum(-1)
    t = np.clip(t / (ab * ab).sum(-1)[None, :], 0.0, 1.0)
    near = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    back = float(np.linalg.norm(p[:, None, :] - near, axis=-1).min(1).max())
    haus = max(out, back)
    announce(4, haus <= 1e-4, f"Hausdorff distance to circle {haus:.3e}")


def test_criterion_05_normal_matrices_certify_their_boundary(announce):
    rng = np.random.default_rng(55)
    tol = DEFAULT_TOLERANCES.with_overrides(boundary_abs=1e-8)
    checked, failures, worst = 0, 0, 0.0
    for _ in range(100):
        d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        q, _ = np.linalg.qr(z)
        op = OperatorMatrix(q @ np.diag(d) @ q.conj().T)
        hull = compute_hull(op, n_angles=720)
        for rec in classify(op, hull, tol=tol):
            if rec.boundary_distance <= 1e-8:
                checked += 1
                verdict = hildebrandt_certificate(op, rec, tol=tol)
                worst = max(worst, rec.normality_residual)
                if (verdict is not NormalityVerdict.CERTIFIED_NORMAL
                        or rec.normality_residual > 1e-8):
                    failures += 1
    announce(5, checked > 0 and failures == 0,
             f"{checked} boundary eigenvalues, {failures} uncertified, "
             f"worst normality residual {worst:.3e}")


def test_criterion_06_designed_eigenvalue_and_truncation_decay(
        announce, designed_build):
    build = designed_build
    target = -2.5 + 1.0j
    cls = build.classification
    hits = sum(1 for p in eig_general(build.operator)
               if abs(p.value - target) < 1e-6)
    verts = np.asarray(build.hull.vertices())
    strip = verts.imag.min() >= -1e-8 and verts.imag.max() <= 1.0 + 1e-8
    residuals_ok = (cls.pair.residual <= 1e-6
                    and cls.normality_residual <= 1e-6
                    and cls.split_residual_re <= 1e-6
                    and cls.split_residual_im <= 1e-6)

    sizes = (41, 61, 81, 101)
    errs = []
    for n in sizes:
        pairs = eig_general(assemble(symmetric_box(n), build.potential))
        errs.append(min(abs(p.value - target) for p in pairs))
    monotone = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    # per-site geometric fit is meaningful only while the starting error
    # sits above the double-precision floor of the eigensolve
    floor = 64 * np.finfo(float).eps * abs(target)
    fitted, in_band = [], True
    for (n1, e1), (n2, e2) in zip(zip(sizes, errs), zip(sizes[1:], errs[1:])):
        if e1 > floor:
            r = (e2 / e1) ** (1.0 / (n2 - n1))
            fitted.append(r)
            in_band = in_band and 0.125 <= r <= 2.0
    ok = (hits == 1 and cls.is_boundary and residuals_ok and strip
          and monotone and len(fitted) >= 1 and in_band)
    announce(6, ok,
             f"|lambda - target| = {abs(cls.pair.value - target):.3e}, "
             f"errs {['%.3e' % e for e in errs]}, "
             f"fitted per-site ratios {['%.3f' % r for r in fitted]}")


def test_criterion_07_alternating_potential_defeats_both_gates(announce):
    box = LatticeBox(1, ((-50, 49),))
    pot = Alternating1DPotential(0.0, 1.0)
    op = assemble(box, pot)
    hull = compute_hull(op, n_angles=360)
    tol = DEFAULT_TOLERANCES.with_overrides(boundary_abs=1e-6, cert_abs=1e-3)
    passed_both = 0
    min_dist = np.inf
    for rec in classify(op, hull, tol=tol):
        min_dist = min(min_dist, rec.boundary_distance)
        if rec.is_boundary \
                and split_certificate(op, rec, tol=tol) is SplitVerdict.CERTIFIED:
            passed_both += 1
    rep = evaluate_all(pot, nu=1, params=CriteriaParams(b_values=(0.0, 1.0)))
    alt = [e for e in rep.entries if e.criterion == "alternating"]
    alt_absent = bool(alt) and all(e.verdict == "absence_guaranteed"
                                   for e in alt)
    announce(7, passed_both == 0 and alt_absent,
             f"{passed_both} eigenvalues passed both gates, min boundary "
             f"distance {min_dist:.3e}, alternating criterion absent")


def in_guaranteed_class(lam: complex, target, tol: float = 1e-6) -> bool:
    if target.kind == "all":
        return True
    if target.kind == "nonreal":
        return abs(lam.imag) > tol
    if target.kind == "im":
        return abs(lam.imag - target.value) <= tol
    return abs(lam.real - target.value) <= tol


def test_criterion_08_absence_scenarios_have_no_certified_in_class(announce):
    assert len(ABSENCE_SCENARIOS) == 12
    tol = DEFAULT_TOLERANCES
    certified_total, in_class = 0, 0
    for name in ABSENCE_SCENARIOS:
        sc = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
        rep = evaluate_all(sc.potential, nu=1, params=sc.criteria)
        targets = rep.guaranteed_targets()
        assert targets, name
        for n_sites in (50, 100, 200):
            lo = -(n_sites // 2)
            op = assemble(LatticeBox(1, ((lo, lo + n_sites - 1),)),
                          sc.potential)
            hull = compute_hull(op, n_angles=360)
            for rec in classify(op, hull, tol=tol):
                if not rec.is_boundary:
                    continue
                if (hildebrandt_certificate(op, rec, tol=tol)
                        is not NormalityVerdict.CERTIFIED_NORMAL):
                    continue
                if (split_certificate(op, rec, tol=tol)
                        is not SplitVerdict.CERTIFIED):
                    continue
                certified_total += 1
                lam = rec.pair.value
                if any(in_guaranteed_class(lam, t) for t in targets):
                    in_class += 1
    announce(8, in_class == 0,
             f"12 scenarios x 3 sizes: {certified_total} certified boundary "
             f"eigenvalues, {in_class} inside a guaranteed-absent class")


def test_criterion_09_free_propagation_matches_chebyshev(announce):
    t = math.pi / 5.0
    lam = 2.0 * math.cos(t)
    free = TablePotential({})
    u = propagate(free, lam, seed=(0.0, 1.0), anchor=-1, rng=(-1, 51))
    dev = max(abs(u.value_at(n) - math.sin((n + 1) * t) / math.sin(t))
              for n in range(0, 51))
    v = propagate(free, lam, seed=(1.0, 0.0), anchor=-1, rng=(-1, 51))
    w = [u.value_at(n + 1) * v.value_at(n) - u.value_at(n) * v.value_at(n + 1)
         for n in range(-1, 50)]
    wdev = max(abs(x - w[0]) for x in w)
    announce(9, dev <= 1e-10 and wdev <= 1e-10,
             f"max solution deviation {dev:.3e}, Wronskian drift {wdev:.3e}")


def test_criterion_10_shooting_confirms_the_bound_state(announce):
    pot = TablePotential({(0,): -3.0})
    op = assemble(LatticeBox(1, ((-100, 100),)), pot)
    lam = eig_general(op)[0].value.real
    hit = shooting_l2_test(pot, lam, window=30)
    miss = shooting_l2_test(pot, lam + 0.1, window=30)
    ok = (lam < -2.0 and hit.compatible and hit.mismatch <= 1e-6
          and not miss.compatible and miss.mismatch > 1e-6)
    announce(10, ok,
             f"bound state {lam:.12f}, mismatch {hit.mismatch:.3e}, "
             f"off-eigenvalue mismatch {miss.mismatch:.3e}")


def test_criterion_11_split_residuals_of_the_designed_state(
        announce, designed_build):
    cls = designed_build.classification
    norm = float(np.linalg.norm(cls.pair.vector))
    ok = (cls.split_residual_re <= 1e-6 * norm
          and cls.split_residual_im <= 1e-6 * norm)
    announce(11, ok,
             f"split residuals re {cls.split_residual_re:.3e}, "
             f"im {cls.split_residual_im:.3e} (norm {norm:.3f})")


def test_criterion_12_reports_are_byte_identical(announce, tmp_path):
    files = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(files) == 14
    mismatched = []
    for path in files:
        d1, d2 = tmp_path / f"{path.stem}-1", tmp_path / f"{path.stem}-2"
        assert main(["run", str(path), "--out-dir", str(d1)]) == 0
        assert main(["run", str(path), "--out-dir", str(d2)]) == 0
        for out in sorted(d1.iterdir()):
            if (d2 / out.name).read_bytes() != out.read_bytes():
                mismatched.append(out.name)
    announce(12, not mismatched,
             f"{len(files)} scenarios re-run, mismatched files: "
             f"{mismatched or 'none'}")
