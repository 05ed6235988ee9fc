"""Boundary classification and the two certificates."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from specrange.classify import (EigenClassification, NormalityVerdict,
                                SplitVerdict, classify,
                                hildebrandt_certificate, split_certificate)
from specrange.cli import main
from specrange.config import DEFAULT_TOLERANCES
from specrange.exceptions import ProvenanceError
from specrange.linalg import RESIDUAL_BLOCK, eig_general
from specrange.model import (ConstantPotential, GeometricDecayPotential,
                             LatticeBox, OperatorMatrix, SeededRandomPotential,
                             SumPotential, TablePotential, assemble)
from specrange.numrange import compute_hull
from specrange.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def classify_matrix(matrix, n_angles=360, tol=DEFAULT_TOLERANCES):
    op = OperatorMatrix(np.asarray(matrix, dtype=complex))
    hull = compute_hull(op, n_angles=n_angles)
    return op, classify(op, hull, tol)


def test_diagonal_extreme_points_are_certified_boundary():
    d = [2.0, -1.0 + 1.0j, -1.0 - 1.0j, 0.1]  # 0.1 is interior
    op, records = classify_matrix(np.diag(d), n_angles=720)
    by_val = {complex(r.pair.value): r for r in records}
    for z in (2.0, -1.0 + 1.0j, -1.0 - 1.0j):
        rec = by_val[complex(z)]
        assert rec.is_boundary
        assert rec.normality_residual < 1e-12
        assert hildebrandt_certificate(op, rec) is NormalityVerdict.CERTIFIED_NORMAL
    inner = by_val[complex(0.1)]
    assert not inner.is_boundary
    assert inner.boundary_distance > 0.5
    assert hildebrandt_certificate(op, inner) is NormalityVerdict.NOT_APPLICABLE


def test_jordan_block_eigenvalue_is_interior():
    op, records = classify_matrix([[0.0, 1.0], [0.0, 0.0]], n_angles=720)
    for rec in records:
        assert abs(rec.pair.value) < 1e-8
        assert not rec.is_boundary
        assert rec.boundary_distance == pytest.approx(0.5, abs=1e-6)


def test_boundary_needs_small_normality_residual_to_certify():
    # a boundary eigenpair of a non-normal matrix: upper triangular with
    # the extreme eigenvalue coupled to the rest
    m = np.diag([3.0, 0.0, -0.5j]) + np.diag([0.8, 0.3], 1)
    op, records = classify_matrix(m, n_angles=720)
    rec = max(records, key=lambda r: r.pair.value.real)
    assert rec.pair.value == pytest.approx(3.0, abs=1e-9)
    # eigenvalue 3 lies on the hull boundary but its eigenvector is not an
    # adjoint eigenvector, so the certificate must refuse
    if rec.is_boundary:
        assert rec.normality_residual > 1e-3
        assert hildebrandt_certificate(op, rec) is NormalityVerdict.VIOLATED


def test_split_certificate_needs_provenance():
    # classify itself never raises for a missing box: it leaves split None
    op, records = classify_matrix(np.diag([1.0, -1.0]))
    assert all(r.split is None for r in records)
    with pytest.raises(ProvenanceError):
        split_certificate(op, records[0])


def test_split_certificate_on_designed_boundary_eigenvalue():
    pot = SumPotential((TablePotential({(-1,): -2.0, (0,): -1.0j, (1,): -2.0}),
                        ConstantPotential(1.0j)))
    box = LatticeBox(1, ((-30, 30),))
    op = assemble(box, pot)
    hull = compute_hull(op, n_angles=360)
    records = classify(op, hull, DEFAULT_TOLERANCES)
    rec = min(records, key=lambda r: abs(r.pair.value - (-2.5 + 1.0j)))
    assert abs(rec.pair.value - (-2.5 + 1.0j)) < 1e-8
    assert rec.is_boundary
    assert rec.split_residual_re < 1e-8 and rec.split_residual_im < 1e-8
    assert split_certificate(op, rec) is SplitVerdict.CERTIFIED
    assert hildebrandt_certificate(op, rec) is NormalityVerdict.CERTIFIED_NORMAL


def test_support_extent_and_box_limited_for_bound_state():
    # -3 delta_0 has a bound state decaying like 0.303^|n|: support is well
    # inside a 61-site box at the default support threshold
    box = LatticeBox(1, ((-30, 30),))
    op = assemble(box, TablePotential({(0,): -3.0}))
    hull = compute_hull(op, n_angles=360)
    records = classify(op, hull, DEFAULT_TOLERANCES)
    rec = min(records, key=lambda r: r.pair.value.real)
    assert rec.pair.value.real == pytest.approx(-math.sqrt(13.0), abs=1e-10)
    ((lo, hi),) = rec.support_extent
    assert -30 < lo < 0 < hi < 30
    assert rec.box_limited is True


def test_extended_state_touches_the_box_and_is_not_box_limited():
    box = LatticeBox(1, ((-15, 15),))
    op = assemble(box, TablePotential({}))
    hull = compute_hull(op, n_angles=360)
    records = classify(op, hull, DEFAULT_TOLERANCES)
    rec = min(records, key=lambda r: r.pair.value.real)
    assert rec.support_extent == ((-15, 15),)
    assert rec.box_limited is False


def test_records_align_with_eig_order_and_carry_residuals():
    box = LatticeBox(1, ((-6, 6),))
    op = assemble(box, ConstantPotential(0.2j))
    hull = compute_hull(op, n_angles=360)
    records = classify(op, hull, DEFAULT_TOLERANCES)
    assert len(records) == 13
    for rec in records:
        direct = np.linalg.norm(
            op.matrix @ rec.pair.vector - rec.pair.value * rec.pair.vector)
        assert abs(direct - rec.pair.residual) < 1e-12
        # J0 + 0.2i is normal: every eigenvalue sits on the segment hull
        assert rec.is_boundary
        assert split_certificate(op, rec) is SplitVerdict.CERTIFIED


def random_operator(n):
    rng = np.random.default_rng(n)
    return OperatorMatrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


@pytest.mark.parametrize("op", [random_operator(n) for n in (
    1, RESIDUAL_BLOCK - 1, RESIDUAL_BLOCK, RESIDUAL_BLOCK + 1,
    2 * RESIDUAL_BLOCK + 3)] + [assemble(LatticeBox(2, ((-4, 4), (-7, 7))),
                                         GeometricDecayPotential(0.4 + 0.7j,
                                                                 0.6))],
    ids=lambda op: f"n{op.dim}" + ("_box_2d" if op.box else ""))
def test_blocked_classify_matches_per_pair_reference(op):
    hull = compute_hull(op, n_angles=24)
    records = classify(op, hull)
    pairs = eig_general(op)
    assert [r.pair.value for r in records] == [p.value for p in pairs]
    a = op.matrix
    tol_boundary = DEFAULT_TOLERANCES.boundary(op.frobenius)
    for rec in records:
        lam, f = rec.pair.value, rec.pair.vector
        af, ahf = a @ f, a.conj().T @ f
        assert abs(rec.normality_residual
                   - np.linalg.norm(ahf - np.conj(lam) * f)) <= 1e-12
        assert abs(rec.split_residual_re - np.linalg.norm(
            (af + ahf) / 2.0 - lam.real * f)) <= 1e-12
        assert abs(rec.split_residual_im - np.linalg.norm(
            (af - ahf) / 2.0j - lam.imag * f)) <= 1e-12
        thresh = DEFAULT_TOLERANCES.support_rel * float(np.abs(f).max())
        assert np.array_equal(rec.support_indices,
                              np.flatnonzero(np.abs(f) > thresh))
        dist = hull.boundary_distance(lam, outside_tol=tol_boundary)
        assert rec.boundary_distance == dist
        assert rec.is_boundary == (dist <= tol_boundary)
        assert isinstance(rec.normality_residual, float)
        assert rec.normality is hildebrandt_certificate(op, rec)
        if op.box is None:
            assert (rec.split, rec.support_extent, rec.box_limited) == \
                (None, None, None)
            continue
        assert rec.split is split_certificate(op, rec)
        assert rec.certified == (
            rec.is_boundary
            and rec.normality is NormalityVerdict.CERTIFIED_NORMAL
            and rec.split is SplitVerdict.CERTIFIED)
        coords = op.box.sites[rec.support_indices]
        assert rec.support_extent == tuple(
            (int(lo), int(hi))
            for lo, hi in zip(coords.min(axis=0), coords.max(axis=0)))
        assert rec.box_limited == all(
            blo < lo and hi < bhi
            for (lo, hi), (blo, bhi) in zip(rec.support_extent,
                                            op.box.ranges))


def test_assembled_diagonal_is_the_potential_sitewise():
    # split_certificate reads Im d(k) from the diagonal of A instead of
    # evaluating the potential again on the support sites
    cases = [load_scenario(p) for p in sorted(SCENARIO_DIR.glob("*.json"))]
    cases = [(sc.box, sc.potential) for sc in cases]
    box = LatticeBox(2, ((-5, 6), (-4, 4)))
    cases.append((box, SeededRandomPotential(3, box, (-0.5, 0.5), (0.0, 1.0))))
    rng = np.random.default_rng(0)
    for box, pot in cases:
        diagonal = np.diagonal(assemble(box, pot).matrix)
        n = len(diagonal)
        for idx in (np.arange(n), rng.permutation(n)[:n // 3]):
            assert (pot.values(box.sites[idx]).imag.tobytes()
                    == diagonal.imag[idx].tobytes())


@pytest.mark.parametrize("name, count", [("free_1d", 200),
                                         ("levelset_gap_im2", 40),
                                         ("real_power_nonreal", 40)])
def test_normal_bundled_scenarios_certify_every_record(tmp_path, name,
                                                       count):
    # Im d is constant on these boxes, so A is normal, every eigenvector
    # reduces it and every eigenvalue lies on the boundary of W(A)
    path = SCENARIO_DIR / f"{name}.json"
    sc = load_scenario(str(path))
    assert assemble(sc.box, sc.potential).normal_shift is not None
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"{name}.report.json").read_text())
    records = report["results"]["classify"]["records"]
    assert len(records) == count
    assert report["results"]["classify"]["certified_boundary_count"] == count
    for rec in records:
        assert rec["is_boundary"] is True
        assert rec["normality"] == NormalityVerdict.CERTIFIED_NORMAL.value
        assert rec["split"] == SplitVerdict.CERTIFIED.value
