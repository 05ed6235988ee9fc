"""Eigensolver wrappers: residual contracts and closed-form oracles."""

import numpy as np
import pytest

from specrange.config import Tolerances
from specrange.exceptions import EigenSolverError
from specrange.linalg import RESIDUAL_BLOCK, eig_general, eig_hermitian
from specrange.model import (GeometricDecayPotential, LatticeBox,
                             OperatorMatrix, TablePotential, assemble)


def companion(*coeffs):
    """Companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0."""
    n = len(coeffs)
    m = np.zeros((n, n), dtype=np.complex128)
    m[1:, :-1] = np.eye(n - 1)
    m[:, -1] = [-c for c in coeffs]
    return m


def test_general_matches_cubic_roots():
    # x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
    op = OperatorMatrix(companion(-6.0, 11.0, -6.0))
    pairs = eig_general(op)
    got = sorted(p.value.real for p in pairs)
    assert np.allclose(got, [1.0, 2.0, 3.0], atol=1e-10)
    assert all(abs(p.value.imag) < 1e-10 for p in pairs)


def test_general_residual_is_recomputed_not_trusted():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    op = OperatorMatrix(a)
    for p in eig_general(op):
        direct = np.linalg.norm(a @ p.vector - p.value * p.vector)
        assert abs(direct - p.residual) < 1e-13
        assert abs(np.linalg.norm(p.vector) - 1.0) < 1e-13


def test_general_vector_phase_is_canonical():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    p1 = eig_general(OperatorMatrix(a))
    p2 = eig_general(OperatorMatrix(a.copy()))
    for q1, q2 in zip(p1, p2):
        assert np.array_equal(q1.vector, q2.vector)
        k = int(np.argmax(np.abs(q1.vector)))
        assert abs(q1.vector[k].imag) < 1e-14
        assert q1.vector[k].real > 0


def test_general_vectors_are_rows_of_one_block_with_unchanged_values():
    # The pairs share one contiguous block instead of n separate arrays; the
    # in-place normalisation gives the same bits as normalising a copy.
    rng = np.random.default_rng(12)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    pairs = eig_general(OperatorMatrix(a))
    base = pairs[0].vector.base
    assert base is not None and base.shape == (9, 9)
    vals, vecs = np.linalg.eig(a)
    order = np.lexsort((vals.imag, vals.real))
    for p, j in zip(pairs, order):
        assert p.vector.base is base and p.vector.flags["C_CONTIGUOUS"]
        v = vecs[:, j] / np.linalg.norm(vecs[:, j])
        k = int(np.argmax(np.abs(v)))
        assert np.array_equal(p.vector, v * (abs(v[k]) / v[k]))


BLOCK_SIZES = (1, RESIDUAL_BLOCK - 1, RESIDUAL_BLOCK, RESIDUAL_BLOCK + 1,
               2 * RESIDUAL_BLOCK + 3)


def random_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


# an assembled 2D box whose 135 sites fill two blocks and part of a third
BOX_2D = assemble(LatticeBox(2, ((-4, 4), (-7, 7))),
                  GeometricDecayPotential(0.4 + 0.7j, 0.6))


@pytest.mark.parametrize("a", [random_matrix(n, seed=n) for n in BLOCK_SIZES]
                         + [BOX_2D.matrix],
                         ids=[f"random_{n}" for n in BLOCK_SIZES] + ["box_2d"])
def test_blocked_residuals_match_per_pair_mat_vecs(a):
    # residuals come in blocks of RESIDUAL_BLOCK vectors; each must match
    # its own mat-vec, whatever the block boundaries
    pairs = eig_general(OperatorMatrix(a))
    assert len(pairs) == len(a)
    for p in pairs:
        direct = np.linalg.norm(a @ p.vector - p.value * p.vector)
        assert abs(direct - p.residual) < 1e-13
        assert isinstance(p.residual, float)


def test_residual_contract_breach_still_raises():
    a = random_matrix(RESIDUAL_BLOCK + 5, seed=4)
    worst = max(p.residual for p in eig_general(OperatorMatrix(a)))
    assert worst > 0.0
    with pytest.raises(EigenSolverError) as exc:
        eig_general(OperatorMatrix(a), Tolerances(eig=worst / 1e3 / (
            1.0 + np.linalg.norm(a, "fro"))))
    assert exc.value.worst_residual == worst


def test_hermitian_free_chain_matches_cosine_oracle():
    n = 30
    box = LatticeBox(1, ((1, n),))
    op = assemble(box, TablePotential({}))
    vals, vecs = eig_hermitian(op)
    oracle = np.sort(2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    assert np.all(np.diff(vals) >= 0)
    assert np.max(np.abs(vals - oracle)) < 1e-12
    gram = vecs.conj().T @ vecs
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_hermitian_rejects_nonhermitian_input():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(Exception):
        eig_hermitian(OperatorMatrix(m))


def test_jordan_block_defective_case_still_certified():
    op = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    pairs = eig_general(op)
    assert len(pairs) == 2
    for p in pairs:
        assert abs(p.value) < 1e-7
        assert p.residual <= 1e-7
