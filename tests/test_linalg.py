"""Eigensolver wrappers: residual contracts and closed-form oracles."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from specrange.config import DEFAULT_TOLERANCES, Tolerances
from specrange.exceptions import EigenSolverError
from specrange.linalg import RESIDUAL_BLOCK, eig_general, eig_hermitian
from specrange.model import (ConstantPotential, GeometricDecayPotential,
                             LatticeBox, LatticeOperator, OperatorMatrix,
                             PowerDecayPotential, SumPotential,
                             TablePotential, assemble)


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
    assert base is not None and base.size == 81
    # the 9 vectors are the 9 rows of that block, one each
    start = base.__array_interface__["data"][0]
    rows = sorted(p.vector.__array_interface__["data"][0] - start
                  for p in pairs)
    assert rows == [9 * 16 * k for k in range(9)]
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


@pytest.mark.parametrize("m", [[[np.nan, 0.0], [0.0, 1.0]],
                               [[np.inf, 0.0], [0.0, 1.0]],
                               [[1.0, np.inf], [np.inf, 1.0]]],
                         ids=["nan", "inf_diagonal", "inf_hop"])
def test_hermitian_refuses_input_that_is_not_finite(m):
    # NaN deviations and residuals pass every > check, so the entries are
    # checked first, as eig_general checks them
    with pytest.raises(EigenSolverError):
        eig_hermitian(OperatorMatrix(m))


def test_hermitian_vectors_are_eigh_normalised_and_phased():
    a = random_matrix(11, seed=6)
    a = a + a.conj().T
    vals, vecs = eig_hermitian(OperatorMatrix(a))
    ref_vals, ref = np.linalg.eigh(a)
    assert vals.tobytes() == ref_vals.tobytes()
    for j in range(len(a)):
        v = ref[:, j] / np.linalg.norm(ref[:, j])
        k = int(np.argmax(np.abs(v)))
        assert vecs[:, j].tobytes() == (v * (abs(v[k]) / v[k])).tobytes()


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


# assembled operators on nu = 1, 2, 3 boxes, sides of length 1 included
ASSEMBLED = [
    assemble(LatticeBox(1, ((-20, 20),)),
             GeometricDecayPotential(0.4 - 0.7j, 0.6)),
    assemble(LatticeBox(2, ((-4, 4), (-7, 7))),
             GeometricDecayPotential(0.4 + 0.7j, 0.6)),
    assemble(LatticeBox(2, ((0, 0), (-6, 6))),
             GeometricDecayPotential(0.4 + 0.7j, 0.6)),
    assemble(LatticeBox(3, ((-2, 2), (0, 0), (-3, 2))),
             GeometricDecayPotential(-1.3 + 0.9j, 0.5)),
]


@pytest.mark.parametrize("op", ASSEMBLED, ids=lambda op: "x".join(
    map(str, op.box.shape)))
def test_assembled_operator_solves_like_its_dense_matrix(op):
    # the same ?geev on the same buffer contents, so the same pairs; the
    # residuals come from the stencil instead of a dense product
    pairs, dense = eig_general(op), eig_general(op.matrix)
    assert len(pairs) == len(dense) == op.dim
    for p, q in zip(pairs, dense):
        assert abs(p.value - q.value) <= 1e-12
        assert np.abs(p.vector - q.vector).max() <= 1e-12
        assert abs(p.residual - q.residual) <= 1e-12


BIT_FOR_BIT = """
from specrange.linalg import eig_general
from specrange.model import GeometricDecayPotential, LatticeBox, assemble
for ranges in (((-20, 20),), ((-4, 4), (-7, 7)), ((-2, 2), (0, 0), (-3, 2))):
    op = assemble(LatticeBox(len(ranges), ranges),
                  GeometricDecayPotential(0.4 + 0.7j, 0.6))
    pairs, dense = eig_general(op), eig_general(op.matrix)
    assert [p.value for p in pairs] == [q.value for q in dense]
    for p, q in zip(pairs, dense):
        assert p.vector.tobytes() == q.vector.tobytes()
print("ok")
"""


def test_assembled_operator_solves_bit_for_bit_with_one_blas_thread():
    # fill writes the entries the dense matrix holds, so ?geev returns the
    # same bits for both
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    proc = subprocess.run([sys.executable, "-c", BIT_FOR_BIT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize("value", [1e-150, 1e-300, 1e160, 1e300])
def test_eigenvalues_beyond_lapacks_unscaled_range(value):
    # ?geev scales a matrix whose largest entry lies outside about
    # [1e-138, 1e138] itself, and a LAPACK that does not undo it returns
    # 6.7e-139 for the eigenvalue of [[1e-150]]
    (p,) = eig_general(OperatorMatrix([[value]]))
    assert p.value == value
    m = value * np.array([[1.0, 1.0 / 3.0], [0.2, 1.0 / 7.0]])
    got = [p.value for p in eig_general(OperatorMatrix(m))]
    ref = np.sort_complex(np.linalg.eigvals(m / value)) * value
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("value", [1e160, 1e300])
def test_huge_site_of_a_chain_is_its_largest_eigenvalue(value):
    chain = assemble(LatticeBox(1, ((-3, 3),)),
                     TablePotential({(0,): value * (1 + 1j)}))
    top = max(eig_general(chain), key=lambda p: abs(p.value))
    assert abs(top.value - value * (1 + 1j)) <= 1e-12 * value



def test_construct_follows_the_blas_thread_count_only_in_its_residuals(
        tmp_path):
    # ?geev's eigenvectors follow, in their last bits, how threaded BLAS
    # splits its work, so identical report bytes need the same BLAS build
    # and thread setting (README, Determinism).  The default construct with
    # one and with two threads agrees in everything else.
    src = Path(__file__).resolve().parent.parent / "src"
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                     if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "specrange", "construct", "--a", "-2.5",
             "--b", "1", "--zeros", "0", "--out-dir", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        files.append({f.name: f.read_bytes() for f in out.iterdir()})
    base = "counterexample_a-2.5_b1"
    assert sorted(files[0]) == sorted(files[1]) == sorted(
        f"{base}.{kind}" for kind in ("hull.csv", "report.json",
                                      "scenario.json", "spectrum.csv"))
    for name in (f"{base}.hull.csv", f"{base}.scenario.json"):
        assert files[0][name] == files[1][name]
    one, two = (json.loads(f[f"{base}.report.json"])["results"]
                for f in files)
    residuals = ("residual", "normality_residual", "split_residual_re",
                 "split_residual_im")
    assert one["classify"]["certified_boundary_count"] == \
        two["classify"]["certified_boundary_count"]
    rows = [r["spectrum"]["eigenvalues"] + r["classify"]["records"]
            for r in (one, two)]
    for a, b in zip(*rows, strict=True):
        assert abs(complex(*a["value"]) - complex(*b["value"])) <= \
            1e-13 * (1.0 + abs(complex(*a["value"])))
        for key in residuals:
            if key in a:
                assert abs(a[key] - b[key]) <= 1e-15
        for key in ("is_boundary", "normality", "split", "support_size"):
            if key in a:
                assert a[key] == b[key]


def centred_box(nu, side, *more):
    lo = -(side // 2)
    return LatticeBox(nu, ((lo, lo + side - 1),) * (nu - len(more)) + more)


# boxes whose d is invariant under exchanging their first two axes
SWAP_INVARIANT = [
    pytest.param(assemble(centred_box(2, 8), GeometricDecayPotential(
        0.4 + 0.7j, 0.6)), id="8x8"),
    pytest.param(assemble(centred_box(2, 16), GeometricDecayPotential(
        0.45 + 0.6j, 0.7)), id="16x16"),
    pytest.param(assemble(LatticeBox(2, ((0, 5), (0, 5))),
                          ConstantPotential(0.3 + 0.7j)), id="constant_6x6"),
    pytest.param(assemble(centred_box(3, 4, (0, 2)), GeometricDecayPotential(
        -1.3 + 0.9j, 0.5)), id="4x4x3"),
    # Im d constant: two ?syevr blocks of Re A
    pytest.param(assemble(centred_box(2, 9), SumPotential((
        GeometricDecayPotential(-0.4, 0.6), ConstantPotential(0.5j)))),
        id="normal_9x9"),
    # scale 2^82, beyond 2^64, so ?geev sees A / 2^82
    pytest.param(assemble(centred_box(2, 6), GeometricDecayPotential(
        1e25 * (0.4 + 0.7j), 0.6)), id="scaled_6x6"),
]


def test_scaled_invariant_box_is_handed_to_lapack_scaled():
    assert SWAP_INVARIANT[-1].values[0].lapack_scale == 2.0 ** 82


def fixed_points(op):
    sigma = op.swap[0]
    return int(np.count_nonzero(sigma == np.arange(op.dim)))


@pytest.mark.parametrize("op", SWAP_INVARIANT)
def test_split_vectors_are_exactly_even_or_odd(op):
    sigma = op.swap[0]
    signs = []
    for p in eig_general(op):
        f = p.vector
        even, odd = np.array_equal(f[sigma], f), np.array_equal(f[sigma], -f)
        assert even != odd
        signs.append(even)
    f = fixed_points(op)
    assert signs.count(True) == (op.dim + f) // 2
    assert signs.count(False) == (op.dim - f) // 2


@pytest.mark.parametrize("op", SWAP_INVARIANT)
def test_split_pairs_match_the_dense_solve_within_rounding(op):
    # the two block solves agree with one solve of the n x n matrix as a
    # multiset of eigenvalues, and every pair meets the residual contract of
    # the full operator
    pairs, dense = eig_general(op), eig_general(op.matrix)
    got = np.array([p.value for p in pairs])
    ref = np.array([q.value for q in dense])
    cost = np.abs(got[:, None] - ref[None, :]) / (1.0 + np.abs(got[:, None]))
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12
    a = op.matrix
    bound = DEFAULT_TOLERANCES.eig * (1.0 + op.frobenius)
    for p in pairs:
        assert p.residual <= bound
        direct = np.linalg.norm(a @ p.vector - p.value * p.vector)
        assert abs(direct - p.residual) <= 1e-13 * (1.0 + abs(p.value))
        assert abs(np.linalg.norm(p.vector) - 1.0) < 1e-13


def spy_lapack(monkeypatch):
    """A list that gets (routine, block) for each LAPACK solve made while
    monkeypatch is in place."""
    solves = []
    real = scipy.linalg.get_lapack_funcs

    def get_lapack_funcs(names, *args, **kwargs):
        funcs = real(names, *args, **kwargs)

        def spy(a, *a_args, **a_kwargs):
            solves.append((names[0], a))
            return funcs[0](a, *a_args, **a_kwargs)
        return (spy, *funcs[1:])

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
    return solves


def test_invariant_box_solves_two_blocks_carved_from_one_buffer(monkeypatch):
    op = assemble(centred_box(2, 16), GeometricDecayPotential(0.45 + 0.6j,
                                                              0.7))
    solves = spy_lapack(monkeypatch)

    def no_dense(*args):
        raise AssertionError("the dense matrix was formed")

    fill_blocks = LatticeOperator.fill_blocks

    def swap_blocks_only(self, swap, even, odd):
        assert swap is op.swap, "blocks of another exchange were written"
        fill_blocks(self, swap, even, odd)

    monkeypatch.setattr(LatticeOperator, "fill_blocks", swap_blocks_only)
    monkeypatch.setattr(LatticeOperator, "matrix", property(no_dense))
    pairs = eig_general(op)
    assert [name for name, _ in solves] == ["geev", "geev"]
    blocks = [a for _, a in solves]
    n, f = op.dim, fixed_points(op)
    assert [b.shape for b in blocks] == [((n + f) // 2,) * 2,
                                         ((n - f) // 2,) * 2] == [(136, 136),
                                                                  (120, 120)]
    assert all(b.flags.f_contiguous for b in blocks)
    # both blocks are carved from one n x n buffer, which then holds the
    # lifted eigenvectors
    buf = blocks[0].base
    assert blocks[1].base is buf and buf.size == n * n
    assert len(pairs) == n and all(p.vector.base is buf for p in pairs)


SQUARE_FIELD = """
import numpy as np
import scipy.linalg
from specrange.linalg import eig_general
from specrange.model import (GeometricDecayPotential, LatticeBox,
                             SeededRandomPotential, SumPotential, assemble)
box = LatticeBox(2, ((-6, 5), (-6, 5)))
op = assemble(box, SumPotential((
    SeededRandomPotential(7, box, (-0.5, 0.5), (0.0, 1.0)),
    GeometricDecayPotential(0.12 + 0.25j, 0.7))))
assert op.swap is None
sizes = []
real = scipy.linalg.get_lapack_funcs
def get_lapack_funcs(names, *args, **kwargs):
    funcs = real(names, *args, **kwargs)
    if names[0] != "geev":
        return funcs
    def spy(a, *a_args, **a_kwargs):
        sizes.append(a.shape)
        return funcs[0](a, *a_args, **a_kwargs)
    return (spy, *funcs[1:])
scipy.linalg.get_lapack_funcs = get_lapack_funcs
pairs = eig_general(op)
assert sizes == [(144, 144)], sizes
# np.linalg.eig on the dense matrix, normalised and phased
vals, vecs = np.linalg.eig(op.matrix)
order = np.lexsort((vals.imag, vals.real))
assert [p.value for p in pairs] == vals[order].tolist()
for p, j in zip(pairs, order, strict=True):
    v = vecs[:, j] / np.linalg.norm(vecs[:, j])
    k = int(np.argmax(np.abs(v)))
    assert p.vector.tobytes() == (v * (abs(v[k]) / v[k])).tobytes()
print("ok")
"""


def test_square_box_without_invariance_solves_unsplit_bit_for_bit():
    # a seeded field breaks the exchange symmetry of a square box: one
    # size-n ?geev on the trivial exchange's one block, the bits of
    # np.linalg.eig on the dense matrix
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    proc = subprocess.run([sys.executable, "-c", SQUARE_FIELD],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_explicit_matrix_is_one_geev_of_its_size(monkeypatch):
    # the trivial exchange's odd block is empty and not handed to LAPACK
    solves = spy_lapack(monkeypatch)
    pairs = eig_general(OperatorMatrix(random_matrix(13, seed=5)))
    assert [(name, a.shape) for name, a in solves] == [("geev", (13, 13))]
    assert len(pairs) == 13


def test_residual_loop_stays_below_the_split_solve_peak():
    # the residuals ask for A f alone, on three blocks of temporaries, so
    # on a 24 x 24 box the solve's 1.61 n x n complex arrays set the peak
    # (measured: 1.613; 1.81 while the loop formed A* f as well)
    op = assemble(centred_box(2, 24), GeometricDecayPotential(0.45 + 0.6j,
                                                              0.7))
    n = op.dim
    op.swap, op.frobenius, op.scale
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pairs = eig_general(op)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(pairs) == n
    assert peak <= 1.65 * 16 * n * n


def normal(box, potential, c):
    op = assemble(box, potential)
    assert op.normal_shift == c
    return pytest.param(op, c, id="x".join(map(str, box.shape)))


# operators whose Im d is the constant c: normal, solved on Re A by ?syevr
NORMAL = [
    normal(LatticeBox(1, ((-100, 99),)), TablePotential({}), 0.0),
    normal(LatticeBox(1, ((-20, 19),)), SumPotential((
        PowerDecayPotential(0.5, 1.5), ConstantPotential(-0.75j))), -0.75),
    normal(LatticeBox(2, ((-3, 4), (-2, 2))), SumPotential((
        GeometricDecayPotential(0.6, 0.5), ConstantPotential(0.25j))), 0.25),
    # swap-invariant: two blocks, with 9 fixed sites (SWAP_INVARIANT has
    # it too, for the exactly even or odd vectors)
    normal(centred_box(2, 9), SumPotential((
        GeometricDecayPotential(-0.4, 0.6), ConstantPotential(0.5j))), 0.5),
    normal(LatticeBox(1, ((3, 3),)), ConstantPotential(0.2 - 1.5j), -1.5),
    # scale 2^83, beyond 2^64, so ?syevr sees Re A / 2^83
    normal(LatticeBox(1, ((-10, 10),)), SumPotential((
        GeometricDecayPotential(1e25, 0.6), ConstantPotential(-2e24j))),
        -2e24),
]


@pytest.mark.parametrize("op, c", NORMAL)
def test_normal_operator_is_solved_by_syevr_on_its_real_part(op, c,
                                                             monkeypatch):
    spied = spy_lapack(monkeypatch)
    pairs = eig_general(op)
    monkeypatch.undo()
    solves = [(name, a.dtype, a.shape) for name, a in spied]
    n = op.dim
    if op.swap is None:
        assert solves == [("syevr", np.float64, (n, n))]
    else:
        f = fixed_points(op)
        assert solves == [("syevr", np.float64, ((n + f) // 2,) * 2),
                          ("syevr", np.float64, ((n - f) // 2,) * 2)]
    # Im lambda is c itself, +0.0 for c = 0
    assert [(p.value.imag, np.signbit(p.value.imag)) for p in pairs] == \
        [(c, np.signbit(c))] * n
    assert all(not p.vector.imag.any() for p in pairs)
    dense = eig_general(op.matrix)
    for p, q in zip(pairs, dense, strict=True):
        assert abs(p.value - q.value) <= 1e-12 * (1.0 + abs(p.value))
        assert abs(p.residual - q.residual) <= 1e-12 * (1.0 + abs(p.value))
    a = op.matrix
    bound = DEFAULT_TOLERANCES.eig * (1.0 + op.frobenius)
    for p in pairs:
        assert p.residual <= bound
        direct = np.linalg.norm(a @ p.vector - p.value * p.vector)
        assert abs(direct - p.residual) <= 1e-13 * (1.0 + abs(p.value))
        assert abs(np.linalg.norm(p.vector) - 1.0) < 1e-13


def test_scaled_normal_chain_is_handed_to_lapack_scaled():
    assert NORMAL[-1].values[0].lapack_scale == 2.0 ** 83
