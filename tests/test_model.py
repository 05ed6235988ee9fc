"""Lattice boxes, potential kinds, and operator assembly."""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specrange.exceptions import DimensionLimitError
from specrange.model import (Alternating1DPotential, ConstantPotential,
                             GeometricDecayPotential, LatticeBox,
                             OperatorMatrix, PowerDecayPotential,
                             SeededRandomPotential, SumPotential,
                             TablePotential, assemble, trivial_swap)


# ---------------------------------------------------------------------------
# boxes


def test_box_enumeration_is_lexicographic():
    box = LatticeBox(2, ((-1, 1), (0, 1)))
    assert box.site_count == 6
    sites = [tuple(s) for s in box.sites]
    assert sites == [(-1, 0), (-1, 1), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_box_index_site_bijection():
    box = LatticeBox(2, ((-2, 2), (-1, 3)))
    assert len(box.sites) == box.site_count
    assert [tuple(s) for s in box.sites] == list(
        itertools.product(range(-2, 3), range(-1, 4)))
    # the strides map each site to its index in that order
    lo = np.array([lo for lo, _ in box.ranges])
    assert np.array_equal((box.sites - lo) @ np.array(box.strides),
                          np.arange(box.site_count))


def test_box_rejects_empty_axis_and_rank_mismatch():
    with pytest.raises(ValueError):
        LatticeBox(1, ((3, 2),))
    with pytest.raises(ValueError):
        LatticeBox(2, ((0, 1),))


# ---------------------------------------------------------------------------
# assembly


def test_assemble_free_1d_is_tridiagonal():
    box = LatticeBox(1, ((0, 4),))
    op = assemble(box, TablePotential({}))
    expected = np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1)
    assert np.array_equal(op.matrix, expected.astype(np.complex128))


def test_assemble_2d_adjacency():
    box = LatticeBox(2, ((0, 1), (0, 1)))
    op = assemble(box, TablePotential({}))
    m = op.matrix.real
    # sites (0,0),(0,1),(1,0),(1,1); neighbors differ in one coordinate by 1
    assert m[0, 1] == 1 and m[0, 2] == 1 and m[0, 3] == 0
    assert m[1, 3] == 1 and m[2, 3] == 1 and m[1, 2] == 0
    assert np.array_equal(m, m.T)


def test_assemble_places_potential_on_diagonal():
    box = LatticeBox(1, ((-2, 2),))
    pot = TablePotential({(-1,): 2.0 - 1.0j, (2,): 0.5j})
    op = assemble(box, pot)
    diag = dict(zip(map(tuple, box.sites.tolist()), np.diag(op.matrix)))
    assert diag[(-1,)] == 2.0 - 1.0j
    assert diag[(2,)] == 0.5j
    assert diag[(0,)] == 0.0
    assert op.box is box


def test_assemble_enforces_dimension_cap():
    box = LatticeBox(1, ((0, 99),))
    with pytest.raises(DimensionLimitError):
        assemble(box, TablePotential({}), max_dim=50)


def test_operator_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)))


def dense_assembly(box, pot):
    """Reference: the hopping pairs and the diagonal written into an n x n
    array, as assembly stored the operator before it kept only d."""
    n = box.site_count
    m = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n).reshape(box.shape)
    for axis in range(box.nu):
        a = np.moveaxis(idx, axis, 0)[:-1].ravel()
        b = np.moveaxis(idx, axis, 0)[1:].ravel()
        m[a, b] = m[b, a] = 1.0
    m[np.arange(n), np.arange(n)] = pot.values(box.sites)
    return m


STENCIL_BOXES = [((-3, 3),), ((0, 0),), ((0, 4), (2, 2)), ((2, 2), (0, 4)),
                 ((-2, 2), (0, 6)), ((0, 2), (5, 5), (-1, 2)),
                 ((0, 2), (0, 1), (-1, 2)), ((0, 0), (0, 0), (0, 0))]


@pytest.mark.parametrize("ranges", STENCIL_BOXES,
                         ids=lambda r: "x".join(str(hi - lo + 1)
                                                for lo, hi in r))
def test_lattice_operator_is_the_dense_assembly(ranges):
    # the operator keeps the box and d; every member agrees with the dense
    # matrix, the stencil products with f A^T and A* f to 1e-15 relative
    box = LatticeBox(len(ranges), ranges)
    pot = SumPotential((SeededRandomPotential(7, box, (-1.5, 1.5), (0.0, 1.0)),
                        ConstantPotential(0.25 - 0.5j)))
    op = assemble(box, pot)
    m = dense_assembly(box, pot)
    assert np.array_equal(op.matrix, m)
    assert op.matrix is not op.matrix  # built on each read, not kept
    # the trivial exchange's even block is A itself, its odd one empty
    swap = trivial_swap(op.dim)
    buf = np.full((op.dim, op.dim), np.nan + 0j, order="F")
    op.fill_blocks(swap, buf, buf[:0, :0])
    assert np.array_equal(buf, m)
    # into a real buffer, the real part alone
    re = np.full((op.dim, op.dim), np.nan, order="F")
    op.fill_blocks(swap, re, re[:0, :0])
    assert np.array_equal(re, m.real)
    assert np.array_equal(op.diagonal, np.diagonal(m))
    assert op.frobenius == pytest.approx(np.linalg.norm(m), rel=1e-15)
    i, j = np.nonzero(np.triu(m, 1))
    assert op.bandwidth == (int((j - i).max()) if len(i) else 0)
    hop = np.zeros((op.dim, op.dim))
    for stride, i in op.hops():
        hop[i + stride, i] += 1.0
        hop[i, i + stride] += 1.0
    assert np.array_equal(m - np.diag(np.diagonal(m)), hop)
    rng = np.random.default_rng(len(ranges))
    f = rng.normal(size=(5, op.dim)) + 1j * rng.normal(size=(5, op.dim))
    af, ahf = op.products(f)
    for got, ref in ((af, f @ m.T), (ahf, f @ m.conj())):
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    assert np.array_equal(op.apply(f), af)
    explicit = OperatorMatrix(m)
    assert np.array_equal(explicit.apply(f), explicit.products(f)[0])


@pytest.mark.parametrize("potential, shift", [
    (TablePotential({}), 0.0),
    (ConstantPotential(complex(0.5, -0.0)), 0.0),
    (ConstantPotential(0.25 - 0.5j), -0.5),
    (SumPotential((GeometricDecayPotential(0.6, 0.5),
                   ConstantPotential(0.25j))), 0.25),
    (GeometricDecayPotential(0.4 + 0.7j, 0.6), None),
    (PowerDecayPotential(0.3j, 2.0, parity="even"), None),
])
def test_normal_shift_is_the_constant_imaginary_part(potential, shift):
    # A = J + diag(d) is normal exactly when Im d is constant on the box,
    # whose hops connect every site; -0.0 reads as +0.0
    op = assemble(LatticeBox(2, ((-2, 2), (0, 3))), potential)
    assert op.normal_shift == shift
    if shift is not None:
        assert np.signbit(op.normal_shift) == (shift < 0)
        re, im = op.matrix.real, op.matrix.imag
        assert np.array_equal(re @ im, im @ re)


def test_explicit_matrix_is_never_taken_for_normal():
    # the type does not say that A is normal, and no entries are scanned
    op = assemble(LatticeBox(1, ((0, 5),)), ConstantPotential(0.5j))
    assert op.normal_shift == 0.5
    assert OperatorMatrix(op.matrix).normal_shift is None
    assert OperatorMatrix(np.eye(3)).normal_shift is None


def test_lattice_operator_with_real_potential_is_hermitian():
    box = LatticeBox(2, ((0, 3), (0, 2)))
    op = assemble(box, ConstantPotential(-0.7))
    assert op.scale == 1.0
    assert op.frobenius == pytest.approx(
        np.linalg.norm(dense_assembly(box, ConstantPotential(-0.7))),
        rel=1e-15)


# ---------------------------------------------------------------------------
# potential kinds


def sites_1d(*ns):
    return np.array([[n] for n in ns], dtype=np.int64)


def test_table_accepts_mapping_and_pairs():
    t1 = TablePotential({(0,): 1.0j, (3,): -2.0})
    t2 = TablePotential((((0,), 1.0j), ((3,), -2.0)))
    ns = sites_1d(-1, 0, 3)
    assert np.array_equal(t1.values(ns), t2.values(ns))
    assert list(t1.values(ns)) == [0.0, 1.0j, -2.0]
    assert t1.tail_info().radius == 3
    assert t1.tail_info().base == 0.0


INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1
COORD = st.one_of(st.integers(-3, 3), st.integers(INT64_MIN, INT64_MAX),
                  st.sampled_from([INT64_MIN, INT64_MAX, 2 ** 63, -2 ** 63 - 1,
                                   2 ** 70]))
FAR_13 = tuple((-1) ** j * (2 ** 62 - j) for j in range(13))


@st.composite
def table_and_sites(draw):
    """A table and int64 query sites: its entries that fit int64, their
    neighbours along the first axis, and arbitrary sites."""
    nu = draw(st.integers(1, 13))
    entries = draw(st.dictionaries(st.tuples(*[COORD] * nu),
                                   st.complex_numbers(), max_size=6))
    sites = [s for s in entries if all(INT64_MIN <= c <= INT64_MAX for c in s)]
    sites += [(s[0] + step,) + s[1:] for s in sites for step in (-1, 1)
              if INT64_MIN <= s[0] + step <= INT64_MAX]
    anywhere = st.integers(INT64_MIN, INT64_MAX)
    sites += draw(st.lists(st.tuples(*[anywhere] * nu), max_size=4))
    return entries, np.array(sites, dtype=np.int64).reshape(len(sites), nu)


@settings(deadline=None)
@given(table_and_sites())
@example(({(2 ** 70,): 1j, (0,): 2.0}, sites_1d(0, 1, INT64_MAX)))
@example(({}, sites_1d(-1, 0, 1)))
@example(({FAR_13: 1j, tuple(-c for c in FAR_13): -2.0, (0,) * 13: 3.0},
          np.array([FAR_13, [-c for c in FAR_13], [0] * 13, [1] * 13],
                   dtype=np.int64)))
def test_table_values_match_a_dict_lookup_bit_for_bit(case):
    entries, sites = case
    pot = TablePotential(entries)
    table = dict(pot.entries)
    ref = np.array([table.get(tuple(s), 0.0) for s in sites.tolist()],
                   dtype=np.complex128)
    got = pot.values(sites)
    assert got.dtype == np.complex128
    assert got.tobytes() == ref.tobytes()


def test_constant_tail_base_is_the_constant():
    c = ConstantPotential(0.5 + 0.25j)
    tail = c.tail_info()
    assert tail.base == 0.5 + 0.25j
    assert tail.im_sup_beyond(100) == 0.0
    assert np.all(c.values(sites_1d(-7, 0, 9)) == 0.5 + 0.25j)


def test_power_decay_formula_and_parity():
    p = PowerDecayPotential(amplitude=2.0 + 1.0j, exponent=3.0)
    vals = p.values(sites_1d(0, 1, -2))
    assert vals[0] == 2.0 + 1.0j
    assert vals[1] == (2.0 + 1.0j) / 2.0
    assert vals[2] == (2.0 + 1.0j) / 9.0
    masked = PowerDecayPotential(amplitude=1.0j, exponent=2.0, parity="even")
    mv = masked.values(sites_1d(0, 1, 2, 3))
    assert mv[0] != 0 and mv[2] != 0
    assert mv[1] == 0 and mv[3] == 0


def test_power_decay_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        PowerDecayPotential(amplitude=1.0, exponent=0.0)


def test_geometric_decay_formula_and_ratio_domain():
    g = GeometricDecayPotential(amplitude=1.0 - 1.0j, ratio=-0.5)
    vals = g.values(sites_1d(0, 1, 2))
    assert vals[0] == 1.0 - 1.0j
    assert vals[1] == (1.0 - 1.0j) * -0.5
    assert vals[2] == (1.0 - 1.0j) * 0.25
    with pytest.raises(ValueError):
        GeometricDecayPotential(amplitude=1.0, ratio=1.0)


def test_tail_envelope_dominates_actual_values():
    for pot in (PowerDecayPotential(amplitude=0.7 - 0.2j, exponent=2.5),
                GeometricDecayPotential(amplitude=0.4 + 0.9j, ratio=0.6),
                TablePotential({(2,): 1.0j}),
                ConstantPotential(0.1 + 0.1j)):
        tail = pot.tail_info()
        ns = sites_1d(*range(tail.radius + 1, tail.radius + 40))
        dev = pot.values(ns) - tail.base
        for k, s in enumerate(ns[:, 0]):
            assert abs(dev[k].imag) <= tail.im_sup_beyond(int(s)) + 1e-15
            re_envelope = sum(b.at(int(s)) for b in tail.re_dev)
            assert abs(dev[k].real) <= re_envelope + 1e-15


def test_alternating_pattern_and_declaration():
    alt = Alternating1DPotential(b_even=0.25, b_odd=-1.0)
    vals = alt.values(sites_1d(-2, -1, 0, 1))
    assert np.array_equal(vals, np.array([0.25j, -1.0j, 0.25j, -1.0j]))
    assert alt.im_alternating() == (0.25, -1.0)
    with pytest.raises(ValueError):
        alt.values(np.zeros((2, 2), dtype=np.int64))


def test_seeded_random_is_deterministic_and_in_range():
    box = LatticeBox(1, ((-5, 5),))
    a = SeededRandomPotential(99, box, (-0.25, 0.5), (0.1, 0.9))
    b = SeededRandomPotential(99, box, (-0.25, 0.5), (0.1, 0.9))
    ns = sites_1d(*range(-8, 9))
    va, vb = a.values(ns), b.values(ns)
    assert np.array_equal(va, vb)
    inside = (np.abs(ns[:, 0]) <= 5)
    assert np.all(va[~inside] == 0.0)
    assert np.all(va[inside].real >= -0.25) and np.all(va[inside].real <= 0.5)
    assert np.all(va[inside].imag >= 0.1) and np.all(va[inside].imag <= 0.9)
    other = SeededRandomPotential(100, box, (-0.25, 0.5), (0.1, 0.9))
    assert not np.array_equal(va, other.values(ns))


def test_seeded_random_is_a_function_of_the_site():
    # per-site draws: value at a site does not depend on the query batch
    box = LatticeBox(1, ((-5, 5),))
    pot = SeededRandomPotential(7, box, (-1.0, 1.0), (0.0, 1.0))
    full = pot.values(sites_1d(*range(-5, 6)))
    single = pot.values(sites_1d(3))
    assert single[0] == full[8]


def test_seeded_random_gives_every_site_its_own_value():
    # Philox counters of sites with a coordinate >= 0 are >= 2**63; they
    # must not collapse onto one shared draw
    box = LatticeBox(2, ((-2, 2), (-2, 2)))
    pot = SeededRandomPotential(3, box, (-1.0, 1.0), (0.0, 1.0))
    assert len(set(pot.values(box.sites).tolist())) == box.site_count
    # sites whose coordinates are all negative always had their own counter
    assert pot.value((-2, -1)) == -0.19365529257910108 + 0.2487787451724367j
    assert pot.value((-1, -2)) == 0.440810207525979 + 0.6152236166583348j


@pytest.mark.parametrize("bound", [1e308, sys.float_info.max])
def test_seeded_draws_stay_finite_when_the_range_width_overflows(bound):
    # hi - lo is infinite here; the draws must still lie in [lo, hi]
    box = LatticeBox(2, ((-3, 3), (-2, 2)))
    pot = SeededRandomPotential(11, box, (-bound, bound), (-bound, bound))
    vals = pot.values(box.sites)
    for part in (vals.real, vals.imag):
        assert np.all(np.isfinite(part))
        assert np.all((-bound <= part) & (part <= bound))
    assert len(set(vals.tolist())) == box.site_count


def grid(*axes):
    """All integer sites of the product of the given coordinate ranges."""
    mesh = np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in axes],
                       indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(np.int64)


@pytest.mark.parametrize("carrier,query", [
    (((-3, 4),), ((-9, 9),)),  # straddles the carrier
    (((2, 6),), ((-40, -30),)),  # entirely outside, negative coordinates
    (((-4, -1), (0, 3)), ((-7, 2), (-2, 5))),
    (((-2, 2), (-3, 1)), ((5, 8), (-9, -6))),
    (((-1, 1), (0, 2), (-2, 0)), ((-3, 2), (-1, 3), (-3, 1))),
    (((0, 1), (0, 1), (0, 1)), ((-5, -3), (2, 3), (-1, 0))),
])
def test_seeded_values_equal_per_site_draws(carrier, query):
    box = LatticeBox(len(carrier), carrier)
    pot = SeededRandomPotential(29, box, (-0.7, 0.3), (-0.2, 0.9))
    sites = grid(*query)
    inside = np.all([(sites[:, j] >= lo) & (sites[:, j] <= hi)
                     for j, (lo, hi) in enumerate(carrier)], axis=0)
    ref = np.array([pot._site_value(tuple(int(c) for c in s)) if ok else 0j
                    for s, ok in zip(sites, inside)], dtype=np.complex128)
    assert np.array_equal(pot.values(sites), ref)
    empty = pot.values(np.zeros((0, box.nu), dtype=np.int64))
    assert empty.shape == (0,) and empty.dtype == np.complex128


def test_seeded_summaries_read_the_carrier_values():
    box = LatticeBox(1, ((-3, 4),))
    pot = SeededRandomPotential(5, box, (-0.5, 0.25), (0.0, 0.75))
    draws = [pot._site_value((k,)) for k in range(-3, 5)]
    assert all(v.imag > 0.0 for v in draws)  # no parity class is free of Im d
    assert pot.im_support_parity() is None
    flat = SeededRandomPotential(5, box, (-0.5, 0.25), (0.0, 0.0))
    assert flat.im_support_parity() == "zero"


def test_site_dimension_mismatch_is_a_value_error():
    box1, box2 = LatticeBox(1, ((-2, 2),)), LatticeBox(2, ((-1, 1), (0, 1)))
    seeded2 = SeededRandomPotential(1, box2, (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        seeded2.values(box1.sites)
    for pot in (seeded2, TablePotential({(0, 0): 1j}),
                Alternating1DPotential(0.5, -0.5),
                SumPotential((ConstantPotential(1j), seeded2))):
        wrong = box1 if pot.site_dim == 2 else box2
        with pytest.raises(ValueError):
            assemble(wrong, pot)
    with pytest.raises(ValueError):
        TablePotential({(0,): 1j, (1, 1): 1.0})
    with pytest.raises(ValueError):
        SumPotential((TablePotential({(0,): 1j}), seeded2))
    # kinds defined on every Z^nu, and the empty table, fit any box
    for pot in (ConstantPotential(1j), TablePotential({}),
                GeometricDecayPotential(1j, 0.5)):
        assert pot.site_dim is None
        assemble(box1, pot)
        assemble(box2, pot)


def test_sum_potential_is_additive_and_composes_tails():
    s = SumPotential((ConstantPotential(1.0j),
                      TablePotential({(0,): -1.0j, (4,): 0.5})))
    ns = sites_1d(-1, 0, 4, 11)
    assert list(s.values(ns)) == [1.0j, 0.0, 0.5 + 1.0j, 1.0j]
    tail = s.tail_info()
    assert tail.base == 1.0j
    assert tail.radius == 4


# ---------------------------------------------------------------------------
# package exports


def test_package_exports_resolve_and_omit_deleted_names():
    import specrange
    assert len(set(specrange.__all__)) == len(specrange.__all__)
    for name in specrange.__all__:
        assert hasattr(specrange, name), name
    for name in ("Provenance", "real_part", "imag_part", "support_function",
                 "ContinuationResult", "unique_continuation_check",
                 "trace_from_vector", "imag_potential_from_support",
                 "combined_potential", "contractive_ratio",
                 "designed_potential", "check_level_set_empty",
                 "check_halfspace_support", "check_direction_decay",
                 "check_full_decay", "check_pair_condition",
                 "check_alternating", "check_real_window",
                 "check_summability", "certify", "support_extent",
                 "box_limited", "EmptySupportError"):
        assert name not in specrange.__all__
        assert not hasattr(specrange, name), name
