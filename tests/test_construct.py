"""Counterexample design: eigenfunction recipe, extracted potentials, and
the certified end-to-end build."""

import math
import re

import numpy as np
import pytest

from specrange.classify import NormalityVerdict, SplitVerdict
from specrange.construct import (CounterexampleBuild, build_counterexample,
                                 contractive_tail_ratio, design_eigenfunction,
                                 designed_potential,
                                 real_potential_from_eigenfunction,
                                 symmetric_box)
from specrange.exceptions import CertificationError, DesignError
from specrange.model import ConstantPotential, SumPotential, TablePotential


def test_contractive_ratio_solves_quadratic_exactly():
    r = contractive_tail_ratio(-2.5)
    assert r == -0.5
    assert r + 1.0 / r == -2.5
    r2 = contractive_tail_ratio(3.0)
    assert abs(r2 - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-15
    assert abs(r2) < 1.0
    for a in (2.0, -2.0, 0.5, 0.0):
        with pytest.raises(DesignError):
            contractive_tail_ratio(a)


@pytest.mark.parametrize("a", [1e8, -1e10, 1e100, -1e150])
def test_contractive_ratio_keeps_its_precision_for_large_a(a):
    # r = 1/a up to a relative 1/a^2, below an ulp at these a
    assert contractive_tail_ratio(a) == 1.0 / a


def test_contractive_ratio_refuses_a_beyond_its_range():
    with pytest.raises(DesignError):
        contractive_tail_ratio(1e200)


def test_design_without_zeros_is_pure_geometric():
    u = design_eigenfunction(-2.5, [], window=(-6, 6))
    for n in range(-9, 10):
        assert abs(u.value_at(n) - (-0.5) ** abs(n)) < 1e-15
    assert u.peak == 1.0
    assert u.zeros == ()


def test_designed_zeros_are_zeros_and_recurrence_holds_off_them():
    u = design_eigenfunction(-2.5, [0, 4], window=(-8, 8))
    assert u.value_at(0) == 0.0 and u.value_at(4) == 0.0
    a = -2.5
    for n in range(-12, 13):
        if n in (0, 4):
            # at a designed zero the neighbor sum must cancel on its own
            assert abs(u.value_at(n - 1) + u.value_at(n + 1)) < 1e-12
        elif n - 1 not in (0, 4) and n + 1 not in (0, 4):
            res = u.value_at(n - 1) + u.value_at(n + 1) - a * u.value_at(n)
            assert abs(res) < 1e-12


def test_design_rejects_bad_zero_placement():
    with pytest.raises(DesignError):
        design_eigenfunction(-2.5, [0, 1], window=(-5, 5))  # adjacent
    with pytest.raises(DesignError):
        design_eigenfunction(-2.5, [-5], window=(-5, 5))  # on the edge
    with pytest.raises(DesignError):
        design_eigenfunction(-2.5, [9], window=(-5, 5))  # outside


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_design_refuses_non_finite_input(x):
    u = design_eigenfunction(-2.5, [0], window=(-10, 10))
    with pytest.raises(DesignError):
        contractive_tail_ratio(x)
    with pytest.raises(DesignError):
        designed_potential(u, real_potential_from_eigenfunction(u, -2.5), x)


@pytest.mark.parametrize("z", [520, 600, 1100, -600, -1100])
def test_design_refuses_a_zero_its_amplitudes_cannot_reach(z):
    # r = -0.5: the amplitude across a zero z grows like 2^(2|z|), past
    # float64 (or, left of the origin, below it) some 512 sites out
    window = (min(-10, z - 1), max(10, z + 1))
    with pytest.raises(DesignError, match="not representable in float64"):
        design_eigenfunction(-2.5, [z], window=window)


def test_real_potential_lives_on_zero_neighbors_only():
    u = design_eigenfunction(-2.5, [0], window=(-10, 10))
    re_spec = real_potential_from_eigenfunction(u, -2.5)
    entries = dict(re_spec.entries)
    # Re d = 1/r = -2 at the two neighbors of the zero, nothing elsewhere
    assert set(entries) == {(-1,), (1,)}
    assert entries[(-1,)] == pytest.approx(-2.0, abs=1e-12)
    assert entries[(1,)] == pytest.approx(-2.0, abs=1e-12)
    assert u.stencil_residual(re_spec, -2.5) < 1e-12


def test_stencil_residual_matches_the_sitewise_loop():
    u = design_eigenfunction(3.0, [-3, 2, 6], window=(-10, 10))
    re_spec = TablePotential({(n,): 0.01 * n for n in range(-11, 12)})
    worst = max(abs(u.value_at(n - 1) + (re_spec.value((n,)).real - 3.0)
                    * u.value_at(n) + u.value_at(n + 1))
                for n in range(-10, 11))
    assert u.stencil_residual(re_spec, 3.0) == worst / u.peak


def test_real_potential_ratio_cap_refuses_spiky_designs():
    # the neighbor ratio is a itself on the tails, above RATIO_CAP = 1e3
    u = design_eigenfunction(1e4, [0], window=(-10, 10))
    with pytest.raises(DesignError, match="site -10 .* above the cap"):
        real_potential_from_eigenfunction(u, 1e4)


def test_imag_potential_structure_and_degenerate_warning():
    u = design_eigenfunction(-2.5, [0], window=(-10, 10))
    spec = designed_potential(u, real_potential_from_eigenfunction(u, -2.5),
                              1.0)
    assert isinstance(spec, SumPotential)
    sites = np.array([[-50], [-1], [0], [1], [50]])
    assert list(spec.values(sites).imag) == [1.0, 1.0, 0.0, 1.0, 1.0]
    with pytest.raises(DesignError):
        designed_potential(u, real_potential_from_eigenfunction(u, -2.5), 0.0)
    flat = design_eigenfunction(-2.5, [], window=(-6, 6))
    with pytest.warns(UserWarning):
        spec2 = designed_potential(
            flat, real_potential_from_eigenfunction(flat, -2.5), 0.7)
    assert ConstantPotential(0.7j) in spec2.terms
    assert list(spec2.values(sites).imag) == [0.7] * 5


def test_combined_potential_values_match_design():
    u = design_eigenfunction(-2.5, [0], window=(-10, 10))
    pot = designed_potential(u, real_potential_from_eigenfunction(u, -2.5),
                             1.0)
    ns = np.array([[-1], [0], [1], [7]], dtype=np.int64)
    vals = pot.values(ns)
    assert vals[0] == -2.0 + 1.0j
    assert vals[1] == 0.0  # zero site: imaginary part cancelled exactly
    assert vals[2] == -2.0 + 1.0j
    assert vals[3] == 1.0j


def test_symmetric_box_centers_odd_counts():
    assert symmetric_box(101).ranges == ((-50, 50),)
    assert symmetric_box(5).ranges == ((-2, 2),)
    assert symmetric_box(4).ranges == ((-1, 2),)


def test_build_counterexample_certifies_the_designed_eigenvalue():
    build = build_counterexample(-2.5, 1.0, [0], n_sites=101, n_angles=360)
    assert isinstance(build, CounterexampleBuild)
    lam = build.classification.pair.value
    assert abs(lam - (-2.5 + 1.0j)) < 1e-9
    assert build.classification.is_boundary
    assert build.classification.normality is NormalityVerdict.CERTIFIED_NORMAL
    assert build.classification.split is SplitVerdict.CERTIFIED
    assert build.classification.certified
    # hull confined to the designed strip
    assert np.asarray(build.hull.vertices()).imag.max() <= 1.0 + 1e-8
    assert np.asarray(build.hull.vertices()).imag.min() >= -1e-8


@pytest.mark.filterwarnings("ignore:eigenfunction has no zeros")
def test_build_counterexample_window_must_fit_strictly():
    # the window holds (-10, 10) and every zero with one site to spare, so
    # the 21-site box [-10, 10] never holds it strictly
    for zeros, window in [([0], "[-10, 10]"), ([], "[-10, 10]"),
                          ([-9, 9], "[-10, 10]"), ([-3, 2, 6], "[-10, 10]"),
                          ([15], "[-10, 16]"), ([-12, 0], "[-13, 10]")]:
        with pytest.raises(DesignError, match=re.escape(window)):
            build_counterexample(-2.5, 1.0, zeros, n_sites=21)


def test_build_counterexample_small_box_fails_certification():
    # a = -2.05 decays slowly (|r| ~ 0.8): 23 sites leave the tails too
    # heavy at the box edge for the designed eigenvalue to survive
    with pytest.raises(CertificationError) as e:
        build_counterexample(-2.05, 1.0, [0], n_sites=23, n_angles=360)
    assert "eigenvalue_gap" in e.value.residuals


def test_build_is_deterministic():
    b1 = build_counterexample(-2.5, 1.0, [0], n_sites=61, n_angles=360)
    b2 = build_counterexample(-2.5, 1.0, [0], n_sites=61, n_angles=360)
    assert np.array_equal(b1.operator.matrix, b2.operator.matrix)
    assert b1.classification.pair.value == b2.classification.pair.value
