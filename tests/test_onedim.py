"""Transfer-matrix propagation and shooting."""

import math

import pytest

from specrange.exceptions import (BandRegimeError, BlowupError,
                                  DecayCertificateError)
from specrange.model import (ConstantPotential, LatticeBox,
                             SeededRandomPotential, TablePotential)
from specrange.onedim import propagate, shooting_l2_test

FREE = TablePotential({})


def test_propagate_matches_chebyshev_oracle():
    t = math.pi / 5
    lam = 2 * math.cos(t)
    tr = propagate(FREE, lam, seed=(0.0, 1.0), anchor=0, rng=(-20, 50))
    for n in range(-20, 51):
        oracle = math.sin(n * t) / math.sin(t)
        assert abs(tr.value_at(n) - oracle) < 1e-10


def test_wronskian_of_two_solutions_is_constant():
    box = LatticeBox(1, ((-25, 25),))
    pot = SeededRandomPotential(5, box, (-0.7, 0.7), (-0.3, 0.5))
    lam = 0.37 - 0.21j
    u = propagate(pot, lam, seed=(1.0, 0.0), anchor=0, rng=(-25, 25))
    v = propagate(pot, lam, seed=(0.0, 1.0), anchor=0, rng=(-25, 25))
    w = [u.value_at(n + 1) * v.value_at(n) - u.value_at(n) * v.value_at(n + 1)
         for n in range(-25, 25)]
    assert max(abs(x - w[0]) for x in w) < 1e-10
    # u(1)v(0) - u(0)v(1) = -1 for the standard basis seeds at 0
    assert abs(w[0] + 1.0) < 1e-12


def test_propagate_respects_potential_on_both_sides():
    pot = TablePotential({(-3,): 1.5 - 0.5j, (2,): -0.75j})
    lam = 0.4 + 0.1j
    tr = propagate(pot, lam, seed=(0.3, -0.2j), anchor=0, rng=(-8, 8))
    assert tr.residual_max(pot) < 1e-13


def test_propagate_blowup_reports_site():
    with pytest.raises(BlowupError) as e:
        propagate(FREE, 4.0, seed=(0.0, 1.0), anchor=0, rng=(0, 700))
    # |x_n| ~ (2+sqrt(3))^n crosses 1e300 near n = 524
    assert abs(e.value.site - 524) < 6


def test_normalized_propagation_never_overflows_and_tracks_scale():
    tr = propagate(FREE, 4.0, seed=(0.0, 1.0), anchor=0, rng=(0, 2000),
                   normalize=True)
    slope = (tr.log_magnitude(2000) - tr.log_magnitude(1000)) / 1000.0
    assert abs(slope - math.log(2 + math.sqrt(3))) < 1e-9


def test_shooting_accepts_the_bound_state():
    pot = TablePotential({(0,): -3.0})
    res = shooting_l2_test(pot, -math.sqrt(13.0), window=30)
    assert res.compatible
    assert res.mismatch < 1e-9
    assert abs(abs(res.contractive_ratio) - (math.sqrt(13.0) - 3) / 2) < 1e-12


def test_shooting_rejects_off_eigenvalue():
    pot = TablePotential({(0,): -3.0})
    res = shooting_l2_test(pot, -math.sqrt(13.0) + 0.1, window=30)
    assert not res.compatible
    assert res.mismatch > 1e-3


def test_shooting_refuses_band_regime():
    with pytest.raises(BandRegimeError):
        shooting_l2_test(TablePotential({(0,): -3.0}), 1.3, window=30)


def test_shooting_requires_decaying_tail():
    with pytest.raises(DecayCertificateError):
        shooting_l2_test(ConstantPotential(0.5), -3.5, window=30)

