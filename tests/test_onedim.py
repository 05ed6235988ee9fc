"""Transfer-matrix propagation, the tail ratio and shooting."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specrange.construct import contractive_tail_ratio
from specrange.exceptions import (BandRegimeError, BlowupError,
                                  DecayCertificateError, SpecrangeError)
from specrange.model import (ConstantPotential, LatticeBox,
                             SeededRandomPotential, TablePotential)
from specrange.onedim import contractive_ratio, propagate, shooting_l2_test

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


def test_residual_max_matches_the_sitewise_loop():
    # a growing trace with rescales, so stencils across a scale change drop;
    # measured against the free chain, the residual is |d(n) u(n)|-sized
    box = LatticeBox(1, ((-300, 300),))
    pot = SeededRandomPotential(3, box, (-0.7, 0.7), (-0.3, 0.5))
    tr = propagate(pot, 4.1 + 0.2j, seed=(1.0, 0.5), anchor=0,
                   rng=(-300, 300))
    assert tr.log_scale.max() > 0.0
    u, s, peak = tr.values, tr.log_scale, abs(tr.values).max()
    worst = max(abs(u[i - 1] - tr.lam * u[i] + u[i + 1]) / peak
                for i in range(1, len(u) - 1) if s[i - 1] == s[i] == s[i + 1])
    assert worst > 0.1
    assert tr.residual_max(FREE) == pytest.approx(worst, rel=1e-12)


def test_normalized_propagation_never_overflows_and_tracks_scale():
    tr = propagate(FREE, 4.0, seed=(0.0, 1.0), anchor=0, rng=(0, 2000))

    def log_u(n):  # log|u(n)|: log|values| plus the tracked scale
        i = tr.index(n)
        return math.log(abs(tr.values[i])) + float(tr.log_scale[i])

    slope = (log_u(2000) - log_u(1000)) / 1000.0
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


ANGLE = st.sampled_from([0.0, math.pi / 2, math.pi]) | st.floats(-math.pi,
                                                                 math.pi)


@given(st.floats(math.log(3.0), math.log(1e150)), ANGLE)
def test_contractive_ratio_solves_its_quadratic_off_the_band(log_mod, angle):
    lam = cmath.rect(math.exp(log_mod), angle)
    r = contractive_ratio(lam)
    assert abs(r) < 1.0
    assert abs(r + 1.0 / r - lam) <= 1e-12 * abs(lam)


@given(st.floats(2.0, 1e150, exclude_min=True), st.sampled_from([1.0, -1.0]))
def test_contractive_ratio_is_the_designers_tail_ratio_on_real_a(mod, sign):
    a = sign * mod
    assert contractive_ratio(a).real == contractive_tail_ratio(a)


@pytest.mark.parametrize("lam", [1e200, -1e200, 1e300, -1e300, 1e300j,
                                 -1e300 + 1e300j, -1.7976931348623157e308])
def test_contractive_ratio_beyond_the_square_overflow(lam):
    # lambda^2 overflows here; the scaled root keeps r = 1/lambda to an ulp
    assert abs(contractive_ratio(lam) * lam - 1.0) <= 2.5e-16


@pytest.mark.parametrize("lam", [-1e200, 1e300, -1e300 + 1e300j])
def test_shooting_decides_lambda_beyond_the_square_overflow(lam):
    # the free operator has no eigenvalue there, and the test says so
    res = shooting_l2_test(FREE, lam, window=30)
    assert not res.compatible
    assert abs(res.contractive_ratio * lam - 1.0) <= 2.5e-16


@pytest.mark.parametrize("lam", [complex("inf"), complex("nan"),
                                 complex(1.0, float("inf"))])
def test_shooting_refuses_a_lambda_without_a_ratio(lam):
    with pytest.raises(SpecrangeError) as e:
        shooting_l2_test(FREE, lam, window=30)
    assert not isinstance(e.value, BandRegimeError)
    assert "not representable" in str(e.value)


@pytest.mark.parametrize("entries", [{(0,): 1e300}, {(0,): -1e300},
                                     {(-1,): 1e300, (1,): -1e300}])
def test_shooting_through_entries_near_the_float_limit_blows_up(entries):
    with pytest.raises(BlowupError) as e:
        shooting_l2_test(TablePotential(entries), -3.0, window=30)
    assert e.value.site in (-1, 0, 1)
