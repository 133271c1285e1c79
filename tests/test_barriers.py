import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fkpplab.barriers import (
    BarrierParams,
    discrete_residual,
    generation_sub,
    generation_super,
    global_super,
    k0_lower_bound,
    m1_recipe,
    motion_sub,
    radial_sub_W,
    xi_eps,
)
from fkpplab.errors import ConfigurationError, DomainError
from fkpplab.geometry import ConvexBody, CutoffDistance
from fkpplab.grids import Grid
from fkpplab.kinetics import KineticsParams, eps_log
from fkpplab.solver import InitialData, compact_value
from fkpplab.studies import _kink_mask, cached_wave

EPS = 0.02
BODY = ConvexBody.interval(-0.5, 0.5)
INIT = InitialData.compact(BODY, amplitude=0.9, width=0.25)
KIN = KineticsParams(EPS)
BP = BarrierParams(K=3.0)


def test_generation_sub_at_time_zero_is_g():
    x = np.linspace(-1.5, 1.5, 101)
    sub = generation_sub(0.0, x, BP, KIN, INIT, EPS)
    assert np.allclose(sub, compact_value(INIT, x), atol=1e-14)


def test_generation_sub_vanishes_outside_support():
    for x in (0.75, 2.0, -1.1):
        for t in (0.0, 0.5 * eps_log(EPS)):
            assert generation_sub(t, x, BP, KIN, INIT, EPS) == 0.0


def test_generation_super_constant_and_relaxing():
    init = InitialData.compact(BODY, amplitude=0.9, width=0.25, tail=(1.0, 0.1))
    assert generation_super(0.0, BP, KIN, init, EPS) == pytest.approx(1.0)
    t_gen = 2.0 * eps_log(EPS)
    assert generation_super(t_gen, BP, KIN, init, EPS) <= 1.0 + EPS


def test_k0_lower_bound_arithmetic():
    wave = cached_wave(2.0)
    tail_free = InitialData.compact(BODY, amplitude=1.0, width=0.25)
    # M = 0: max(1, 2*(1+0)) with U(0) = 1/2
    assert k0_lower_bound(wave, tail_free) == pytest.approx(2.0, rel=1e-9)
    tailed = InitialData.compact(BODY, amplitude=1.0, width=0.25, tail=(1.0, 0.5))
    m_minus = wave.exp_minorant(1.0)
    expected = max(1.0, 0.5 / m_minus, 2.0 * 1.5)
    assert k0_lower_bound(wave, tailed) == pytest.approx(expected, rel=1e-9)
    assert k0_lower_bound(wave, tail_free) >= 1.0


def test_k0_monotone_in_amplitude_and_tail():
    wave = cached_wave(2.0)
    base = k0_lower_bound(wave, InitialData.compact(BODY, 0.5, 0.25))
    higher = k0_lower_bound(wave, InitialData.compact(BODY, 0.9, 0.25))
    tailed = k0_lower_bound(
        wave, InitialData.compact(BODY, 0.5, 0.25, tail=(1.0, 0.4)))
    assert base <= higher
    assert base <= tailed


def test_global_super_anchor_and_tail():
    wave = cached_wave(2.0)
    bp = BarrierParams(K_hat=1.8)
    # on the travelled front the argument is 0: value K_hat * U(0)
    x_front = 0.5 + 2.0 * 0.3
    assert global_super(0.3, x_front, bp, wave, BODY, EPS) == pytest.approx(
        1.8 * 0.5, rel=1e-9)
    # deep outside the front the wave tail bounds the barrier
    x_far = x_front + 20.0 * EPS
    C, lam, z0 = wave.tail_right
    assert global_super(0.3, x_far, bp, wave, BODY, EPS) <= \
        1.8 * C * 20.0 * math.exp(-20.0) * (1 + 1e-6)


def test_motion_sub_truncation_and_left_value():
    c = 1.5
    wave = cached_wave(c)
    big = ConvexBody.interval(-2.4, 2.4)
    cd = CutoffDistance(big, speed=c)
    bp = BarrierParams(m1=0.333, m2=1.0)
    # argument >= 0 (outside the shifted front): barrier is zero
    assert motion_sub(0.0, 2.5, bp, wave, cd, EPS) == 0.0
    # deep inside: (1-eps) times a wave value close to 1
    val = motion_sub(0.0, 0.0, bp, wave, cd, EPS)
    assert val >= 1.0 - 2.0 * EPS


def test_motion_sub_requires_matching_speeds():
    wave = cached_wave(1.5)
    cd = CutoffDistance(BODY, speed=1.0)
    with pytest.raises(ConfigurationError):
        motion_sub(0.0, 0.0, BarrierParams(), wave, cd, EPS)


def test_discrete_residual_on_equilibria():
    grid = Grid("line", ((-1.0, 1.0),), 0.01)
    for const in (0.0, 1.0):
        res = discrete_residual(lambda t, x: np.full_like(x, const), 0.5,
                                grid, EPS)
        assert np.max(np.abs(res.values)) <= 1e-12


def test_discrete_residual_travelling_wave_truncation():
    # the exact travelling solution U((x-2t)/eps) must have only
    # finite-difference truncation residual, O(dx^2/eps^3)
    eps = 0.02
    wave = cached_wave(2.0)
    grid = Grid("line", ((-2.0, 2.0),), eps / 16)
    v = lambda t, x: wave.evaluate((x - 2.0 * t) / eps)
    res = discrete_residual(v, 0.25, grid, eps)
    assert np.max(np.abs(res.values)) <= 1e-2


def test_global_super_residual_nonnegative():
    wave = cached_wave(2.0)
    bp = BarrierParams(K_hat=1.8)
    grid = Grid("line", ((-4.0, 4.0),), EPS / 8)
    v = lambda t, x: global_super(t, x, bp, wave, BODY, EPS)
    res = discrete_residual(v, 0.5, grid, EPS)
    assert float(res.values.min()) >= -5e-3


def test_motion_sub_residual_nonpositive_away_from_kink():
    # asymptotic regime: speed away from 2, body large enough that the
    # clamp zone sits deep inside the wave's saturated tail
    eps = 0.01
    c = 1.5
    wave = cached_wave(c)
    body = ConvexBody.interval(-2.4, 2.4)
    cd = CutoffDistance(body, speed=c)
    init = InitialData.compact(body, 0.9, 0.1)
    bp = BarrierParams(m1=m1_recipe(init), m2=1.0)
    grid = Grid("line", ((-5.0, 5.0),), eps / 8)
    x = grid.axis(0)
    for t in (0.2, 0.8):
        v = lambda tt, xx: motion_sub(tt, xx, bp, wave, cd, eps)
        res = discrete_residual(v, t, grid, eps).values
        theta = (cd.cutoff(t, x) + eps_log(eps) * bp.m1 * math.exp(bp.m2 * t)) / eps
        away = ~_kink_mask(theta)
        assert float(res[away].max()) <= 5e-3


def test_radial_sub_W_geometry():
    alg = InitialData.algebraic(m=0.5, n=2.0)
    wave = cached_wave(2.5)
    bp = BarrierParams(c1=1.25, rho=14.0)
    eps = 0.02
    t = 0.1
    # plateau on the shell: r <= c1 t with t small keeps |s| <= rho
    r_plateau = np.linspace(0.0, 1.25 * t, 7)
    vals = radial_sub_W(t, r_plateau, bp, wave, eps, 2, initial=alg)
    assert np.allclose(vals, wave.evaluate(14.0), atol=1e-14)
    # initial ordering against the algebraic data at random radii
    rng = np.random.default_rng(12)
    rr = rng.uniform(0.0, 4.0, 1000)
    w0 = radial_sub_W(0.0, rr, bp, wave, eps, 2, initial=alg)
    u0 = alg.m / (1.0 + (rr / eps) ** alg.n)
    assert np.all(w0 <= u0 + 1e-12)


def test_radial_sub_W_residual_sign():
    alg = InitialData.algebraic(m=0.5, n=2.0)
    wave = cached_wave(2.5)
    bp = BarrierParams(c1=1.25, rho=14.0)
    eps = 0.02
    grid = Grid("radial", ((0.0, 4.0),), eps / 8, dim=2)
    r = grid.axis(0)
    t = 0.4
    v = lambda tt, rr: radial_sub_W(tt, rr, bp, wave, eps, 2, initial=alg)
    res = discrete_residual(v, t, grid, eps).values
    s = (r - bp.c1 * t) / eps
    away = ~(_kink_mask(s - bp.rho) | _kink_mask(s + bp.rho))
    assert float(res[away].max()) <= 5e-3


def test_radial_sub_W_condition_errors_name_the_condition():
    alg = InitialData.algebraic(m=0.5, n=2.0)
    wave = cached_wave(2.5)
    eps = 0.02
    with pytest.raises(ConfigurationError, match="curvature"):
        radial_sub_W(0.1, 1.0, BarrierParams(c1=2.49, rho=14.0), wave, eps, 26,
                     initial=alg)
    with pytest.raises(ConfigurationError, match="tail condition"):
        radial_sub_W(0.1, 1.0, BarrierParams(c1=1.25, rho=2.0), wave, eps, 2,
                     initial=alg)
    with pytest.raises(ConfigurationError, match="data condition"):
        radial_sub_W(0.1, 1.0, BarrierParams(c1=1.25, rho=10.0), wave, eps, 2,
                     initial=alg)


def test_radial_sub_W_anchored_variant():
    wave = cached_wave(2.5)
    bp = BarrierParams(c1=1.25, rho=10.0)
    eps = 0.02
    anchor = 0.97
    r = np.linspace(0.0, 2.0, 501)
    t = 0.5
    vals = radial_sub_W(t, r, bp, wave, eps, 2, anchor=anchor)
    s = (r - bp.c1 * t) / eps
    behind = s <= bp.rho
    assert np.allclose(vals[behind], anchor, atol=1e-14)
    assert np.all(vals[~behind] <= anchor + 1e-14)
    grid = Grid("radial", ((0.0, 2.0),), eps / 8, dim=2)
    rg = grid.axis(0)
    v = lambda tt, rr: radial_sub_W(tt, rr, bp, wave, eps, 2, anchor=anchor)
    res = discrete_residual(v, t, grid, eps).values
    sg = (rg - bp.c1 * t) / eps
    away = ~_kink_mask(sg - bp.rho)
    assert float(res[away].max()) <= 5e-3


def test_xi_eps_formula_and_bisection_oracle():
    alg = InitialData.algebraic(m=0.5, n=2.0)
    bp = BarrierParams(k=1.0)
    eps = 0.01
    val = xi_eps(eps, bp, alg)
    assert val == pytest.approx(0.0314, abs=2e-4)
    thr = bp.k * eps_log(eps)
    root = brentq(lambda r: alg.m / (1 + (r / eps) ** alg.n) - thr,
                  1e-8, 1.0, xtol=1e-16, rtol=8.9e-16)
    assert abs(val - root) / root <= 1e-10


def test_xi_eps_limits_and_domain():
    alg = InitialData.algebraic(m=0.5, n=2.0)
    eps = 0.01
    thr = 3.0 * eps_log(eps)
    nearly = InitialData.algebraic(m=thr * (1 + 1e-12), n=2.0)
    assert xi_eps(eps, BarrierParams(k=3.0), nearly) <= 1e-6
    with pytest.raises(DomainError):
        xi_eps(eps, BarrierParams(k=3.0), InitialData.algebraic(
            m=thr / 2, n=2.0))
    # xi_eps / eps grows as eps shrinks at fixed (m, n, k)
    ratios = [xi_eps(e, BarrierParams(k=1.0), alg) / e for e in (0.04, 0.02, 0.01)]
    assert ratios[0] < ratios[1] < ratios[2]
