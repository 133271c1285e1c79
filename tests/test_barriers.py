import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fkpplab.barriers import (
    M2,
    SHELL_C1,
    SHELL_RHO,
    discrete_residual,
    generation_sub,
    generation_super,
    global_super,
    k0_lower_bound,
    m1_recipe,
    motion_sub,
    motion_theta,
    radial_sub_W,
    shell_coordinate,
)
from fkpplab.errors import ConfigurationError, DomainError
from fkpplab.geometry import ConvexBody, cutoff_distance
from fkpplab.grids import Grid
from fkpplab.kinetics import KineticsParams, eps_log
from fkpplab.solver import InitialData, compact_value
from fkpplab.studies import _kink_mask, cached

EPS = 0.02
BODY = ConvexBody.interval(-0.5, 0.5)
INIT = InitialData.compact(BODY, amplitude=0.9, width=0.25)
KIN = KineticsParams(EPS)
K = 3.0


def _wave(c):
    """The wave of speed c, through the study cache."""
    return cached((), (c,))[0]


def test_generation_sub_at_time_zero_is_g():
    x = np.linspace(-1.5, 1.5, 101)
    sub = generation_sub(0.0, x, K, KIN, INIT)
    assert np.allclose(sub, compact_value(INIT, x), atol=1e-14)


def test_generation_sub_vanishes_outside_support():
    for x in (0.75, 2.0, -1.1):
        for t in (0.0, 0.5 * eps_log(EPS)):
            assert generation_sub(t, x, K, KIN, INIT) == 0.0


def test_generation_super_constant_and_relaxing():
    init = InitialData.compact(BODY, amplitude=0.9, width=0.25, tail=(1.0, 0.1))
    assert generation_super(0.0, EPS, init) == pytest.approx(1.0)
    t_gen = 2.0 * eps_log(EPS)
    assert generation_super(t_gen, EPS, init) <= 1.0 + EPS


@pytest.mark.parametrize("init", [
    InitialData.compact(BODY, amplitude=0.3, width=0.25),
    InitialData.compact(BODY, amplitude=0.9, width=0.25, tail=(1.0, 0.5))])
def test_generation_super_is_the_logistic_flow(init):
    # the exact flow of u_t = u(1-u)/eps from sup u0, for a sup inside the
    # cutoff zone of the modified rate and for a tailed sup above 1
    ts = np.linspace(0.0, 4.0 * eps_log(EPS), 9)
    sol = solve_ivp(lambda _, u: u * (1.0 - u), (0.0, ts[-1] / EPS),
                    [init.sup_norm], t_eval=ts / EPS, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    sup = [generation_super(t, EPS, init) for t in ts]
    assert np.allclose(sup, sol.y[0], rtol=0.0, atol=1e-10)


def test_k0_lower_bound_arithmetic():
    wave = _wave(2.0)
    tail_free = InitialData.compact(BODY, amplitude=1.0, width=0.25)
    # max(1, 2*1) with U(0) = 1/2
    assert k0_lower_bound(wave, tail_free) == pytest.approx(2.0, rel=1e-9)
    tailed = InitialData.compact(BODY, amplitude=1.0, width=0.25, tail=(1.0, 0.5))
    with pytest.raises(DomainError, match="tail-free"):
        k0_lower_bound(wave, tailed)
    assert k0_lower_bound(wave, tail_free) >= 1.0
    # algebraic data have no compact part: the floor is 1
    assert k0_lower_bound(wave, InitialData.algebraic(0.5, 2.0)) == 1.0


def test_k0_monotone_in_amplitude_and_tail():
    wave = _wave(2.0)
    base = k0_lower_bound(wave, InitialData.compact(BODY, 0.5, 0.25))
    higher = k0_lower_bound(wave, InitialData.compact(BODY, 0.9, 0.25))
    assert base <= higher
    with pytest.raises(DomainError, match="tail-free"):
        k0_lower_bound(wave, InitialData.compact(BODY, 0.5, 0.25, tail=(1.0, 0.4)))


def test_global_super_anchor_and_tail():
    wave = _wave(2.0)
    # on the travelled front the argument is 0: value K_hat * U(0)
    x_front = 0.5 + 2.0 * 0.3
    assert global_super(0.3, x_front, 1.8, wave, BODY, EPS) == pytest.approx(
        1.8 * 0.5, rel=1e-9)
    # deep outside the front the wave tail bounds the barrier
    x_far = x_front + 20.0 * EPS
    C, lam, z0 = wave.tail_right
    assert global_super(0.3, x_far, 1.8, wave, BODY, EPS) <= \
        1.8 * C * 20.0 * math.exp(-20.0) * (1 + 1e-6)


def test_motion_sub_truncation_and_left_value():
    c = 1.5
    wave = _wave(c)
    big = ConvexBody.interval(-2.4, 2.4)
    # argument >= 0 (outside the shifted front): barrier is zero
    assert motion_sub(0.0, 2.5, 0.333, wave, big, EPS) == 0.0
    # deep inside: (1-eps) times a wave value close to 1
    val = motion_sub(0.0, 0.0, 0.333, wave, big, EPS)
    assert val >= 1.0 - 2.0 * EPS


@pytest.mark.parametrize("c", (2.0, 2.5))
def test_motion_sub_rejects_a_monotone_wave(c):
    with pytest.raises(ConfigurationError, match="sign-changing"):
        motion_sub(0.0, 0.0, 1.0, _wave(c), BODY, EPS)


@pytest.mark.parametrize("c", (1.2, 1.5, 1.8))
def test_motion_theta_moves_the_cutoff_at_the_wave_speed(c):
    m1 = 0.333
    x = np.linspace(-3.0, 3.0, 61)
    shift = eps_log(EPS) * m1 * math.exp(M2 * 0.2)
    assert np.array_equal(motion_theta(0.2, x, m1, _wave(c), BODY, EPS),
                          (cutoff_distance(BODY, c, 0.2, x) + shift) / EPS)


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
    wave = _wave(2.0)
    grid = Grid("line", ((-2.0, 2.0),), eps / 16)
    v = lambda t, x: wave.evaluate((x - 2.0 * t) / eps)
    res = discrete_residual(v, 0.25, grid, eps)
    assert np.max(np.abs(res.values)) <= 1e-2


@pytest.mark.parametrize("axis", (0, 1))
def test_discrete_residual_on_a_plane_is_the_lines_along_each_axis(axis):
    # v depends on x_axis alone: the other axis's Laplacian is exactly 0, so
    # every column (axis 0) or row (axis 1) of the plane residual is the
    # line grid's residual along that axis, bit for bit; axis 1 starts at 0,
    # a mirror wall
    eps = 0.02
    wave = _wave(2.0)
    extents = ((-1.0, 1.5), (0.0, 1.25))
    v = lambda t, x: wave.evaluate((x - 2.0 * t) / eps)
    plane = discrete_residual(lambda t, x: v(t, x[..., axis]), 0.3,
                              Grid("plane", extents, eps / 8), eps).values
    line = discrete_residual(v, 0.3, Grid("line", (extents[axis],), eps / 8),
                             eps).values
    assert np.abs(line).max() > 1e-3  # the wave's truncation, not 0
    expected = line[:, None] if axis == 0 else line[None, :]
    assert np.broadcast_to(expected, plane.shape).tobytes() == plane.tobytes()


def test_global_super_residual_nonnegative():
    wave = _wave(2.0)
    grid = Grid("line", ((-4.0, 4.0),), EPS / 8)
    v = lambda t, x: global_super(t, x, 1.8, wave, BODY, EPS)
    res = discrete_residual(v, 0.5, grid, EPS)
    assert float(res.values.min()) >= -5e-3


def test_motion_sub_residual_nonpositive_away_from_kink():
    # asymptotic regime: speed away from 2, body large enough that the
    # clamp zone sits deep inside the wave's saturated tail
    eps = 0.01
    c = 1.5
    wave = _wave(c)
    body = ConvexBody.interval(-2.4, 2.4)
    init = InitialData.compact(body, 0.9, 0.1)
    m1 = m1_recipe(init)
    grid = Grid("line", ((-5.0, 5.0),), eps / 8)
    x = grid.axis(0)
    for t in (0.2, 0.8):
        v = lambda tt, xx: motion_sub(tt, xx, m1, wave, body, eps)
        res = discrete_residual(v, t, grid, eps).values
        away = ~_kink_mask(motion_theta(t, x, m1, wave, body, eps))
        assert float(res[away].max()) <= 5e-3


def test_radial_sub_W_geometry():
    alg = InitialData.algebraic(m=0.5, n=2.0)
    wave = _wave(2.5)
    eps = 0.02
    t = 0.1
    # plateau on the shell: r <= c1 t with t small keeps |s| <= rho
    r_plateau = np.linspace(0.0, SHELL_C1 * t, 7)
    vals = radial_sub_W(t, r_plateau, wave, eps, 2, alg)
    assert np.allclose(vals, wave.evaluate(SHELL_RHO), atol=1e-14)
    # initial ordering against the algebraic data at random radii
    rng = np.random.default_rng(12)
    rr = rng.uniform(0.0, 4.0, 1000)
    w0 = radial_sub_W(0.0, rr, wave, eps, 2, alg)
    u0 = alg.m / (1.0 + (rr / eps) ** alg.n)
    assert np.all(w0 <= u0 + 1e-12)


def test_radial_sub_W_residual_sign():
    alg = InitialData.algebraic(m=0.5, n=2.0)
    wave = _wave(2.5)
    eps = 0.02
    grid = Grid("radial", ((0.0, 4.0),), eps / 8, dim=2)
    r = grid.axis(0)
    t = 0.4
    v = lambda tt, rr: radial_sub_W(tt, rr, wave, eps, 2, alg)
    res = discrete_residual(v, t, grid, eps).values
    s = shell_coordinate(t, r, eps)
    away = ~(_kink_mask(s - SHELL_RHO) | _kink_mask(s + SHELL_RHO))
    assert float(res[away].max()) <= 5e-3


def test_radial_sub_W_condition_errors_name_the_condition():
    # rho = SHELL_RHO = 14 against c = 2.5, c1 = 1.25, lam_c = 1/2:
    # N = 26 needs rho >= 20, n = 8 needs rho >= 16, and m = 0.2 puts
    # m/(1 + rho^n) below M_c e^{-rho/2}
    alg = InitialData.algebraic(m=0.5, n=2.0)
    wave = _wave(2.5)
    eps = 0.02
    radial_sub_W(0.1, 1.0, wave, eps, 2, alg)
    with pytest.raises(ConfigurationError, match="curvature"):
        radial_sub_W(0.1, 1.0, wave, eps, 26, alg)
    with pytest.raises(ConfigurationError, match="tail condition"):
        radial_sub_W(0.1, 1.0, wave, eps, 2, InitialData.algebraic(0.5, 8.0))
    with pytest.raises(ConfigurationError, match="data condition"):
        radial_sub_W(0.1, 1.0, wave, eps, 2, InitialData.algebraic(0.2, 2.0))
