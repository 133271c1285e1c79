import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq

from fkpplab import dop853, waves
from fkpplab.errors import DomainError, NumericalError
from fkpplab.studies import cached
from fkpplab.waves import TABLE_DZ, decay_rate, solve_wave, unstable_rate


def _wave(c):
    """The wave of speed c, through the study cache."""
    return cached((), (c,))[0]


def test_decay_rate_values():
    assert decay_rate(2.0) == pytest.approx(1.0, abs=1e-15)
    assert decay_rate(2.5) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        decay_rate(1.9)


@pytest.mark.parametrize("c", [2.0, 2.2, 2.5, 3.0])
def test_wave_residual_and_normalization(c):
    prof = _wave(c)
    assert float(prof.residual().max()) <= 1e-8
    assert prof.evaluate(0.0) == pytest.approx(0.5, abs=1e-9)
    assert np.all(np.diff(prof.U) <= 1e-12)  # monotone
    assert np.all(prof.U > 0.0) and np.all(prof.U < 1.0)


@pytest.mark.parametrize("c", [2.2, 2.5, 3.0, 5.0])
def test_tail_rate_matches_quadratic_root(c):
    prof = _wave(c)
    lam = prof.tail_right[1]
    assert abs(lam - decay_rate(c)) / decay_rate(c) <= 0.01


def test_seam_continuity():
    for c in (2.0, 2.5):
        prof = _wave(c)
        for z_edge, step in ((prof.z[0], -1e-9), (prof.z[-1], 1e-9)):
            inside = prof.evaluate(float(z_edge))
            outside = prof.evaluate(float(z_edge) + step)
            assert abs(inside - outside) <= 1e-6 * max(abs(inside), 1e-12)


def test_left_tail_bound_inside_and_outside():
    prof = _wave(2.0)
    C, mu = prof.tail_left
    z = prof.z[prof.z <= 0.0]
    assert np.all(1.0 - prof.U[prof.z <= 0.0] <= C * np.exp(mu * z) * (1 + 1e-9))
    z_out = prof.z[0] - 5.0
    val = prof.evaluate(z_out)
    assert 1.0 - C * np.exp(mu * z_out) - 1e-12 <= val < 1.0


def test_evaluate_nodal_and_derivative_consistency():
    prof = _wave(2.5)
    rng = np.random.default_rng(2)
    idx = rng.integers(0, prof.z.size, 20)
    assert np.allclose(prof.evaluate(prof.z[idx]), prof.U[idx], atol=1e-12)
    h = prof.dz / 2.0
    zs = rng.uniform(prof.z[0] + 1.0, prof.z[-1] - 1.0, 50)
    fd = (prof.evaluate(zs + h) - prof.evaluate(zs - h)) / (2 * h)
    up = np.interp(zs, prof.z, prof.Uprime)
    scale = np.maximum(np.abs(up), 1e-9)
    assert np.max(np.abs(fd - up) / scale) <= 1e-4


def test_right_tail_evaluation_beyond_table():
    prof = _wave(2.5)
    C, lam, _ = prof.tail_right
    z = prof.z[-1] + 5.0
    assert prof.evaluate(z) == pytest.approx(C * np.exp(-lam * z), rel=1e-9)
    prof2 = _wave(2.0)
    C2, lam2, z0 = prof2.tail_right
    z = prof2.z[-1] + 5.0
    assert prof2.evaluate(z) == pytest.approx(
        C2 * (z - z0) * np.exp(-lam2 * z), rel=1e-9)


def test_kpp_ratio_bounds():
    prof = _wave(2.0)
    gm, gp = prof.kpp_ratio_bounds()
    ratio_at_1 = prof.evaluate(1.0) / (1.0 * np.exp(-1.0))
    assert gm <= ratio_at_1 <= gp
    assert 0.0 < gm <= gp <= 10.0 * gm
    with pytest.raises(DomainError):
        _wave(2.5).kpp_ratio_bounds()


def test_sign_changing_wave():
    prof = _wave(1.0)
    assert abs(prof.evaluate(0.0)) <= 1e-10
    assert np.all(prof.U[prof.z < -prof.dz / 2] > 0.0)
    assert float(prof.U[prof.z > 0.0].min()) < 0.0  # overshoot window
    assert float(prof.residual().max()) <= 1e-8


def test_sign_changing_tail_lengthens_toward_minimal_speed():
    near = solve_wave(1.99)
    far = _wave(1.0)
    assert near.z[0] < far.z[0]


def test_speed_preconditions():
    with pytest.raises(DomainError):
        solve_wave(0.0)
    with pytest.raises(DomainError):
        solve_wave(-1.5)


def test_cached_wave_solves_at_its_key():
    # the key rounds to 12 decimals, so a speed a hair below 2 is the
    # minimal-speed monotone wave
    prof = _wave(1.9999999999999)
    assert prof.c == 2.0
    assert prof.tail_right is not None and prof.tail_right[1] == 1.0


def test_dump_table(tmp_path):
    prof = _wave(2.5)
    path = tmp_path / "wave.csv"
    prof.dump_table(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "z,U,U_prime"
    assert len(lines) == prof.z.size + 1
    z0, u0, up0 = map(float, lines[1].split(","))
    assert z0 == prof.z[0] and u0 == prof.U[0] and up0 == prof.Uprime[0]


def test_wave_matches_ablowitz_zeppetella_closed_form():
    # at c = 5/sqrt(6) the wave is U = (1 + (sqrt2 - 1) e^{z/sqrt6})^{-2}
    # (Ablowitz & Zeppetella 1979), with U(0) = 1/2; 1 - U ~ 2(sqrt2 - 1)
    # e^{z/sqrt6} on the left and U ~ e^{-2z/sqrt6}/(sqrt2 - 1)^2 on the right
    r6, a = math.sqrt(6.0), math.sqrt(2.0) - 1.0
    c = 5.0 / r6
    prof = solve_wave(c)
    e = np.exp(prof.z / r6)
    assert np.max(np.abs(prof.U - (1.0 + a * e) ** -2)) <= 1e-11
    u_prime = -2.0 * a * e / r6 * (1.0 + a * e) ** -3
    assert np.max(np.abs(prof.Uprime - u_prime)) <= 1e-11
    C, mu = prof.tail_left
    assert C == pytest.approx(2.0 * a, rel=1e-5)
    assert mu == unstable_rate(c)
    assert prof.tail_right[1] == pytest.approx(2.0 / r6, rel=1e-4)


@pytest.mark.parametrize("c", [1.5, 2.0, 2.5])
def test_evaluate_returns_every_node_exactly(c):
    # a node falls at the start of its interval (the last node at the end
    # of the last), where the Hermite basis gives its U bit for bit
    prof = _wave(c)
    assert np.array_equal(prof.evaluate(prof.z), prof.U)
    assert prof.evaluate(prof.z[-1]) == prof.U[-1]
    assert prof.evaluate(prof.z[0]) == prof.U[0]


def test_evaluate_between_nodes_matches_ablowitz_zeppetella():
    # the closed form of test_wave_matches_ablowitz_zeppetella_closed_form
    # read between the nodes: at the interval midpoints, where an
    # interpolant errs most, and at random points.  The table errs by
    # 9.69e-13 at its nodes, and the cubic Hermite adds at most 7e-16
    # (h^4/384 times the largest fourth derivative, 0.25); the bound 2e-12
    # is about twice the measured 9.69e-13.  A linear interpolant errs by
    # 3.2e-9 here
    r6, a = math.sqrt(6.0), math.sqrt(2.0) - 1.0
    prof = _wave(5.0 / r6)
    rng = np.random.default_rng(7)
    mid = (prof.z[:-1] + prof.z[1:]) / 2.0
    for z in (mid, rng.uniform(prof.z[0], prof.z[-1], 20000)):
        exact = (1.0 + a * np.exp(z / r6)) ** -2
        assert np.max(np.abs(prof.evaluate(z) - exact)) <= 2e-12


# scipy is the oracle of the package's DOP853 (dop853), which performs its
# DOP853 operation for operation: the tests below hold the port to it bit
# for bit.

def test_dop853_table_is_scipys():
    assert (dop853.N_STAGES, dop853.N_STAGES_EXTENDED, dop853.INTERPOLATOR_POWER) == (
        dop853_coefficients.N_STAGES, dop853_coefficients.N_STAGES_EXTENDED,
        dop853_coefficients.INTERPOLATOR_POWER)
    for name in ("A", "B", "E3", "E5", "D"):
        assert np.array_equal(getattr(dop853, name), getattr(dop853_coefficients, name)), name


def _solve_ivp_leg(c, z_final, y0, level):
    """One shooting leg (waves._integrate's arguments) by scipy."""
    def rhs(_, y):
        u, v = y
        return (v, -c * v - u * (1.0 - u))

    def event(_, y):
        return y[0] - level

    event.terminal, event.direction = True, -1
    return solve_ivp(rhs, (0.0, z_final), y0, method="DOP853", rtol=1e-12,
                     atol=1e-14, dense_output=True,
                     events=[] if level is None else [event])


@pytest.mark.parametrize("c", [1.5, 2.0 - 0.02 * abs(math.log(0.02)), 2.0, 2.5])
def test_dop853_legs_and_table_match_solve_ivp(c, monkeypatch):
    """Each leg of a wave's shooting has solve_ivp's steps, event root and
    dense output, and the wave's table is the one resampled from
    solve_ivp's dense output: all equal, not close."""
    legs = []

    def recorded(*args):
        legs.append((args, integrate(*args)))
        return legs[-1][1]

    integrate = waves._integrate
    monkeypatch.setattr(waves, "_integrate", recorded)
    wave = solve_wave(c)
    assert len(legs) == 2
    refs = []
    for (_, z_final, y0, level), ours in legs:
        ref = _solve_ivp_leg(c, z_final, y0, level)
        assert ref.success
        assert np.array_equal(ours.ts, ref.t)
        roots = [] if level is None else ref.t_events[0].tolist()
        assert ([] if ours.root is None else [ours.root]) == roots
        z = np.concatenate((np.linspace(0.0, ours.ts[-1], 4001), ours.ts))
        assert np.array_equal(ours(z), ref.sol(z))
        refs.append(ref)
    leg1, leg2 = refs
    z_anchor = float(leg1.t_events[0][0])
    assert np.array_equal(legs[1][0][2], leg1.sol(z_anchor))  # leg 2's launch
    k = np.arange(math.ceil(-z_anchor / TABLE_DZ - 1e-9),
                  math.floor(float(leg2.t[-1]) / TABLE_DZ + 1e-9) + 1)
    z = k * TABLE_DZ
    neg = z <= 0.0
    U, Up = np.concatenate((leg1.sol(z[neg] + z_anchor), leg2.sol(z[~neg])), axis=1)
    assert np.array_equal(wave.z, z)
    assert np.array_equal(wave.U, U)
    assert np.array_equal(wave.Uprime, Up)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x * x * (x - 0.5) - 1e-6, 0.0, 3.0),
    (lambda x: math.atan(50.0 * (x - 0.7)), -3.0, 1.0),
    (lambda x: math.copysign(abs(x - 1 / 3) ** 0.2, x - 1 / 3), 0.0, 1.0),  # bisects
], ids=["cubic", "exp", "cos", "flat_cubic", "atan", "fifth_root"])
def test_brentq_port_matches_scipys_brentq(f, a, b):
    """The port evaluates f at scipy's points, in scipy's order."""
    tol = 4 * np.finfo(float).eps
    ours, theirs = [], []
    root = dop853._brentq(lambda x: ours.append(x) or f(x), a, b)
    assert root == brentq(lambda x: theirs.append(x) or f(x), a, b, xtol=tol, rtol=tol)
    assert ours == theirs


def test_wave_integration_rejects_a_non_finite_launch():
    # c*c overflows, so the unstable rate and the launch slope are infinite
    with pytest.raises(NumericalError,
                       match=r"wave integration failed: the launch state .* is not finite"):
        solve_wave(1e200)


def test_integration_below_the_least_step_fails_within_bounded_steps():
    """A blow-up (y' = y^2 from 1, infinite at t = 1) and a field that is
    NaN (on which solve_ivp loops for ever) raise once the step falls below
    ten spacings of t, after a bounded number of evaluations."""
    calls = []

    def blow_up(y):
        calls.append(y)
        return y * y

    with pytest.raises(NumericalError, match="the step fell below"):
        dop853.integrate(blow_up, 2.0, [1.0], None)
    assert len(calls) < 10_000
    with pytest.raises(NumericalError, match="the step fell below"):
        dop853.integrate(lambda y: np.full_like(y, np.nan), 1.0, [1.0], None)
    # U'' = U^2 - U - cU' blows up from U = U' = 10 too
    with pytest.raises(NumericalError, match="wave integration failed: the step fell below"):
        waves._integrate(2.0, 40.0, [10.0, 10.0], None)
