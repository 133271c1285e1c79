import math

import numpy as np
import pytest

from fkpplab.errors import DomainError
from fkpplab.studies import cached
from fkpplab.waves import decay_rate, solve_wave, unstable_rate


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
