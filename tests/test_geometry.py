import math

import numpy as np
import pytest

from fkpplab.errors import ConfigurationError, DomainError
from fkpplab.geometry import ConvexBody, CutoffDistance


def test_ball_and_interval_distances():
    ball = ConvexBody.ball((0.0, 0.0), 1.0)
    assert ball.signed_distance(np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert ball.signed_distance(np.array([0.0, 0.0])) == pytest.approx(-1.0)
    iv = ConvexBody.interval(-0.5, 0.5)
    assert iv.signed_distance(0.7) == pytest.approx(0.2)
    assert iv.signed_distance(0.0) == pytest.approx(-0.5)


def test_bodies_must_contain_origin():
    with pytest.raises(ConfigurationError):
        ConvexBody.interval(0.2, 0.7)
    with pytest.raises(ConfigurationError):
        ConvexBody.ball((3.0, 0.0), 1.0)


def _brute_force_reference(center, axes, pts, n=100_000):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    bx = center[0] + axes[0] * np.cos(th)
    by = center[1] + axes[1] * np.sin(th)
    out = []
    for p in pts:
        dist = np.hypot(bx - p[0], by - p[1]).min()
        inside = ((p[0] - center[0]) / axes[0]) ** 2 + (
            (p[1] - center[1]) / axes[1]) ** 2 < 1
        out.append(-dist if inside else dist)
    return np.array(out)


def test_ellipse_against_polygonal_minimization():
    ell = ConvexBody.ellipse((0.1, -0.2), (1.3, 0.6))
    rng = np.random.default_rng(42)
    pts = rng.uniform(-3, 3, size=(200, 2))
    ref = _brute_force_reference((0.1, -0.2), (1.3, 0.6), pts)
    got = ell.signed_distance(pts)
    assert np.max(np.abs(got - ref)) <= 1e-6


def test_ellipse_axis_points():
    ell = ConvexBody.ellipse((0.0, 0.0), (2.0, 1.0))
    # center: nearest boundary point is the minor vertex
    assert ell.signed_distance(np.array([0.0, 0.0])) == pytest.approx(-1.0)
    # inside the focal segment the foot point is off-axis
    ref = _brute_force_reference((0, 0), (2.0, 1.0), [(1.2, 0.0)])
    assert ell.signed_distance(np.array([1.2, 0.0])) == pytest.approx(
        float(ref[0]), abs=1e-6)
    assert ell.signed_distance(np.array([3.0, 0.0])) == pytest.approx(1.0)


def test_distance_is_1_lipschitz():
    ell = ConvexBody.ellipse((0.0, 0.0), (1.3, 0.6))
    rng = np.random.default_rng(8)
    p = rng.uniform(-2, 2, size=(500, 2))
    q = rng.uniform(-2, 2, size=(500, 2))
    num = np.abs(ell.signed_distance(p) - ell.signed_distance(q))
    den = np.linalg.norm(p - q, axis=-1)
    assert np.max(num / den) <= 1.0 + 1e-9


def test_evolved_distance_dilation():
    ball = ConvexBody.ball((0.0, 0.0), 1.0)
    cd = CutoffDistance(ball, speed=2.0)
    assert cd.evolved(0.0, np.array([2.0, 0.0])) == pytest.approx(1.0)
    # dilated radius 1.5 after t = 0.25 at speed 2
    assert cd.evolved(0.25, np.array([2.0, 0.0])) == pytest.approx(0.5)
    boundary = np.array([1.0, 0.0])
    for t in (0.1, 0.7):
        assert cd.evolved(t, boundary) == pytest.approx(-2.0 * t)


def test_evolved_distance_exact_transport():
    # d_t + c = 0 holds exactly for every x, not only near the front
    iv = ConvexBody.interval(-0.5, 0.5)
    cd = CutoffDistance(iv, speed=1.5)
    rng = np.random.default_rng(1)
    for x in rng.uniform(-3, 3, 20):
        h = 1e-6
        dt_d = (cd.evolved(0.4 + h, x) - cd.evolved(0.4 - h, x)) / (2 * h)
        assert dt_d + 1.5 == pytest.approx(0.0, abs=1e-9)


def test_cutoff_ramp_values():
    cd = CutoffDistance(ConvexBody.ball((0.0, 0.0), 1.0), speed=2.0)
    d0 = cd.d0
    assert d0 == pytest.approx(0.2)  # 0.2 * inradius
    from fkpplab.geometry import _clamp_ramp

    assert _clamp_ramp(0.5 * d0, d0) == pytest.approx(0.5 * d0, abs=1e-15)
    assert _clamp_ramp(-3.0 * d0, d0) == pytest.approx(-2.0 * d0, abs=1e-15)
    assert _clamp_ramp(5.0 * d0, d0) == pytest.approx(2.0 * d0, abs=1e-15)
    s = np.linspace(-3 * d0, 3 * d0, 20_001)
    assert np.all(np.diff(_clamp_ramp(s, d0)) >= -1e-15)


def test_cutoff_gradient_is_unit_in_tube():
    ball = ConvexBody.ball((0.0, 0.0), 1.0)
    cd = CutoffDistance(ball, speed=2.0)
    rng = np.random.default_rng(4)
    h = 1e-6
    checked = 0
    for _ in range(200):
        x = rng.uniform(-2.5, 2.5, 2)
        t = rng.uniform(0.0, 0.5)
        if abs(cd.evolved(t, x)) >= 0.9 * cd.d0:
            continue
        gx = (cd.cutoff(t, x + [h, 0]) - cd.cutoff(t, x - [h, 0])) / (2 * h)
        gy = (cd.cutoff(t, x + [0, h]) - cd.cutoff(t, x - [0, h])) / (2 * h)
        assert math.hypot(gx, gy) == pytest.approx(1.0, abs=1e-5)
        checked += 1
    assert checked > 10


def test_cutoff_at_t0_is_the_signed_distance_near_the_boundary():
    cd = CutoffDistance(ConvexBody.interval(-1.0, 1.0), speed=2.0)
    x = 1.05
    assert cd.cutoff(0.0, x) == cd.body.signed_distance(x)
    assert cd.body.signed_distance(x) == pytest.approx(0.05)


def test_radial_coordinates_for_origin_ball():
    ball = ConvexBody.ball((0.0, 0.0), 0.5)
    r = np.array([0.0, 0.25, 0.5, 2.0])
    assert np.allclose(ball.signed_distance(r), r - 0.5)
    off = ConvexBody.ball((0.25, 0.0), 0.5)
    with pytest.raises(DomainError):
        off.signed_distance(np.array([1.0, 2.0, 3.0]))
