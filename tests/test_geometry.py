import math
import re
import warnings

import numpy as np
import pytest

from fkpplab.errors import ConfigurationError, DomainError
from fkpplab.geometry import (ConvexBody, _clamp_ramp, _ellipse_signed_distance,
                             cutoff_distance)


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


@pytest.mark.parametrize("make, named", [
    (lambda: ConvexBody.ellipse((0.0, 0.0), (1e300, 1.0)), "ellipse semi-axis 1e+300"),
    (lambda: ConvexBody.ellipse((0.0, 1e300), (0.5, 0.5)),
     "ellipse centre coordinate 1e+300"),
    (lambda: ConvexBody.ball((-1e200, 0.0, 0.0), 0.5), "ball centre coordinate -1e+200"),
    (lambda: ConvexBody.ball((0.0, 0.0), 1e155), "ball radius 1e+155"),
    (lambda: ConvexBody.interval(-1e300, 1.0), "interval endpoint -1e+300"),
    # each number squares finitely, but the products of a semi-axis and a
    # coordinate do not: the origin check's foot-point bracket overflowed
    (lambda: ConvexBody.ellipse((1e80, 1e80), (2e80, 2e80)),
     "ellipse reach 3.41421e+80"),
], ids=["ellipse_semi_axis", "ellipse_centre", "ball_centre", "ball_radius",
        "interval_endpoint", "ellipse_reach"])
def test_bodies_whose_numbers_overflow_when_squared_are_rejected(make, named):
    # a distance squares them; rejected by name before any is evaluated, so
    # no overflow warning and no NumericalError of the foot-point iteration
    power = "fourth power" if "reach" in named else "square"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(named)} is too "
                           f"large: its {power} is not finite$"):
            make()
    ConvexBody.ellipse((0.0, 0.0), (1e75, 1.0))  # reach^4 = 1e300: kept
    ConvexBody.ball((0.0, 0.0), 1e150)  # squares to 1e300: kept


@pytest.mark.parametrize("body, reach", [
    (ConvexBody.interval(-0.05, 0.95), 0.95),
    (ConvexBody.interval(-0.7, 0.2), 0.7),
    (ConvexBody.ball((0.3, -0.4), 1.0), 1.5),
    (ConvexBody.ball((0.0, 0.0, 0.0), 0.5), 0.5),
    (ConvexBody.ellipse((0.0, 0.0), (0.6, 1.3)), 1.3),
    (ConvexBody.ellipse((0.3, 0.4), (1.3, 0.6)), 1.8),
], ids=["interval_right", "interval_left", "ball_off_centre", "ball_3d",
        "ellipse_centred", "ellipse_off_centre"])
def test_reach_bounds_the_region_from_the_origin(body, reach):
    assert body.reach == pytest.approx(reach, rel=1e-15)
    if body.shape != "interval":  # points on the boundary, all within reach
        th = np.linspace(0.0, 2.0 * np.pi, 4001)
        center, size = body.params
        pts = np.asarray(center)[:2] + np.stack((np.cos(th), np.sin(th)), -1) * size
        assert np.hypot(*pts.T).max() <= body.reach * (1 + 1e-12)


def test_reach_of_a_centred_body_is_half_its_diameter():
    # the outflow margin of a centred body is as it was, bit for bit
    assert ConvexBody.interval(-0.35, 0.35).reach == (0.35 - -0.35) / 2.0
    assert ConvexBody.ball((0.0, 0.0), 0.45).reach == 2.0 * 0.45 / 2.0
    assert ConvexBody.ellipse((0.0, 0.0), (0.6, 0.35)).reach == 2.0 * 0.6 / 2.0


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


def _angle_search(q, axes, n=2048):
    """Signed distance to an origin-centred ellipse by another route than
    the code's: the nearest of n rim angles s, refined by golden-section
    search on |(e0 cos s, e1 sin s) - q|^2 between that angle's neighbours."""
    e0, e1 = axes
    q = np.asarray(q, dtype=float)
    x, y = q[:, :1], q[:, 1:]

    def sq(s):
        return (e0 * np.cos(s) - x) ** 2 + (e1 * np.sin(s) - y) ** 2

    step = 2.0 * np.pi / n
    best = np.argmin(sq(np.arange(n) * step), axis=1)[:, None] * step
    lo, hi = best - step, best + step
    r = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        left = sq(a) < sq(b)
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
    dist = np.sqrt(sq(0.5 * (lo + hi)))[:, 0]
    inside = (q[:, 0] / e0) ** 2 + (q[:, 1] / e1) ** 2 < 1.0
    return np.where(inside, -dist, dist)


def _ellipse_points(axes, rng, n=200):
    """Points on both axes, within 1e-12..1e-3 of the boundary on either
    side, well inside, and far outside."""
    e0, e1 = axes
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    rim = np.stack([e0 * np.cos(angle), e1 * np.sin(angle)], axis=-1)
    offset = 10.0 ** rng.uniform(-12, -3, (n, 1)) * rng.choice([-1, 1], (n, 1))
    axis_pts = np.array([[s, 0.0] for s in np.linspace(-3, 3, 41)]
                        + [[0.0, s] for s in np.linspace(-3, 3, 41)])
    return np.concatenate([
        axis_pts, rim, rim * (1.0 + offset), rim * rng.uniform(0, 1, (n, 1)),
        rng.uniform(-1e3, 1e3, (n, 2)), rng.uniform(-2, 2, (n, 2)),
    ])


@pytest.mark.parametrize("axes", [(0.6, 0.35), (0.35, 0.6), (1.0, 1.0),
                                  (2.0, 1e-3), (0.612, 0.3431)])
def test_ellipse_distance_matches_an_angle_search(axes):
    # both axis orders, a circle, a needle and the plane study's ellipse;
    # inside points carry the sign bit even where the distance rounds to 0
    q = _ellipse_points(axes, np.random.default_rng(11))
    got = _ellipse_signed_distance(q, axes)
    ref = _angle_search(q, axes)
    scale = 1.0 + np.hypot(*q.T)
    assert np.max(np.abs(got - ref) / scale) <= 1e-12
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_ellipse_distance_is_the_same_with_its_axes_swapped():
    # the code reorders to the long axis first, so a reflected point on the
    # reflected ellipse gets the same bits, and so does each quadrant
    q = _ellipse_points((0.6, 0.35), np.random.default_rng(5))
    want = _ellipse_signed_distance(q, (0.6, 0.35))
    assert np.array_equal(_ellipse_signed_distance(q[:, ::-1], (0.35, 0.6)), want)
    for flip in ([-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]):
        assert np.array_equal(_ellipse_signed_distance(q * flip, (0.6, 0.35)), want)


def test_ellipse_distance_on_a_circle_is_the_radius_offset():
    q = _ellipse_points((1.0, 1.0), np.random.default_rng(3))
    r = np.hypot(*q.T)
    got = _ellipse_signed_distance(q, (1.0, 1.0))
    assert np.max(np.abs(got - (r - 1.0)) / (1.0 + r)) <= 1e-12


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
    # inside the identity zone |d| <= d0 = 0.2 the cutoff is the evolved
    # distance d(0, x) - c t
    ball = ConvexBody.ball((0.0, 0.0), 1.0)
    assert cutoff_distance(ball, 2.0, 0.0, np.array([1.1, 0.0])) == pytest.approx(0.1)
    # dilated radius 1.5 after t = 0.25 at speed 2
    assert cutoff_distance(ball, 2.0, 0.25, np.array([1.6, 0.0])) == pytest.approx(0.1)
    boundary = np.array([1.0, 0.0])
    for t in (0.05, 0.1):
        assert cutoff_distance(ball, 2.0, t, boundary) == pytest.approx(-2.0 * t)


def test_evolved_distance_exact_transport():
    # d_t + c = 0 holds exactly for every x in the identity zone of the
    # clamp, on both sides of the front
    iv = ConvexBody.interval(-0.5, 0.5)
    rng = np.random.default_rng(1)
    front = 0.5 + 1.5 * 0.4
    for x in rng.choice((-1.0, 1.0), 20) * (front + rng.uniform(-0.05, 0.05, 20)):
        h = 1e-6
        dt_d = (cutoff_distance(iv, 1.5, 0.4 + h, x)
                - cutoff_distance(iv, 1.5, 0.4 - h, x)) / (2 * h)
        assert dt_d + 1.5 == pytest.approx(0.0, abs=1e-9)


def test_cutoff_distance_preconditions():
    iv = ConvexBody.interval(-0.5, 0.5)
    for speed in (0.0, -1.0):
        with pytest.raises(ConfigurationError):
            cutoff_distance(iv, speed, 0.1, 0.0)
    with pytest.raises(DomainError):
        cutoff_distance(iv, 2.0, -0.1, 0.0)


def test_cutoff_ramp_values():
    ball = ConvexBody.ball((0.0, 0.0), 1.0)
    d0 = 0.2  # 0.2 * inradius
    # far from the front the cutoff saturates at 2 d0
    assert cutoff_distance(ball, 2.0, 0.0, np.array([5.0, 0.0])) == pytest.approx(2.0 * d0)
    assert cutoff_distance(ball, 2.0, 0.0, np.array([0.0, 0.0])) == pytest.approx(-2.0 * d0)

    assert _clamp_ramp(0.5 * d0, d0) == pytest.approx(0.5 * d0, abs=1e-15)
    assert _clamp_ramp(-3.0 * d0, d0) == pytest.approx(-2.0 * d0, abs=1e-15)
    assert _clamp_ramp(5.0 * d0, d0) == pytest.approx(2.0 * d0, abs=1e-15)
    s = np.linspace(-3 * d0, 3 * d0, 20_001)
    assert np.all(np.diff(_clamp_ramp(s, d0)) >= -1e-15)


def test_cutoff_gradient_is_unit_in_tube():
    ball = ConvexBody.ball((0.0, 0.0), 1.0)
    d0 = 0.2
    rng = np.random.default_rng(4)
    h = 1e-6
    checked = 0
    for _ in range(200):
        x = rng.uniform(-2.5, 2.5, 2)
        t = rng.uniform(0.0, 0.5)
        # the ramp is the identity on |d| <= d0 and beyond it |ramp| > d0
        if abs(cutoff_distance(ball, 2.0, t, x)) >= 0.9 * d0:
            continue
        gx = (cutoff_distance(ball, 2.0, t, x + [h, 0])
              - cutoff_distance(ball, 2.0, t, x - [h, 0])) / (2 * h)
        gy = (cutoff_distance(ball, 2.0, t, x + [0, h])
              - cutoff_distance(ball, 2.0, t, x - [0, h])) / (2 * h)
        assert math.hypot(gx, gy) == pytest.approx(1.0, abs=1e-5)
        checked += 1
    assert checked > 10


def test_cutoff_at_t0_is_the_signed_distance_near_the_boundary():
    iv = ConvexBody.interval(-1.0, 1.0)
    x = 1.05
    assert cutoff_distance(iv, 2.0, 0.0, x) == iv.signed_distance(x)
    assert iv.signed_distance(x) == pytest.approx(0.05)


def test_ball_takes_points_not_radii():
    # a 1-D array of three radii is not a point of a 2-D ball
    ball = ConvexBody.ball((0.0, 0.0), 0.5)
    with pytest.raises(DomainError):
        ball.signed_distance(np.array([0.1, 0.2, 0.3]))
