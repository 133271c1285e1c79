"""Convex initial regions, exact signed distances, and the clamped distance
to a front expanding at constant normal speed.

For a convex region the dilation by ct is again the level set {d0 <= ct} of
the initial signed distance, so the evolving signed distance is exactly
d(t, x) = d(0, x) - c t, for every x (inside and outside).  No level-set PDE
is needed.  The clamped variant applies an increasing C2 ramp that is the
identity on [-d0, d0] and saturates at -2 d0 / +2 d0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .smoothing import smoothstep

_SHAPES = ("interval", "ball", "ellipse")


@dataclass(frozen=True)
class ConvexBody:
    """Initial region: interval(a, b), ball(center, R) or ellipse(center, axes).

    Always convex with nonempty interior, and must contain the origin.
    """

    shape: str
    params: tuple

    @classmethod
    def interval(cls, a, b):
        return cls("interval", (float(a), float(b)))

    @classmethod
    def ball(cls, center, radius):
        center = tuple(np.atleast_1d(np.asarray(center, dtype=float)))
        return cls("ball", (center, float(radius)))

    @classmethod
    def ellipse(cls, center, semi_axes):
        center = tuple(np.atleast_1d(np.asarray(center, dtype=float)))
        semi_axes = tuple(np.atleast_1d(np.asarray(semi_axes, dtype=float)))
        return cls("ellipse", (center, semi_axes))

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ConfigurationError(f"unknown shape {self.shape!r}")
        if self.shape == "interval":
            a, b = self.params
            if not a < b:
                raise ConfigurationError("empty interval")
        elif self.shape == "ball":
            center, r = self.params
            if not r > 0:
                raise ConfigurationError("ball radius must be positive")
        else:
            center, axes = self.params
            if len(center) != 2 or len(axes) != 2:
                raise ConfigurationError("ellipse is two-dimensional")
            if min(axes) <= 0:
                raise ConfigurationError("ellipse semi-axes must be positive")
        origin = 0.0 if self.shape == "interval" else np.zeros(self.dim)
        if self.signed_distance(origin) >= 0.0:
            raise ConfigurationError("the region must contain the origin")

    @property
    def dim(self):
        if self.shape == "interval":
            return 1
        if self.shape == "ball":
            return len(self.params[0])
        return 2

    @property
    def center(self):
        """The centre, one coordinate per axis; the region is symmetric
        about it along every axis."""
        if self.shape == "interval":
            a, b = self.params
            return ((a + b) / 2.0,)
        return self.params[0]

    @property
    def inradius(self):
        if self.shape == "interval":
            a, b = self.params
            return (b - a) / 2.0
        if self.shape == "ball":
            return self.params[1]
        return min(self.params[1])

    @property
    def diameter(self):
        if self.shape == "interval":
            a, b = self.params
            return b - a
        if self.shape == "ball":
            return 2.0 * self.params[1]
        return 2.0 * max(self.params[1])

    def signed_distance(self, x):
        """Exact signed distance: negative inside, positive outside.

        x is a scalar / 1D array of coordinates for intervals, or an array
        of points with trailing dimension self.dim otherwise.
        """
        if self.shape == "interval":
            a, b = self.params
            x = np.asarray(x, dtype=float)
            out = np.maximum(a - x, x - b)
            return float(out) if out.ndim == 0 else out
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[-1] != self.dim:
            raise DomainError(f"points must have dimension {self.dim}")
        if self.shape == "ball":
            center, r = self.params
            out = np.linalg.norm(pts - np.asarray(center), axis=-1) - r
        else:
            center, axes = self.params
            out = _ellipse_signed_distance(pts - np.asarray(center), axes)
        out = out.reshape(x.shape[:-1])
        return float(out) if scalar else out


def _ellipse_signed_distance(q, axes):
    """Signed distance to an origin-centred ellipse, foot point by bisection.

    Works in the first quadrant with semi-axes reordered so e0 >= e1; the
    generic case solves the foot-point stationarity equation by
    _foot_parameter; points on the major axis need the classic special case.
    """
    e0, e1 = axes
    q = np.asarray(q, dtype=float)
    y0, y1 = np.abs(q[..., 0]), np.abs(q[..., 1])
    if e0 < e1:  # reorder so the first axis is the long one
        e0, e1 = e1, e0
        y0, y1 = y1, y0

    out = np.empty(y0.shape)
    on_axis = y1 <= 1e-12 * e1

    # generic foot point via bisection on the monotone stationarity function
    g0, g1 = y0[~on_axis], y1[~on_axis]
    if g0.size:
        t = _foot_parameter(g0, g1, e0, e1)
        fx0 = e0 * e0 * g0 / (t + e0 * e0)
        fx1 = e1 * e1 * g1 / (t + e1 * e1)
        if not np.all(np.isfinite(t)):
            raise NumericalError("ellipse foot-point iteration failed")
        dist = np.hypot(fx0 - g0, fx1 - g1)
        inside = (g0 / e0) ** 2 + (g1 / e1) ** 2 < 1.0
        out[~on_axis] = np.where(inside, -dist, dist)

    # on the major axis the foot point may sit off-axis
    a0 = y0[on_axis]
    if a0.size:
        crit = (e0 * e0 - e1 * e1) / e0
        fx0 = np.minimum(e0 * e0 * a0 / max(e0 * e0 - e1 * e1, 1e-300), e0)
        inner = a0 < crit
        fx1 = np.where(inner, e1 * np.sqrt(np.maximum(0.0, 1.0 - (fx0 / e0) ** 2)), 0.0)
        dist_in = np.hypot(fx0 - a0, fx1)
        out[on_axis] = np.where(inner, -dist_in, a0 - e0)
    return out


def _foot_parameter(g0, g1, e0, e1):
    """The root t of (e0 g0/(t+e0^2))^2 + (e1 g1/(t+e1^2))^2 = 1 per point
    (g0 >= 0, g1 > 0, e0 >= e1), bisected on a guaranteed bracket until no
    bracket can move, at most 120 times.  Its arrays die with the call, so
    they are not held while the distances are formed."""
    lo = -e1 * e1 + e1 * g1
    hi = -e1 * e1 + np.sqrt((e0 * g0) ** 2 + (e1 * g1) ** 2)
    a0, a1 = e0 * g0, e1 * g1
    mid, F, G = np.empty_like(lo), np.empty_like(lo), np.empty_like(lo)
    for k in range(120):
        # F = (a0/(mid + e0^2))^2 + (a1/(mid + e1^2))^2 - 1, in buffers
        np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
        np.square(np.divide(a0, np.add(mid, e0 * e0, out=F), out=F), out=F)
        np.square(np.divide(a1, np.add(mid, e1 * e1, out=G), out=G), out=G)
        above = np.subtract(np.add(F, G, out=F), 1.0, out=F) > 0.0
        # Once every midpoint rounds to an end of its bracket, this update
        # is the last to move one: the brackets are then fixed, so stopping
        # gives the bits of the full loop (tested every 4th iteration,
        # which costs less than testing every one).
        fixed = k % 4 == 3 and bool(np.all((mid == lo) | (mid == hi)))
        lo = np.where(above, mid, lo)  # root lies to the right of mid
        hi = np.where(above, hi, mid)
        if fixed:
            break
    return 0.5 * (lo + hi)


def _clamp_ramp(s, d0):
    """Increasing C2 ramp: identity on |s| <= d0, constant +-2 d0 beyond 2 d0.

    On [d0, 2d0] the value is blended toward the clamp with a smoothstep
    weight; the derivative (1 - w) + w'(2 d0 - s) is nonnegative term by term.
    """
    s = np.asarray(s, dtype=float)
    sig = np.abs(s)
    w = smoothstep((sig - d0) / d0)
    ramp = sig + w * (2.0 * d0 - sig)
    out = np.sign(s) * np.where(sig >= 2.0 * d0, 2.0 * d0, ramp)
    return float(out) if out.ndim == 0 else out


def cutoff_distance(body: ConvexBody, speed, t, x):
    """Signed distance d(t, x) = d(0, x) - speed t to the body's front
    moving at constant normal speed (exact for convex bodies), clamped by
    the ramp to [-2 d0, 2 d0], d0 = 0.2 * inradius, away from the front."""
    if speed <= 0:
        raise ConfigurationError("front speed must be positive")
    if t < 0:
        raise DomainError("t must be nonnegative")
    return _clamp_ramp(body.signed_distance(x) - speed * t, 0.2 * body.inradius)
