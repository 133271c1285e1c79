"""Travelling waves U'' + cU' + U(1-U) = 0 with U(-inf) = 1, U(+inf) = 0.

Monotone profiles exist for c >= 2 and are normalized so U(0) = 1/2.  For
0 < c < 2 the profile oscillates into 0; we keep the branch up to its first
sign change, normalized so U(0) = 0, plus a short overshoot window.  The
speed alone thus says which normalization a profile carries.

Profiles are computed by shooting: the integration launches a distance 1e-8
from the rest state U = 1 along the unstable eigenvector of the
linearization, runs with the package's Dormand-Prince 8(5,3) integrator
(dop853), and is resampled from its dense output onto a uniform table of
(z, U, U').  That integrator performs scipy's DOP853 operation for
operation, so each table is bit for bit the one scipy's DOP853 gives,
without importing scipy's ODE package.  Inside the table a profile is
evaluated as the cubic Hermite interpolant on the (U, U') of the two nodes
around z, which needs no linear solve and returns every node's U exactly.
Exponential tails let it be evaluated anywhere on the line: the left one
decays at the unstable rate, the right one is fitted on the final decade of
decay; for the minimal speed c = 2 the right tail carries the extra
algebraic factor, U ~ (az+b)e^-z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dop853
from .errors import DomainError, NumericalError
from .reporting import write_table

WAVE_FLOOR = 1e-10  # right-tail truncation level
TABLE_DZ = 1e-3  # step of the resampled table
Z_SPAN = 40.0  # integration span past the anchor; pads the sign-changing guard
_LAUNCH = 1e-8  # offset from U = 1 at launch
# The minimal-speed envelope U/(z e^{-z}) is bounded over z in [1, this].
KPP_RATIO_Z_HI = 15.0


def decay_rate(c):
    """Smallest root of r^2 - c r + 1 = 0: the right-tail decay rate for c >= 2."""
    if c < 2.0:
        raise DomainError("decay rate is complex for c < 2")
    return (c - math.sqrt(c * c - 4.0)) / 2.0


def unstable_rate(c):
    """Positive eigenvalue (-c + sqrt(c^2+4))/2 of the linearization at U = 1."""
    return (-c + math.sqrt(c * c + 4.0)) / 2.0


def _integrate(c, z_final, y0, level):
    """The wave equation as the system (U, U')' = (U', -cU' - U(1-U)) from
    (U, U')(0) = y0 over [0, z_final], stopped where U falls through level
    (None: not stopped), by the package's DOP853 (dop853.integrate) at
    rtol 1e-12 and atol 1e-14.  That integrator performs scipy's DOP853
    operation for operation, so the returned dense output, and every table
    resampled from it, is bit for bit what scipy's DOP853 solver gives
    with dense output and the same event."""
    def rhs(y):
        u, v = y.tolist()  # Python floats round as numpy scalars do, faster
        return np.array((v, -c * v - u * (1.0 - u)))

    try:
        return dop853.integrate(rhs, z_final, y0, level)
    except NumericalError as err:
        raise NumericalError(f"wave integration failed: {err}") from None


@dataclass
class WaveProfile:
    """A computed travelling wave: dense (z, U, U') table plus tail data.

    tail_left = (C, mu):        1 - U(z) ~ C e^{-mu |z|} as z -> -inf
    tail_right = (C, lam, z0):  U(z) ~ C e^{-lam z} (z0 unused, nan) for c > 2,
                                U(z) ~ C (z - z0) e^{-lam z} for c = 2,
                                absent (None) for c < 2
    """

    c: float
    z: np.ndarray
    U: np.ndarray
    Uprime: np.ndarray
    tail_left: tuple
    tail_right: tuple | None

    @property
    def dz(self):
        return float(self.z[1] - self.z[0])

    def _hermite(self, z):
        """The cubic Hermite interpolant on the (U, U') of the table nodes
        z_i <= z < z_{i+1} around each z (the last interval for the last
        node), in the basis form: a node gives s = 0 (s = 1 at the last),
        where every basis term but one is exactly 0 and that one exactly 1,
        so it returns the node's U bit for bit."""
        i = np.clip(np.searchsorted(self.z, z, side="right") - 1, 0, self.z.size - 2)
        z0, h = self.z[i], self.z[i + 1] - self.z[i]
        s = (z - z0) / h
        s2 = s * s
        s3 = s2 * s
        return ((2.0 * s3 - 3.0 * s2 + 1.0) * self.U[i]
                + (s3 - 2.0 * s2 + s) * h * self.Uprime[i]
                + (3.0 * s2 - 2.0 * s3) * self.U[i + 1]
                + (s3 - s2) * h * self.Uprime[i + 1])

    def evaluate(self, z):
        """U at arbitrary z: the cubic Hermite on the table's (U, U') inside
        the table (_hermite), analytic tails outside."""
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        lo, hi = self.z[0], self.z[-1]
        left = z < lo
        right = z > hi
        mid = ~(left | right)
        if mid.any():
            out[mid] = self._hermite(z[mid])
        if left.any():
            C, mu = self.tail_left
            out[left] = 1.0 - C * np.exp(mu * z[left])
        if right.any():
            if self.tail_right is None:
                out[right] = 0.0
            else:
                C, lam, z0 = self.tail_right
                if np.isnan(z0):
                    out[right] = C * np.exp(-lam * z[right])
                else:
                    out[right] = C * (z[right] - z0) * np.exp(-lam * z[right])
        return float(out[0]) if scalar else out

    def residual(self):
        """|dU'/dz + cU' + U(1-U)| on the table, with dU'/dz from 4th-order
        finite differences of the tabulated U' (the non-trivial consistency
        check; reconstructing U'' from the equation itself would be circular).
        """
        up = self.Uprime
        h = self.dz
        d = np.empty_like(up)
        d[2:-2] = (up[:-4] - 8 * up[1:-3] + 8 * up[3:-1] - up[4:]) / (12 * h)
        for i in (0, 1):
            d[i] = (
                -25 * up[i] + 48 * up[i + 1] - 36 * up[i + 2] + 16 * up[i + 3] - 3 * up[i + 4]
            ) / (12 * h)
        for i in (-1, -2):
            d[i] = (
                25 * up[i] - 48 * up[i - 1] + 36 * up[i - 2] - 16 * up[i - 3] + 3 * up[i - 4]
            ) / (12 * h)
        return np.abs(d + self.c * up + self.U * (1.0 - self.U))

    def kpp_ratio_bounds(self):
        """(gamma_minus, gamma_plus): extremes of U/(z e^{-z}) over tabulated
        z in [1, KPP_RATIO_Z_HI]; minimal-speed profiles only."""
        if self.c != 2.0:
            raise DomainError("the z e^{-z} envelope applies only at c = 2")
        m = (self.z >= 1.0) & (self.z <= KPP_RATIO_Z_HI)
        ratio = self.U[m] / (self.z[m] * np.exp(-self.z[m]))
        return float(ratio.min()), float(ratio.max())

    def exp_majorant(self, lam):
        """max over z >= 0 of U(z) e^{lam z} (including the fitted tail limit)."""
        if self.tail_right is None:
            raise DomainError("no right tail on a sign-changing profile")
        C, rate, z0 = self.tail_right
        m = self.z >= 0.0
        out = float(np.max(self.U[m] * np.exp(lam * self.z[m])))
        if abs(lam - rate) <= 1e-12 and np.isnan(z0):
            out = max(out, C)
        return out

    def dump_table(self, path):
        """CSV dump of the table, columns z, U, U_prime."""
        with open(path, "w") as fh:
            fh.write("z,U,U_prime\n")
            write_table(fh, self.z, self.U, self.Uprime)


def _resample(leg1, leg2, z_shift, dz):
    """Uniform table (multiples of dz, containing 0).  leg1 covers the
    original frame [0, z_shift] (anchor translated to 0), leg2 continues
    from the anchor in its own local frame; each leg's points are evaluated
    in one pass over its dense output."""
    z_hi = float(leg2.ts[-1])
    k = np.arange(math.ceil(-z_shift / dz - 1e-9), math.floor(z_hi / dz + 1e-9) + 1)
    z = k * dz
    neg = z <= 0.0
    U, Up = np.concatenate((leg1(z[neg] + z_shift), leg2(z[~neg])), axis=1)
    return z, U, Up


def _left_tail(z, U, mu):
    """(C, mu) with 1-U <= C e^{mu z} on z <= 0: mu the unstable rate of the
    linearization at U = 1, the root of r^2 + c r - 1 = 0 that 1 - U decays
    at to the left, and C the exact majorant constant over the table."""
    v = 1.0 - U
    left = z <= 0.0
    C = float(np.max(v[left] * np.exp(-mu * z[left])))
    return C, mu


def solve_wave(c):
    """Travelling wave of speed c > 0.

    Shoots from the unstable manifold of U = 1 and translates the anchor
    crossing to z = 0: for c >= 2 the monotone wave with U(0) = 1/2,
    continued until U < 1e-10 or the span is exhausted, with both tails;
    for 0 < c < 2 the sign-changing wave with its first zero at z = 0,
    continued over a short overshoot window, with the left tail only.
    """
    if not c > 0.0:
        raise DomainError("travelling waves need c > 0")
    monotone = c >= 2.0
    lam_u = unstable_rate(c)
    y0 = [1.0 - _LAUNCH, -_LAUNCH * lam_u]
    # the first zero of a sign-changing wave lies further out than U = 1/2
    pad = 0.0 if monotone else Z_SPAN
    guard = math.log(0.6 / _LAUNCH) / lam_u + pad + 20.0
    anchor = 0.5 if monotone else 0.0

    leg1 = _integrate(c, guard, y0, anchor)
    if leg1.root is None:
        raise NumericalError(f"never reached U = {anchor:g} within the span guard")
    z_anchor = float(leg1.root)
    launch = leg1(np.array([z_anchor]))[:, 0]

    if monotone:
        leg2 = _integrate(c, Z_SPAN, launch, WAVE_FLOOR)
    else:  # a short overshoot window past the first zero
        leg2 = _integrate(c, 5.0, launch, None)
    z, U, Up = _resample(leg1, leg2, z_anchor, TABLE_DZ)
    tail_left = _left_tail(z, U, lam_u)

    if not monotone:
        if np.any(U[z < -TABLE_DZ / 2] <= 0.0):
            raise NumericalError("profile not positive left of its first zero")
        return WaveProfile(c, z, U, Up, tail_left, None)

    if np.any(np.diff(U) > 1e-12):
        raise NumericalError("monotonicity lost for c >= 2")
    if c == 2.0:
        m = z >= z[-1] - 5.0
        # linear LSQ of U e^{z} ~ a z + b, then rescale for an exact seam
        a, b = np.polyfit(z[m], U[m] * np.exp(z[m]), 1)
        z0 = -b / a
        C = float(U[-1] * math.exp(z[-1]) / (z[-1] - z0))
        tail_right = (C, 1.0, float(z0))
    else:
        v = U[-1]
        m = (U >= v) & (U <= 10.0 * v)
        lam_fit = -float(np.polyfit(z[m], np.log(U[m]), 1)[0])
        C = float(U[-1] * math.exp(lam_fit * z[-1]))
        tail_right = (C, lam_fit, math.nan)

    return WaveProfile(c, z, U, Up, tail_left, tail_right)
