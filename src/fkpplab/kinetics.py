"""Reaction rates and the auxiliary ODE semiflow.

The reaction of the scaled equation is f(u) = u(1-u); its exact flow is the
solver's reaction step (solver.Stepper.reaction).  The barrier
constructions need two companions:

* a bistable extension that agrees with u(1-u) on u >= -1/2 and adds a
  stable zero at u = -1, so the auxiliary ODE is well behaved on negative
  data, and
* an epsilon-modification whose unstable zero sits at eps*|ln eps| instead
  of 0: near the origin the rate is the slow linear (u - eps|ln eps|)/|ln eps|,
  blended back into the bistable rate by a C2 cutoff psi, and the modified
  rate never exceeds the unmodified one.

The semiflow w(s, xi) of the modified rate drives the interface-generation
barriers.  The ODE w' = f(w) is autonomous and scalar, so the semiflow is
exact through its time-map: G' = 1/f is monotone between the zeros -1,
eps|ln eps| and 1 of f, and w(s, xi) solves G(w) = G(xi) + s on the branch
of xi.

The cutoff support is tied to the epsilon scales: psi = 1 on
[-eps/2, min(CUTOFF_INNER, 3 eps|ln eps|)] and vanishes outside
[-eps, min(CUTOFF_OUTER, 6 eps|ln eps|)].  A fixed, epsilon-independent
support cannot work: on the negative side the slow linear rate would exceed
u(1-u) (breaking the one-sided modification inequality), and on the positive
side the slow zone would widen as eps -> 0, destroying the eps-uniform
generation time.  Validity is checked at construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .smoothing import smoothstep

EPS_MAX = 1.0 / math.e  # |ln eps| > 1 to the left of this
CUTOFF_INNER = 0.25  # psi = 1 up to min(CUTOFF_INNER, 3 eps|ln eps|)
CUTOFF_OUTER = 0.5  # psi = 0 from min(CUTOFF_OUTER, 6 eps|ln eps|)
KNEE = -0.5  # the bistable extension leaves u(1-u) below this
# The largest datum fitted_generation_alpha brings down to 1 + eps; it
# exceeds 1 + eps for every eps < EPS_MAX.
ALPHA_XI_HI = 2.0


def eps_log(epsilon):
    """The generation scale eps * |ln eps|."""
    return epsilon * abs(math.log(epsilon))


@dataclass(frozen=True)
class KineticsParams:
    """The layer parameter eps; the cutoff and extension geometry are the
    module constants."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < EPS_MAX:
            raise ConfigurationError("epsilon must lie in (0, 1/e)")
        if eps_log(self.epsilon) >= CUTOFF_INNER:
            raise ConfigurationError(
                "eps|ln eps| must stay below CUTOFF_INNER (epsilon too large)"
            )
        u = np.linspace(-2.0, 2.0, 10_000)
        gap = modified_logistic(u, self) - bistable_logistic(u)
        if float(gap.max()) > 1e-12:
            raise ConfigurationError(
                "modified rate exceeds the bistable rate (epsilon too large)"
            )

    @property
    def log_eps(self):
        return abs(math.log(self.epsilon))

    @property
    def threshold(self):
        return eps_log(self.epsilon)

    # psi support edges; positive side follows the eps|ln eps| scale,
    # negative side the eps scale (see module docstring).
    @property
    def pos_inner(self):
        return min(CUTOFF_INNER, 3.0 * self.threshold)

    @property
    def pos_outer(self):
        return min(CUTOFF_OUTER, 6.0 * self.threshold)

    @property
    def neg_inner(self):
        return 0.5 * self.epsilon

    @property
    def neg_outer(self):
        return self.epsilon


def bistable_logistic(u):
    """u(1-u) extended bistably: zeros at -1, 0, 1 with -1 and 1 stable.

    f = u(1-u) q(u): q = 1 on u >= KNEE, 1 - ((KNEE-u)/(KNEE+1))^3 below,
    so q(-1) = 0 with q'(-1) > 0 and C2 matching at the knee.
    """
    u = np.asarray(u, dtype=float)
    s = 1.0 / (KNEE + 1.0)
    v = (KNEE - u) * s
    below = u < KNEE
    q = np.where(below, 1.0 - v**3, 1.0)
    core = u * (1.0 - u)
    out = core * q
    return out if out.ndim else float(out)


def _cutoff(u, p: KineticsParams):
    """psi, the C2 cutoff; 1 near [0, eps|ln eps|], 0 far out."""
    u = np.asarray(u, dtype=float)
    psi = np.ones_like(u)

    a, b = p.pos_inner, p.pos_outer
    pos = (u > a) & (u < b)
    t = (u - a) / (b - a)
    psi = np.where(pos, 1.0 - smoothstep(t), psi)
    psi = np.where(u >= b, 0.0, psi)

    a, b = p.neg_inner, p.neg_outer
    neg = (u < -a) & (u > -b)
    t = (-u - a) / (b - a)
    psi = np.where(neg, 1.0 - smoothstep(t), psi)
    psi = np.where(u <= -b, 0.0, psi)
    return psi


def modified_logistic(u, p: KineticsParams):
    """The eps-modified rate: slow linear near the origin, bistable outside.

    Vanishes at u = eps|ln eps|; never exceeds bistable_logistic (checked at
    construction of KineticsParams).
    """
    u = np.asarray(u, dtype=float)
    psi = _cutoff(u, p)
    f = bistable_logistic(u)
    lin = (u - p.threshold) / p.log_eps
    out = psi * lin + (1.0 - psi) * f
    return out if out.ndim else float(out)


# --- the time-map ----------------------------------------------------------

_GL_ORDER = 16  # Gauss-Legendre nodes per panel
_U_MIN = -(2.0**20)  # smallest tabulated xi
# Log coordinate y = ln|u + 1| next to the zero at -1: below the floor,
# -1 + e^y lies within one ulp of -1.
_Y_FLOOR = -36.0
_NEWTON_TOL = 1e-12  # on y
_NEWTON_MAX = 100
_QUAD, _LIN, _LOG = 0, 1, 2  # panel kinds


class _TimeMap:
    """The time-map G (G' = 1/f) of one KineticsParams, and its inverse.

    Panels split the line at every breakpoint of f and at its zeros.  G has
    closed forms where f is exactly linear (psi = 1, around eps|ln eps|) and
    exactly logistic (above pos_outer, around 1).  On the remaining panels
    G(u) = ln|u + 1| / f'(-1) + R(u); the remainder R is smooth through the
    zero at -1 and is integrated by Gauss-Legendre from its tabulated value
    at the panel edge farther from -1.  Every operation is elementwise, so a
    point's value never depends on the other points of its batch.
    """

    def __init__(self, p: KineticsParams):
        kap = KNEE + 1.0
        self.p = p
        self.lam = -6.0 / kap  # f'(-1)
        self.gl_t, self.gl_w = np.polynomial.legendre.leggauss(_GL_ORDER)

        # Panels: a geometric tail to _U_MIN, four to the knee, a geometric
        # approach to the pole of 1/(u(1-u)) at 0, the negative blend, the
        # two linear panels, the positive blend and the two logistic ones.
        steps = 0.25 * kap * 2.0 ** np.arange(64)
        tail = -1.0 - steps[-1.0 - steps > _U_MIN]
        geo = -p.epsilon * 2.0 ** np.arange(64)
        left = np.unique(np.concatenate((
            [_U_MIN, -1.0], tail, np.linspace(-1.0, KNEE, 5), geo[geo > KNEE],
            np.linspace(-p.neg_outer, -p.neg_inner, 5))))
        right = np.linspace(p.pos_inner, p.pos_outer, 9)
        self.edges = np.concatenate(
            (left, [p.threshold], right, [1.0, np.inf]))
        n_left = left.size - 1
        self.kind = np.array([_QUAD] * n_left + [_LIN] * 2 + [_QUAD] * 8
                             + [_LOG] * 2)
        self.k_theta = n_left + 1  # the linear panel right of theta
        self.k_one = self.kind.size - 1  # the logistic panel right of 1

        # Remainder R at each quadrature panel's anchor, cumulated outward
        # from R(-1) = 0 on the left and from the value matching the linear
        # panel at pos_inner on the right.
        a, b = self.edges[:-1], self.edges[1:]
        quad = self.kind == _QUAD
        self.side = np.where(b <= -1.0, -1.0, 1.0)
        self.anchor = np.where(b <= -1.0, a, b)
        near = np.where(b <= -1.0, b, a)
        span = np.zeros_like(a)
        span[quad] = self._r_integral(self.anchor[quad], near[quad])
        self.r_anchor = np.zeros_like(a)
        k_m1 = np.count_nonzero(b[:n_left] <= -1.0)
        for order in (np.arange(k_m1)[::-1], np.arange(k_m1, n_left)):
            self.r_anchor[order] = -np.cumsum(span[order])
        k = n_left - 1  # anchored at -eps/2
        g_left = math.log(1.0 - p.neg_inner) / self.lam + self.r_anchor[k]
        self.c_lin = g_left - p.log_eps * math.log(p.threshold + p.neg_inner)
        g_inner = p.log_eps * math.log(p.pos_inner - p.threshold) + self.c_lin
        blend = np.arange(n_left + 2, n_left + 10)  # pos_inner to pos_outer
        self.r_anchor[blend] = (g_inner - math.log(1.0 + p.pos_inner) / self.lam
                                - np.cumsum(span[blend]))
        g_outer = math.log(1.0 + p.pos_outer) / self.lam + self.r_anchor[blend[-1]]
        self.c_log = (g_outer - math.log(p.pos_outer)
                      + math.log(1.0 - p.pos_outer))

        # Newton brackets of the quadrature panels in y = ln|u + 1|.
        with np.errstate(divide="ignore", invalid="ignore"):
            self.y_near = np.where(near == -1.0, _Y_FLOOR,
                                   np.log(np.abs(near + 1.0)))
            self.y_far = np.log(np.abs(self.anchor + 1.0))
        k = np.flatnonzero(quad)
        self.g_near = np.full_like(a, np.nan)
        self.g_far = np.full_like(a, np.nan)
        self.g_near[k] = self._g_quad(
            -1.0 + self.side[k] * np.exp(self.y_near[k]), self.y_near[k], k)
        self.g_far[k] = self.y_far[k] / self.lam + self.r_anchor[k]

        # Per branch between the zeros: its first panel, the orientation of
        # G, and G at the branch's interior panel edges.
        zeros = np.searchsorted(self.edges, [-1.0, p.threshold, 1.0])
        starts = np.concatenate(([0], zeros))
        stops = np.concatenate((zeros, [self.kind.size]))
        self.branches = []
        for k0, k1, sign in zip(starts, stops, (1.0, -1.0, 1.0, -1.0)):
            inner = np.arange(k0 + 1, k1)
            self.branches.append((k0, sign, sign * self._g(a[inner], inner)))

    def _r_integral(self, lo, hi):
        """Gauss-Legendre integral of r = 1/f - 1/(f'(-1)(u + 1)) from lo to
        hi, pointwise; the sum over nodes runs in a fixed order."""
        h = 0.5 * (hi - lo)
        x = lo[:, None] + h[:, None] * (1.0 + self.gl_t)
        r = 1.0 / modified_logistic(x, self.p) - 1.0 / (self.lam * (x + 1.0))
        acc = np.zeros_like(h)
        for j in range(_GL_ORDER):
            acc += self.gl_w[j] * r[:, j]
        return h * acc

    def _g_quad(self, u, y, k):
        """G at u = -1 + side e^y on quadrature panels k."""
        return (y / self.lam + self.r_anchor[k]
                + self._r_integral(self.anchor[k], u))

    def _g(self, u, k):
        """G at u on panels k (no zero of f among u)."""
        p, kind = self.p, self.kind[k]
        out = np.empty_like(u)
        m = kind == _LIN
        out[m] = p.log_eps * np.log(np.abs(u[m] - p.threshold)) + self.c_lin
        m = kind == _LOG
        out[m] = (np.log(np.abs(u[m])) - np.log(np.abs(1.0 - u[m]))
                  + self.c_log)
        m = kind == _QUAD
        out[m] = self._g_quad(u[m], np.log(np.abs(u[m] + 1.0)), k[m])
        return out

    def panel(self, u):
        return np.searchsorted(self.edges, u, side="right") - 1

    def g(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return self._g(u, self.panel(u))

    def flow(self, s, xi):
        """w(s, xi) for a 1-D array xi in [_U_MIN, inf)."""
        p = self.p
        w = xi.copy()
        moving = (xi != -1.0) & (xi != p.threshold) & (xi != 1.0)
        x = xi[moving]
        target = self._g(x, self.panel(x)) + s
        branch = np.searchsorted([-1.0, p.threshold, 1.0], x)
        k = np.empty(x.shape, dtype=np.intp)
        for b, (k0, sign, g_inner) in enumerate(self.branches):
            m = branch == b
            k[m] = k0 + np.searchsorted(g_inner, sign * target[m], side="right")
        w[moving] = self._invert(target, k)
        return w

    def _invert(self, target, k):
        """The u on panel k with G(u) = target."""
        p, kind = self.p, self.kind[k]
        w = np.empty_like(target)
        m = kind == _LIN
        sign = np.where(k[m] == self.k_theta, 1.0, -1.0)
        w[m] = p.threshold + sign * np.exp((target[m] - self.c_lin) / p.log_eps)
        m = k == self.k_one - 1
        w[m] = 1.0 / (1.0 + np.exp(self.c_log - target[m]))
        m = k == self.k_one
        w[m] = -1.0 / np.expm1(self.c_log - target[m])
        m = kind == _QUAD
        w[m] = self._newton(target[m], k[m])
        return w

    def _newton(self, target, k):
        """Safeguarded Newton in y = ln|u + 1| on quadrature panels k; each
        point stops on its own step size."""
        side = self.side[k]
        lo, hi = self.y_near[k].copy(), self.y_far[k].copy()
        g_lo, g_hi = self.g_near[k], self.g_far[k]
        rising = g_hi > g_lo  # G against y: falls next to -1, rises above
        y = lo + (hi - lo) * (target - g_lo) / (g_hi - g_lo)
        floor = (lo == _Y_FLOOR) & (target >= g_lo)  # within an ulp of -1
        y[floor] = -np.inf
        live = np.flatnonzero(~floor)
        for _ in range(_NEWTON_MAX):
            if live.size == 0:
                break
            yl, kl = y[live], k[live]
            e = np.exp(yl)
            u = -1.0 + side[live] * e
            resid = self._g_quad(u, yl, kl) - target[live]
            short = np.where(rising[live], -resid, resid)  # > 0: root above yl
            lo[live] = np.where(short > 0.0, yl, lo[live])
            hi[live] = np.where(short < 0.0, yl, hi[live])
            step = resid * modified_logistic(u, self.p) / (side[live] * e)
            yn = yl - step
            inside = (yn > lo[live]) & (yn < hi[live])
            yn = np.where(inside, yn, 0.5 * (lo[live] + hi[live]))
            done = np.abs(yn - yl) <= _NEWTON_TOL
            y[live] = yn
            live = live[~done]
        if live.size:
            raise NumericalError("time-map inversion did not converge",
                                 diagnostic=target[live])
        return -1.0 + side * np.exp(y)


@functools.lru_cache(maxsize=16)
def _time_map(p: KineticsParams) -> _TimeMap:
    """The time-map of p, built on first use."""
    return _TimeMap(p)


def semiflow(s, xi, p: KineticsParams):
    """w(s, xi): value at time s of dw/ds = modified rate, w(0) = xi.

    Exact through the time-map: w solves G(w) = G(xi) + s with G' = 1/f on
    the branch of xi between the zeros -1, eps|ln eps| and 1 (which are
    fixed points).  xi may be a scalar or an array with entries >= -2^20;
    each distinct value is computed once, on its own, so a point's value
    does not depend on the others.
    """
    if not s >= 0.0:
        raise DomainError("s must be nonnegative")
    xi_arr = np.asarray(xi, dtype=float)
    if s == 0.0:
        out = xi_arr.copy()
    else:
        flat = xi_arr.ravel()
        if flat.size and not (np.all(np.isfinite(flat)) and flat.min() >= _U_MIN):
            raise DomainError("semiflow needs finite xi >= -2^20")
        distinct, where = np.unique(flat, return_inverse=True)
        out = _time_map(p).flow(float(s), distinct)[where].reshape(xi_arr.shape)
    return out if np.ndim(xi) else float(out)


def fitted_generation_alpha(p: KineticsParams):
    """Smallest alpha with w(alpha |ln eps|, 3 eps|ln eps|) >= 1 - eps and
    w(alpha |ln eps|, ALPHA_XI_HI) <= 1 + eps: the longer of the passage
    times G(1 - eps) - G(3 eps|ln eps|) and G(1 + eps) - G(ALPHA_XI_HI),
    over |ln eps|."""
    eps, start = p.epsilon, 3.0 * p.threshold
    if start >= 1.0 - eps:
        raise DomainError("3 eps|ln eps| already exceeds 1 - eps")
    g = _time_map(p).g
    s_low = float(np.diff(g([start, 1.0 - eps]))[0])
    s_high = float(np.diff(g([ALPHA_XI_HI, 1.0 + eps]))[0])
    return max(s_low, s_high) / p.log_eps
