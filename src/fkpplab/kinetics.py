"""Reaction rates and the auxiliary ODE semiflow.

The reaction of the scaled equation is f(u) = u(1-u); its exact flow is the
solver's reaction step (solver.Stepper.reaction).  The interface-generation
barrier needs an epsilon-modification of it whose unstable zero sits at
theta = eps*|ln eps| instead of 0: near the origin the rate is the slow
linear (u - theta)/|ln eps|, blended back into u(1-u) by a C2 cutoff psi,
and the modified rate never exceeds u(1-u) on u >= 0.

The barrier reads the semiflow w(s, xi) of the modified rate only through
max(0, w), and that is what semiflow returns.  Data xi <= 0 give 0.  On
(0, theta) the rate is linear, so w = theta - (theta - xi) e^{s/|ln eps|}
until it reaches 0.  Above theta the ODE w' = f(w) is autonomous and scalar,
so the semiflow is exact through its time-map: G' = 1/f is monotone on
(theta, 1) and on (1, inf), and w(s, xi) solves G(w) = G(xi) + s on the
branch of xi.

The cutoff support is tied to the generation scale: psi = 1 up to
min(CUTOFF_INNER, 3 eps|ln eps|) and vanishes from
min(CUTOFF_OUTER, 6 eps|ln eps|).  A fixed, epsilon-independent support
cannot work: the slow zone would widen relative to theta as eps -> 0,
destroying the eps-uniform generation time.  Validity is checked at
construction.
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


def eps_log(epsilon):
    """The generation scale eps * |ln eps|, on the layer domain (0, 1/e) of
    eps; any other epsilon is a ConfigurationError."""
    if not 0.0 < epsilon < EPS_MAX:
        raise ConfigurationError(f"epsilon = {epsilon:g} must lie in (0, 1/e)")
    return epsilon * abs(math.log(epsilon))


@dataclass(frozen=True)
class KineticsParams:
    """The layer parameter eps; the cutoff geometry is the module
    constants."""

    epsilon: float

    def __post_init__(self):
        if eps_log(self.epsilon) >= CUTOFF_INNER:
            raise ConfigurationError(
                "eps|ln eps| must stay below CUTOFF_INNER (epsilon too large)"
            )
        # modified - u(1-u) = -psi g, psi in [0, 1] and 0 from pos_outer on;
        # g = u(1-u) - (u - theta)/|ln eps| is concave with g(0) = eps > 0
        u = self.pos_outer
        if u * (1.0 - u) - (u - self.threshold) / self.log_eps < 0.0:
            raise ConfigurationError(
                "modified rate exceeds u(1-u) (epsilon too large)"
            )

    @property
    def log_eps(self):
        return abs(math.log(self.epsilon))

    @property
    def threshold(self):
        return eps_log(self.epsilon)

    # psi support edges, on the eps|ln eps| scale (see module docstring)
    @property
    def pos_inner(self):
        return min(CUTOFF_INNER, 3.0 * self.threshold)

    @property
    def pos_outer(self):
        return min(CUTOFF_OUTER, 6.0 * self.threshold)


def modified_logistic(u, p: KineticsParams):
    """The eps-modified rate psi (u - theta)/|ln eps| + (1 - psi) u(1-u) on
    u >= 0, with the C2 cutoff psi = 1 up to pos_inner and 0 from pos_outer.

    Vanishes at u = theta = eps|ln eps|; never exceeds u(1-u) (checked at
    construction of KineticsParams).
    """
    u = np.asarray(u, dtype=float)
    psi = 1.0 - smoothstep((u - p.pos_inner) / (p.pos_outer - p.pos_inner))
    lin = (u - p.threshold) / p.log_eps
    out = psi * lin + (1.0 - psi) * (u * (1.0 - u))
    return out if out.ndim else float(out)


# --- the time-map on (theta, inf) ------------------------------------------

_GL_ORDER = 16  # Gauss-Legendre nodes per blend panel
_BLEND_PANELS = 8  # from pos_inner to pos_outer
_NEWTON_TOL = 1e-12  # on u
_NEWTON_MAX = 100


class _TimeMap:
    """The time-map G (G' = 1/f) of one KineticsParams on (theta, inf), and
    its inverse.

    G is closed-form where f is exactly linear, G = |ln eps| ln(u - theta)
    on (theta, pos_inner), and exactly logistic,
    G = ln u - ln|1 - u| + c_log from pos_outer on.  On the blend panels
    between them G(u) = G(a) + int_a^u 1/f, a the panel's left edge, by
    Gauss-Legendre.  Every operation is elementwise, so a point's value
    never depends on the other points of its batch.
    """

    def __init__(self, p: KineticsParams):
        self.p = p
        self.gl_t, self.gl_w = np.polynomial.legendre.leggauss(_GL_ORDER)
        self.edges = np.linspace(p.pos_inner, p.pos_outer, _BLEND_PANELS + 1)
        spans = self._integral(self.edges[:-1], self.edges[1:])
        g_inner = p.log_eps * math.log(p.pos_inner - p.threshold)
        self.g_edges = g_inner + np.concatenate(([0.0], np.cumsum(spans)))
        self.c_log = (self.g_edges[-1] - math.log(p.pos_outer)
                      + math.log(1.0 - p.pos_outer))

    def _integral(self, lo, hi):
        """Gauss-Legendre integral of 1/f from lo to hi, pointwise; the sum
        over nodes runs in a fixed order."""
        h = 0.5 * (hi - lo)
        x = lo[:, None] + h[:, None] * (1.0 + self.gl_t)
        r = 1.0 / modified_logistic(x, self.p)
        acc = np.zeros_like(h)
        for j in range(_GL_ORDER):
            acc += self.gl_w[j] * r[:, j]
        return h * acc

    def _g_blend(self, u, k):
        """G at u on blend panels k."""
        return self.g_edges[k] + self._integral(self.edges[k], u)

    def flow(self, s, xi):
        """w(s, xi) for a 1-D array xi in (theta, inf) without 1."""
        p = self.p
        # Panels: -1 linear, 0 .. _BLEND_PANELS - 1 blend, _BLEND_PANELS
        # logistic; the panel of xi by u, the panel of w by G.
        k = np.searchsorted(self.edges, xi, side="right") - 1
        target = np.empty_like(xi)
        m = k < 0
        target[m] = p.log_eps * np.log(xi[m] - p.threshold)
        m = k == _BLEND_PANELS
        target[m] = np.log(xi[m]) - np.log(np.abs(1.0 - xi[m])) + self.c_log
        m = (k >= 0) & (k < _BLEND_PANELS)
        target[m] = self._g_blend(xi[m], k[m])
        target += s

        w = np.empty_like(xi)
        above = xi > 1.0  # G falls on (1, inf): w decreases to 1
        w[above] = -1.0 / np.expm1(self.c_log - target[above])
        k = np.searchsorted(self.g_edges, target, side="right") - 1
        m = ~above & (k < 0)
        w[m] = p.threshold + np.exp(target[m] / p.log_eps)
        m = ~above & (k == _BLEND_PANELS)
        w[m] = 1.0 / (1.0 + np.exp(self.c_log - target[m]))
        m = ~above & (k >= 0) & (k < _BLEND_PANELS)
        w[m] = self._newton(target[m], k[m])
        return w

    def _newton(self, target, k):
        """The u on blend panels k with G(u) = target: Newton in u kept in
        its bracket by bisection; each point stops on its own step size."""
        lo, hi = self.edges[k], self.edges[k + 1]
        g_lo, g_hi = self.g_edges[k], self.g_edges[k + 1]
        u = lo + (hi - lo) * (target - g_lo) / (g_hi - g_lo)
        live = np.arange(u.size)
        for _ in range(_NEWTON_MAX):
            if live.size == 0:
                break
            ul = u[live]
            resid = self._g_blend(ul, k[live]) - target[live]
            lo[live] = np.where(resid < 0.0, ul, lo[live])
            hi[live] = np.where(resid > 0.0, ul, hi[live])
            un = ul - resid * modified_logistic(ul, self.p)
            inside = (un > lo[live]) & (un < hi[live])
            un = np.where(inside, un, 0.5 * (lo[live] + hi[live]))
            done = np.abs(un - ul) <= _NEWTON_TOL
            u[live] = un
            live = live[~done]
        if live.size:
            raise NumericalError("time-map inversion did not converge",
                                 diagnostic=target[live])
        return u


@functools.lru_cache(maxsize=16)
def _time_map(p: KineticsParams) -> _TimeMap:
    """The time-map of p, built on first use."""
    return _TimeMap(p)


def semiflow(s, xi, p: KineticsParams):
    """max(0, w(s, xi)), with w(s, xi) the value at time s of
    dw/ds = modified rate, w(0) = xi.

    0 for xi <= 0; theta - (theta - xi) e^{s/|ln eps|}, while positive, on
    (0, theta) with theta = eps|ln eps|; above theta exact through the
    time-map (theta and 1 are fixed points).  xi may be a scalar or an array
    of finite values; every operation is elementwise, so a point's value
    does not depend on the others.
    """
    if not s >= 0.0:
        raise DomainError("s must be nonnegative")
    xi_arr = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi_arr)):
        raise DomainError("semiflow needs finite xi")
    w = np.maximum(xi_arr.ravel(), 0.0)
    if s > 0.0:
        theta = p.threshold
        low = (w > 0.0) & (w < theta)
        with np.errstate(over="ignore"):
            decay = theta - (theta - w[low]) * np.exp(s / p.log_eps)
        w[low] = np.maximum(decay, 0.0)
        moving = (w > theta) & (w != 1.0)
        w[moving] = _time_map(p).flow(float(s), w[moving])
    out = w.reshape(xi_arr.shape)
    return out if np.ndim(xi) else float(out)
