"""Sub- and super-solutions that sandwich the PDE solution.

Each barrier is an analytic function of (t, x) built from the ODE semiflow,
a travelling-wave profile, and a signed distance; the comparison principle
says the numerical solution must stay on the right side of each of them.
The module evaluates the barriers and the discrete operator

    L[v] = v_t - eps Lap v - v(1 - v)/eps

so the harness can check both the orderings and the residual signs.

Barriers at a glance (all vectorized over the spatial argument):

* generation_sub  -- max(0, w(t/eps, g(x) - K t)); valid on the short
  generation window, equals g at t = 0.
* generation_super -- the spatially constant w(t/eps, sup g + M).
* global_super    -- K_hat * U((d(0,x) - 2 t)/eps) with the minimal-speed
  wave U; needs K_hat >= k0_lower_bound (deliberately not enforced here so
  a sabotaged amplitude can be seen to fail the ordering check).
* motion_sub      -- (1-eps) V((d(t,x) + eps|ln eps| m1 e^{m2 t})/eps) with
  the sign-changing wave V truncated at its first zero.
* radial_sub_W    -- expanding-shell sub-solution from a c > 2 wave; with
  ``anchor`` set it becomes the one-sided plateau variant pinned at
  U = anchor behind the shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .geometry import ConvexBody, CutoffDistance
from .grids import Field, Grid
from .kinetics import KineticsParams, eps_log, semiflow
from .solver import (THRESHOLD_K, InitialData, compact_value, _apply_lap,
                     _lap_coeffs)
from .waves import WaveProfile, decay_rate


# discrete_residual's time step, in units of dx.
RESIDUAL_DT = 0.25


@dataclass
class BarrierParams:
    """Constants parameterizing the barriers.

    K: drift of the generation sub-solution argument.
    K_hat: amplitude of the global super-solution (>= K0 for a valid barrier).
    k: generation threshold constant (g >= k eps|ln eps|).
    alpha: generation-time constant (t_gen = alpha eps|ln eps|), measured.
    m1, m2: motion sub-solution shift constants.
    c1: interior shell speed of the no-interface barrier (0 < c1 < c).
    rho: plateau half-width of the no-interface barrier.
    """

    K: float = 2.0
    K_hat: float = 2.0
    k: float = THRESHOLD_K
    alpha: float = 2.0
    m1: float = 1.0
    m2: float = 1.0
    c1: float = 2.5
    rho: float = 10.0


def m1_recipe(initial: InitialData):
    """Smallest shift making the motion barrier start under the generated
    profile: the edge ramp gives g >= A(-d)/w, so d <= -(k w / A) eps|ln eps|
    forces g >= k eps|ln eps|, k = THRESHOLD_K."""
    return THRESHOLD_K * initial.width / initial.amplitude


def c_const_recipe(t_end, m1, m2, mu):
    """Tube constant large enough for the band argument:
    > max(1, 2(2T + m1 e^{m2 T}), 2/mu)."""
    return 1.01 * max(1.0, 2.0 * (2.0 * t_end + m1 * math.exp(m2 * t_end)), 2.0 / mu)


def generation_sub(t, x, bp: BarrierParams, kin: KineticsParams,
                   initial: InitialData, epsilon: float):
    """max(0, w(t/eps, g(x) - K t)): pushes the data through the ODE while a
    drift -K t absorbs the neglected diffusion.  Equals g at t = 0 and
    vanishes outside the support of g."""
    xi = compact_value(initial, x) - bp.K * t
    w = semiflow(t / epsilon, xi, kin)
    return np.maximum(0.0, w)


def generation_super(t, bp: BarrierParams, kin: KineticsParams,
                     initial: InitialData, epsilon: float):
    """Spatially constant super-solution w(t/eps, sup u0)."""
    return float(semiflow(t / epsilon, initial.sup_norm, kin))


def k0_lower_bound(wave: WaveProfile, initial: InitialData):
    """Amplitude floor max(1, M/m-, (sup g + M)/U(0)) for the global
    super-solution; m- is the exponential minorant constant of the wave at
    the tail rate of the data."""
    if wave.tail_right is None:
        raise DomainError("the global super-solution needs a monotone wave")
    g_sup = initial.g_sup
    M = initial.tail_cap
    u0 = wave.evaluate(0.0)
    terms = [1.0, (g_sup + M) / u0]
    if M > 0.0:
        terms.append(M / wave.exp_minorant(initial.tail[0]))
    return max(terms)


def global_super(t, x, bp: BarrierParams, wave: WaveProfile,
                 body: ConvexBody, epsilon: float):
    """K_hat * U((d(0,x) - 2 t)/eps): a travelling-wave envelope launched
    from the initial interface at the minimal speed."""
    d0 = body.signed_distance(x)
    return bp.K_hat * wave.evaluate((d0 - 2.0 * t) / epsilon)


def motion_sub(t, x, bp: BarrierParams, wave: WaveProfile,
               cd: CutoffDistance, epsilon: float):
    """(1 - eps) V(theta), theta = (d(t,x) + eps|ln eps| m1 e^{m2 t})/eps,
    with V the sign-changing wave truncated to zero at its first zero."""
    if wave.normalization != "zero_at_zero":
        raise ConfigurationError("motion barrier needs a sign-changing wave")
    if abs(cd.speed - wave.c) > 1e-12:
        raise ConfigurationError("distance speed and wave speed disagree")
    d = cd.cutoff(t, x)
    theta = (d + eps_log(epsilon) * bp.m1 * math.exp(bp.m2 * t)) / epsilon
    theta = np.asarray(theta, dtype=float)
    out = np.where(theta < 0.0, (1.0 - epsilon) * wave.evaluate(theta), 0.0)
    return float(out) if out.ndim == 0 else out


def radial_sub_W(t, r, bp: BarrierParams, wave: WaveProfile, epsilon: float,
                 n_dim: int, initial: InitialData | None = None, anchor=None):
    """Expanding-shell sub-solution v0((r - c1 t)/eps) from a wave at c > 2.

    Without an anchor, v0 is U(rho) on the shell |s| <= rho and U(|s|)
    outside; rho must satisfy rho >= (N-1)/(c - c1), rho >= n/lam_c, and the
    data condition m/(1 + rho^n) >= M_c e^{-lam_c rho} (checked against the
    algebraic initial data).  With ``anchor`` in (0, 1) the plateau is
    one-sided at height anchor for all s <= rho, the shifted-wave variant
    used to chase the pointwise limit.
    """
    c = wave.c
    if c <= 2.0:
        raise ConfigurationError("shell barrier needs a wave speed c > 2")
    if not 0.0 < bp.c1 < c:
        raise ConfigurationError("need 0 < c1 < c")
    lam_c = decay_rate(c)
    if bp.rho < (n_dim - 1) / (c - bp.c1) - 1e-12:
        raise ConfigurationError(
            f"rho violates the curvature condition rho >= (N-1)/(c-c1) "
            f"= {(n_dim - 1) / (c - bp.c1):g}"
        )
    s = (np.asarray(r, dtype=float) - bp.c1 * t) / epsilon
    if anchor is None:
        if initial is None or initial.variant != "algebraic":
            raise ConfigurationError("shell barrier is built over algebraic data")
        if bp.rho < initial.n / lam_c - 1e-12:
            raise ConfigurationError(
                f"rho violates the tail condition rho >= n/lam_c = {initial.n / lam_c:g}"
            )
        M_c = wave.exp_majorant(lam_c)
        if initial.m / (1.0 + bp.rho**initial.n) < M_c * math.exp(-lam_c * bp.rho):
            raise ConfigurationError(
                "rho violates the data condition m/(1+rho^n) >= M_c e^{-lam_c rho}"
            )
        out = np.where(np.abs(s) <= bp.rho,
                       wave.evaluate(bp.rho), wave.evaluate(np.abs(s)))
    else:
        if not 0.0 < anchor < 1.0:
            raise ConfigurationError("anchor must lie in (0, 1)")
        z_a = wave.level_position(anchor)
        out = np.where(s <= bp.rho, anchor, wave.evaluate(z_a + s - bp.rho))
    return float(out) if out.ndim == 0 else out


def xi_eps(epsilon: float, bp: BarrierParams, initial: InitialData):
    """Radius inside which algebraic data exceeds the generation threshold:
    eps * (m/(k eps|ln eps|) - 1)^{1/n}."""
    if initial.variant != "algebraic":
        raise DomainError("threshold radius applies to algebraic data")
    thr = bp.k * eps_log(epsilon)
    if thr >= initial.m:
        raise DomainError("generation threshold exceeds the data plateau")
    return epsilon * (initial.m / thr - 1.0) ** (1.0 / initial.n)


def discrete_residual(v, t, grid: Grid, epsilon: float) -> Field:
    """L[v] = v_t - eps Lap v - v(1-v)/eps on the grid, with central
    differences in time (step dx * RESIDUAL_DT) and the solver's discrete
    Laplacian in space.  v is a callable v(t, x) over grid coordinates."""
    dt = grid.dx * RESIDUAL_DT
    x = grid.points() if grid.mode == "plane" else grid.axis(0)
    vm = np.asarray(v(t - dt, x), dtype=float)
    v0 = np.asarray(v(t, x), dtype=float)
    vp = np.asarray(v(t + dt, x), dtype=float)
    lap = _apply_lap(_lap_coeffs(grid, 0), v0) / grid.dx**2
    if grid.mode == "plane":
        lap += _apply_lap(_lap_coeffs(grid, 1), v0.T).T / grid.dx**2
    res = (vp - vm) / (2.0 * dt) - epsilon * lap - v0 * (1.0 - v0) / epsilon
    return Field(grid, res)
