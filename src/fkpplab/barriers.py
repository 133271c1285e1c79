"""Sub- and super-solutions that sandwich the PDE solution.

Each barrier is an analytic function of (t, x) built from the ODE semiflow,
a travelling-wave profile, and a signed distance; the comparison principle
says the numerical solution must stay on the right side of each of them.
The module evaluates the barriers and the discrete operator

    L[v] = v_t - eps Lap v - v(1 - v)/eps

so the harness can check both the orderings and the residual signs.

Barriers at a glance (all vectorized over the spatial argument):

* generation_sub  -- max(0, w(t/eps, g(x) - K t)) with w the semiflow of
  the eps-modified rate; valid on the short generation window, equals g at
  t = 0.
* generation_super -- the spatially constant logistic flow
  xi / (xi + (1 - xi) e^{-t/eps}) of xi = sup u0 (sup g + M with a tail).
* global_super    -- K_hat * U((d(0,x) - 2 t)/eps) with the minimal-speed
  wave U; needs K_hat >= k0_lower_bound (deliberately not enforced here so
  a sabotaged amplitude can be seen to fail the ordering check).
* motion_sub      -- (1-eps) V(theta), theta = motion_theta(t, x) =
  (d(t,x) + eps|ln eps| m1 e^{M2 t})/eps, with the sign-changing wave V
  truncated at its first zero and d the cutoff distance to the body's
  front moving at V's speed.
* radial_sub_W    -- expanding-shell sub-solution U(max(rho, |s|)) from a
  c > 2 wave over algebraic data, s = shell_coordinate(t, r).

Each barrier takes only the constants it reads; those with one value in
use (M2, SHELL_C1, SHELL_RHO) are module constants.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DomainError
from .geometry import ConvexBody, cutoff_distance
from .grids import Field, Grid, laplacian_rows, tridiagonal_product
from .kinetics import KineticsParams, eps_log, semiflow
from .solver import THRESHOLD_K, InitialData, compact_value
from .waves import WaveProfile, decay_rate


# discrete_residual's time step, in units of dx.
RESIDUAL_DT = 0.25
# The motion sub-solution's shift grows like m1 e^{M2 t}.
M2 = 1.0
# The expanding-shell barrier: interior shell speed c1 (0 < c1 < 2 < c)
# and plateau half-width rho.
SHELL_C1 = 1.25
SHELL_RHO = 14.0


def m1_recipe(initial: InitialData):
    """Smallest shift making the motion barrier start under the generated
    profile: the edge ramp gives g >= A(-d)/w, so d <= -(k w / A) eps|ln eps|
    forces g >= k eps|ln eps|, k = THRESHOLD_K."""
    return THRESHOLD_K * initial.width / initial.amplitude


def generation_sub(t, x, K, kin: KineticsParams, initial: InitialData):
    """max(0, w(t/eps, g(x) - K t)), which kinetics.semiflow returns: pushes
    the data through the ODE while a drift -K t absorbs the neglected
    diffusion.  Equals g at t = 0 and vanishes outside the support of g."""
    xi = compact_value(initial, x) - K * t
    return semiflow(t / kin.epsilon, xi, kin)


def generation_super(t, epsilon: float, initial: InitialData):
    """Spatially constant super-solution: the logistic flow
    xi / (xi + (1 - xi) e^{-t/eps}) of xi = sup u0, an exact solution of the
    equation that starts above the data."""
    xi = initial.sup_norm
    return 1.0 / (1.0 + (1.0 - xi) / xi * math.exp(-t / epsilon))


def k0_lower_bound(wave: WaveProfile, initial: InitialData):
    """Amplitude floor max(1, sup g / U(0)) for the global super-solution
    over tail-free data."""
    if wave.tail_right is None:
        raise DomainError("the global super-solution needs a monotone wave")
    if initial.tail is not None:
        raise DomainError("the barrier check takes tail-free data")
    return max(1.0, initial.amplitude / wave.evaluate(0.0))


def global_super(t, x, K_hat, wave: WaveProfile, body: ConvexBody,
                 epsilon: float):
    """K_hat * U((d(0,x) - 2 t)/eps): a travelling-wave envelope launched
    from the initial interface at the minimal speed."""
    d0 = body.signed_distance(x)
    return K_hat * wave.evaluate((d0 - 2.0 * t) / epsilon)


def motion_theta(t, x, m1, wave: WaveProfile, body: ConvexBody,
                 epsilon: float):
    """The motion sub-solution's argument
    theta = (d(t,x) + eps|ln eps| m1 e^{M2 t})/eps, with d the cutoff
    distance to the body's front moving at the wave's speed."""
    d = cutoff_distance(body, wave.c, t, x)
    return (d + eps_log(epsilon) * m1 * math.exp(M2 * t)) / epsilon


def motion_sub(t, x, m1, wave: WaveProfile, body: ConvexBody, epsilon: float):
    """(1 - eps) V(theta), with V the sign-changing wave (c < 2) truncated
    to zero at its first zero."""
    if wave.c >= 2.0:
        raise ConfigurationError("motion barrier needs a sign-changing wave")
    theta = np.asarray(motion_theta(t, x, m1, wave, body, epsilon), dtype=float)
    out = np.where(theta < 0.0, (1.0 - epsilon) * wave.evaluate(theta), 0.0)
    return float(out) if out.ndim == 0 else out


def shell_coordinate(t, r, epsilon: float):
    """The shell barrier's coordinate s = (r - SHELL_C1 t)/eps."""
    return (np.asarray(r, dtype=float) - SHELL_C1 * t) / epsilon


def radial_sub_W(t, r, wave: WaveProfile, epsilon: float, n_dim: int,
                 initial: InitialData):
    """Expanding-shell sub-solution v0(s) from a wave at c > 2, with
    s = shell_coordinate(t, r, eps): U(rho) on the shell |s| <= rho and
    U(|s|) outside (c1 = SHELL_C1, rho = SHELL_RHO).  rho must satisfy
    rho >= (N-1)/(c - c1), rho >= n/lam_c, and the data condition
    m/(1 + rho^n) >= M_c e^{-lam_c rho} against the algebraic initial data.
    """
    c = wave.c
    if c <= 2.0:
        raise ConfigurationError("shell barrier needs a wave speed c > 2")
    lam_c = decay_rate(c)
    if SHELL_RHO < (n_dim - 1) / (c - SHELL_C1) - 1e-12:
        raise ConfigurationError(
            f"rho violates the curvature condition rho >= (N-1)/(c-c1) "
            f"= {(n_dim - 1) / (c - SHELL_C1):g}"
        )
    if initial.variant != "algebraic":
        raise ConfigurationError("shell barrier is built over algebraic data")
    if SHELL_RHO < initial.n / lam_c - 1e-12:
        raise ConfigurationError(
            f"rho violates the tail condition rho >= n/lam_c = {initial.n / lam_c:g}"
        )
    M_c = wave.exp_majorant(lam_c)
    if initial.m / (1.0 + SHELL_RHO**initial.n) < M_c * math.exp(-lam_c * SHELL_RHO):
        raise ConfigurationError(
            "rho violates the data condition m/(1+rho^n) >= M_c e^{-lam_c rho}"
        )
    s = shell_coordinate(t, r, epsilon)
    out = np.where(np.abs(s) <= SHELL_RHO,
                   wave.evaluate(SHELL_RHO), wave.evaluate(np.abs(s)))
    return float(out) if out.ndim == 0 else out


def discrete_residual(v, t, grid: Grid, epsilon: float) -> Field:
    """L[v] = v_t - eps Lap v - v(1-v)/eps on the grid, with central
    differences in time (step dx * RESIDUAL_DT) and the solver's discrete
    Laplacian in space (laplacian_rows, applied by tridiagonal_product
    along each axis).  v is a callable v(t, x) over grid coordinates."""
    dt = grid.dx * RESIDUAL_DT
    x = grid.points()
    vm = np.asarray(v(t - dt, x), dtype=float)
    v0 = np.asarray(v(t, x), dtype=float)
    vp = np.asarray(v(t + dt, x), dtype=float)
    lap, res = np.empty_like(v0), np.empty_like(v0)
    for axis in range(len(grid.extents)):
        term = lap if axis == 0 else np.empty_like(v0)
        tridiagonal_product(*laplacian_rows(grid, axis), *(
            np.moveaxis(a, axis, 0) for a in (v0, term, res)))
        term /= grid.dx**2
        if axis:
            lap += term
    # (vp - vm) / (2 dt) - eps lap - v0 (1 - v0) / eps, in res and lap
    np.subtract(vp, vm, out=res)
    res /= 2.0 * dt
    lap *= epsilon
    res -= lap
    np.subtract(1.0, v0, out=lap)
    lap *= v0
    lap /= epsilon
    res -= lap
    return Field(grid, res)
