"""Time integration of u_t = eps*Lap(u) + u(1-u)/eps by Strang splitting.

The reaction substep is the exact logistic flow with rate dt/eps, so the
1/eps stiffness never meets the time stepper; the diffusion substep is
Crank-Nicolson with Neumann walls (one tridiagonal solve per line, ADI in
plane mode, L'Hopital regularization N*u_rr at the radial origin).  Both
substeps preserve ordering when eps*dt/dx^2 <= 1 (see default_dt), which
makes the composed scheme comparison-preserving and keeps
0 <= u <= max(1, sup u0) to rounding.

Line-mode Neumann rows use the telescoping form (u1 - u0)/dx^2 so the plain
sum of values is conserved exactly; the radial outer wall uses the mirror
form, which is what second-order accuracy wants there.  A wall at 0 (the
radial origin, or the symmetry plane of a half line or quarter plane) has
the mirror row of a ghost node u_{-1} = u_1.

SimConfig alone decides whether compact data's body fits the grid: an
interval on a line, a 2-D body on a plane, and in radial mode of dimension
N a ball of dimension N centred at the origin.

A run builds one Stepper, which computes everything that is constant over
the run (the factor of each axis's Crank-Nicolson matrix, the reaction
decay factor) once, and one Observer, which does the same for the recorded
observables (scan coordinates, plane-mode gather, threshold set); the loop
works on bare arrays and hands the Observer blocks of consecutive states.
run() takes every step to t_end; run_until() shares its loop and stops at
the end of the first block in which a named series reaches a level.
A run that is even in a coordinate (a grid (-e, e) with a node at 0, data
even in that coordinate) is solved on that axis's half x >= 0 and its
checkpoints are unfolded onto the full grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .geometry import ConvexBody
from .grids import Field, Grid, TridiagonalFactor, apply_stencil, stencil
from .kinetics import eps_log
from .reporting import write_table


@dataclass(frozen=True)
class InitialData:
    """Recipe for u0: compactly supported bump, optionally with an
    exponentially small far tail, or the algebraic-tail family."""

    variant: str  # "compact" | "algebraic"
    body: ConvexBody | None = None
    amplitude: float = 0.0  # plateau height A, in (0, 1]
    width: float = 0.0  # ramp width w; edge slope is 3A/w
    tail: tuple | None = None  # (lam >= 1, M > 0): M exp(-lam ||x|| / eps)
    m: float = 0.0  # algebraic family m / (1 + ||x/eps||^n)
    n: float = 0.0

    @classmethod
    def compact(cls, body, amplitude, width, tail=None):
        if not isinstance(body, ConvexBody):
            raise ConfigurationError(f"body must be a ConvexBody, got {body!r}")
        if not 0.0 < amplitude <= 1.0:
            raise ConfigurationError("amplitude must lie in (0, 1]")
        if not width > 0.0:
            raise ConfigurationError(f"width = {width:g} must be positive")
        if tail is not None:
            lam, M = tail
            if not 1.0 <= lam < math.inf:
                raise ConfigurationError(
                    f"tail_lambda = {lam:g} must be finite and >= 1")
            if not 0.0 < M < math.inf:
                raise ConfigurationError(
                    f"tail_cap = {M:g} must be positive and finite")
            tail = (float(lam), float(M))
        return cls("compact", body=body, amplitude=float(amplitude),
                   width=float(width), tail=tail)

    @classmethod
    def algebraic(cls, m, n):
        if not 0.0 < m < math.inf:
            raise ConfigurationError(f"m = {m:g} must be positive and finite")
        if not n > 0.0:  # n = inf is the step-function limit
            raise ConfigurationError(f"n = {n:g} must be positive")
        return cls("algebraic", m=float(m), n=float(n))

    @property
    def sup_norm(self):
        """Upper bound on sup u0."""
        if self.variant == "compact":
            return self.amplitude + (self.tail[1] if self.tail else 0.0)
        return self.m


def _radii(mode, x):
    """||x|| of node coordinates x."""
    return np.linalg.norm(x, axis=-1) if mode == "plane" else np.abs(x)


def _ramp(initial: InitialData, d):
    """The compact part g = A(1 - (1-s)^3), s = clamp(-d/w, 0, 1), from the
    signed distance d to the body."""
    s = np.clip(-d / initial.width, 0.0, 1.0)
    return initial.amplitude * (1.0 - (1.0 - s) ** 3)


def compact_value(initial: InitialData, x):
    """g at arbitrary points (coordinates for an interval body, points of
    the body's dimension otherwise)."""
    if initial.variant != "compact":
        raise DomainError("g is defined for compact data only")
    return _ramp(initial, initial.body.signed_distance(x))


def build_initial(initial: InitialData, grid: Grid, epsilon: float, x):
    """(u0 as a Field on the grid, g) from the grid's node coordinates x
    (Grid.points); g, the compact part, is None for algebraic data.  A
    radial x is the radius about the ball's centre.

    On a line or plane the body's signed distance d is evaluated once, on
    the nodes within the body's reach of the origin (with 1e-12 relative
    slack for rounding).  Every other node lies outside the body, where
    the ramp is 0 whatever the distance, and takes d = +inf.  d's minimum
    and maximum decide whether the grid covers the support of g."""
    r = _radii(grid.mode, x)
    if initial.variant == "compact":
        body = initial.body
        if grid.mode == "radial":
            d = x - body.inradius
        else:
            near = r <= body.reach * (1.0 + 1e-12)
            d = np.full(r.shape, np.inf)
            d[near] = body.signed_distance(x[near])
        if float(d.min()) > -initial.width / 4:
            raise ConfigurationError("grid does not cover the support of g")
        if float(d.max()) < 0.0:
            raise ConfigurationError("the support of g reaches the grid boundary")
        g = _ramp(initial, d)
        if initial.tail is None:
            return Field(grid, g), g
        lam, M = initial.tail
        return Field(grid, g + M * np.exp(-lam * r / epsilon)), g
    return Field(grid, initial.m / (1.0 + (r / epsilon) ** initial.n)), None


def outflow_margin(initial: InitialData, t_end, epsilon):
    """Domain reach a run needs: the reach of the data's body from the
    origin (0 for algebraic data, centred at the origin), plus the distance
    2 t_end the front travels, plus ten layer widths eps|ln eps|.  Rejects
    an epsilon outside (0, 1/e) (eps_log), then a t_end not positive and
    finite, which no domain can hold."""
    layers = 10.0 * eps_log(epsilon)
    if not 0.0 < t_end < math.inf:
        raise ConfigurationError(f"t_end = {t_end:g} must be positive and finite")
    reach = initial.body.reach if initial.variant == "compact" else 0.0
    return reach + 2.0 * t_end + layers


def default_dt(grid: Grid, epsilon: float):
    """Largest step that keeps Crank-Nicolson order-preserving: the explicit
    half-factor (I + a L) must stay entrywise nonnegative, eps dt/dx^2 <= 1/N
    (N = grid.dim: 2 or 3 in radial mode, 1 otherwise, as Grid requires).
    Capped by the accuracy rule dx/2."""
    return min(grid.dx / 2.0, grid.dx**2 / (epsilon * grid.dim))


@dataclass(frozen=True)
class SimConfig:
    epsilon: float
    grid: Grid
    initial: InitialData
    t_end: float
    checkpoint_times: tuple = ()

    def __post_init__(self):
        # the margin rejects a bad epsilon, then a bad t_end, before any
        # other check
        margin = outflow_margin(self.initial, self.t_end, self.epsilon)
        body, mode, n = self.initial.body, self.grid.mode, self.grid.dim
        if body is not None:
            fits, need = {
                "line": (body.shape == "interval", "an interval"),
                "plane": (body.dim == 2, "a two-dimensional region"),
                "radial": (body.shape == "ball" and body.dim == n
                           and not any(body.center),
                           f"a {n}-D ball centred at the origin")}[mode]
            if not fits:
                raise ConfigurationError(f"{mode} mode needs {need}, got a "
                                         f"{body.dim}-D {body.shape}")
        if self.grid.dx > self.epsilon / 8.0 + 1e-12:
            raise ConfigurationError("resolution rule dx <= epsilon/8 violated")
        for lo, hi in self.grid.extents:
            reach = hi if self.grid.mode == "radial" else min(-lo, hi)
            if reach + 1e-9 < margin:
                raise ConfigurationError(
                    f"domain reach {reach:g} below the outflow margin {margin:g}"
                )
        for tc in self.checkpoint_times:
            if not 0.0 <= tc <= self.t_end + 1e-12:
                raise ConfigurationError("checkpoint outside [0, t_end]")

    @property
    def n_steps(self):
        """The number of steps run() takes: the fewest of at most
        default_dt(grid, epsilon) each."""
        return max(1, math.ceil(self.t_end / default_dt(self.grid, self.epsilon)
                                - 1e-12))

    @property
    def dt(self):
        """The step run() takes, t_end / n_steps: at most default_dt."""
        return self.t_end / self.n_steps


@dataclass
class Trajectory:
    """What a run recorded: the series of the steps it took, from step 0 on
    (all n_steps + 1 for run(), a prefix of them for run_until()), and its
    checkpoints in step order."""

    config: SimConfig
    checkpoints: list  # [(t, Field)] as run() recorded them, in step order
    series: dict  # name -> (times, values) arrays


def _mirrored(grid: Grid, axis: int):
    """Whether the axis has a mirror wall at its low end: an axis that
    starts at 0 is the radial r >= 0, or the half x >= 0 of a run that is
    even in that coordinate."""
    return bool(grid.extents[axis][0] == 0.0)


def _lap_coeffs(grid: Grid, axis: int):
    """(sub, diag, sup) of the Laplacian along one axis, unscaled (multiply
    by 1/dx^2): the stencil 1, -2, 1 (with the radial terms (N-1)/r u_r in
    radial mode) and, at each wall,

    * at a low wall at 0, the mirror row -2N, 2N of a ghost node
      u_{-1} = u_1, N the radial dimension (Lap u = N u_rr at r = 0) and 1
      on a line or plane axis;
    * at any other line or plane wall, the telescoping Neumann row -1, 1,
      which conserves the plain sum exactly;
    * at the radial outer wall, the mirror row 2, -2 (the radial term drops
      out)."""
    n = grid.shape[axis]
    sub = np.ones(n - 1)
    diag = np.full(n, -2.0)
    sup = np.ones(n - 1)
    if grid.mode == "radial":
        i = np.arange(1, n - 1, dtype=float)
        sub[: n - 2] = 1.0 - (grid.dim - 1) / (2.0 * i)
        sup[1:] = 1.0 + (grid.dim - 1) / (2.0 * i)
        sub[-1] = 2.0
    else:
        diag[-1] = -1.0
    if _mirrored(grid, axis):
        diag[0] = -2.0 * grid.dim
        sup[0] = 2.0 * grid.dim
    else:
        diag[0] = -1.0
    return sub, diag, sup


def _lap_rows(grid: Grid, axis: int):
    """What _apply_lap needs of one axis: the radial _lap_coeffs, or for a
    line or plane axis whether its low wall is a mirror."""
    return _lap_coeffs(grid, 0) if grid.mode == "radial" else _mirrored(grid, axis)


def _apply_lap(u, rows, out):
    """The unscaled Laplacian along axis 0 of u (pass u.T for axis 1), in
    the order diag*u, + sup*u[1:], + sub*u[:-1], written into ``out``
    (u's shape, not sharing its memory); ``rows`` is
    _lap_rows(grid, axis).  On a line or plane axis it is the stencil
    1, -2, 1 with telescoping walls, applied with slices and scalars, and a
    mirror row that is the telescoping row doubled: every product with
    those coefficients is exact, so the bits are those of _lap_coeffs'
    arrays.  Radial rows are the arrays themselves."""
    if isinstance(rows, bool):
        np.multiply(u, -2.0, out=out)
        out[0] = -u[0]
        out[-1] = -u[-1]
        out[:-1] += u[1:]
        out[1:] += u[:-1]
        if rows:
            out[0] *= 2.0
        return out
    sub, diag, sup = rows
    shape = (-1,) + (1,) * (u.ndim - 1)
    np.multiply(diag.reshape(shape), u, out=out)
    out[:-1] += sup.reshape(shape) * u[1:]
    out[1:] += sub.reshape(shape) * u[:-1]
    return out


# Steps between residual checks of the line solves; the first step of every
# Stepper is always checked.
RESIDUAL_EVERY = 25


class Stepper:
    """Strang step reaction(dt/2) o diffusion(dt) o reaction(dt/2) on one
    grid, with every quantity that is constant over a run computed once:

    * the factor of (I - a L) along each axis, a = eps dt / (2 dx^2):
      LDL^T on a line or plane axis, whose rows are symmetric (a mirror
      row once halved), LU on a radial one (TridiagonalFactor); the
      diagonal-dominance check runs here, at factorisation;
    * the reaction decay factor exp(-dt / (2 eps));
    * the Laplacian rows of each axis (_lap_rows);
    * the work arrays ``work`` the diffusion step writes through, one of
      the grid's shape per axis; the last receives the solution.

    ``step`` maps a bare value array to the next one in one new array, the
    only one it allocates: the first reaction half-step forms its result
    there, and the second half-step forms its result there again, from
    the diffusion step's solution in work[-1].  The line solves run along
    axis 0, all lines in one LAPACK call, each on a right-hand side
    already in Fortran order, which the solve overwrites with its
    solution.  Every array is formed in the operation order of the plain
    expressions, so the bits are theirs.

    The reaction half-steps reject negative input; the line solves
    verify the 1e-12 residual on the first step and every RESIDUAL_EVERY
    steps after it, each on a Fortran-order copy, whose solution the step
    goes on with.  Every row, a mirror row included, keeps (I + a L)
    nonnegative for a <= 1/2 (1/(2N) in radial mode, N = 2 or 3), as
    default_dt gives.
    """

    def __init__(self, grid: Grid, dt: float, epsilon: float):
        self.grid = grid
        self.decay = np.exp(-(dt / 2.0 / epsilon))
        self.a = epsilon * dt / 2.0 / grid.dx**2
        axes = range(len(grid.extents))
        coeffs = tuple(_lap_coeffs(grid, i) for i in axes)
        self.rows = coeffs if grid.mode == "radial" else tuple(
            _lap_rows(grid, i) for i in axes)
        self.factors = tuple(
            TridiagonalFactor(-self.a * sub, 1.0 - self.a * diag, -self.a * sup)
            for sub, diag, sup in coeffs
        )
        self.work = tuple(np.empty(grid.shape) for _ in axes)
        self.steps = 0

    def _reaction(self, u, out):
        """The reaction half-step of u, its denominator formed in out (not
        sharing u's memory), which then holds the result."""
        if float(u.min()) < 0.0:
            raise NumericalError("reaction substep received negative values")
        np.subtract(1.0, u, out=out)
        out *= self.decay
        out += u
        return np.divide(u, out, out=out)

    def reaction(self, u):
        """Exact logistic flow over dt/2: u <- u / (u + (1 - u) e^{-s}),
        s = dt/(2 eps), the denominator formed in one new array, which then
        holds the result.  Monotone in u and unconditionally stable; input
        must be nonnegative."""
        return self._reaction(u, np.empty_like(u))

    def _explicit(self, u, rows, out):
        """(I + a L) u along axis 0 with the Laplacian rows of that axis,
        formed in out, the Laplacian's array."""
        _apply_lap(u, rows, out)
        out *= self.a
        out += u
        return out

    def diffusion(self, u):
        """Crank-Nicolson step of u_t = eps Lap u over dt, Neumann walls:
        the solution, in work[-1] until the next call (u must not share
        memory with the work arrays), or on a checked step in the solve's
        new array.

        Plane mode uses Peaceman-Rachford ADI (two half-steps, alternating
        directions), which keeps second-order accuracy with only line
        solves; each directional half-step carries the same a as plain
        Crank-Nicolson.  Its two work arrays are read in the grid's shape
        and, reshaped, in the transposed one, both in C order, so that the
        transpose of either is a Fortran-order array that a sweep solves in
        place.  u is copied into work[0] in the transposed shape, and the x
        sweep's right-hand side, the explicit half along y, is formed from
        it in work[1]; the x sweep's solution is copied into work[0] in the
        grid's shape, and the y sweep's right-hand side, the explicit half
        along x, is formed from it in work[1].  So each explicit half runs
        along axis 0 of a C-order array.  On a line or radial axis the
        right-hand side is formed in work[0].
        """
        check = self.steps % RESIDUAL_EVERY == 0
        if self.grid.mode == "plane":
            (fx, fy), (rx, ry), (p, q) = self.factors, self.rows, self.work
            pt, qt = p.reshape(p.shape[::-1]), q.reshape(q.shape[::-1])
            np.copyto(pt, u.T)
            np.copyto(p, fx.solve(self._explicit(pt, ry, qt).T, check))
            return fy.solve(self._explicit(p, rx, q).T, check).T
        (p,) = self.work
        return self.factors[0].solve(self._explicit(u, self.rows[0], p), check)

    def step(self, u):
        """The state one Strang step after u (a new array)."""
        r = self.reaction(u)
        v = self.diffusion(r)
        self.steps += 1
        return self._reaction(v, r)


# The generation threshold: threshold_min reads u on {g >= THRESHOLD_K
# eps|ln eps|}, and the barriers start from the same set.
THRESHOLD_K = 3.0


class Observer:
    """The observables of one run, with what is constant over the run
    computed once: the scan coordinates ``scan`` (the grid axis in line and
    radial mode; in plane mode the +x half-axis every dx/2, with the
    bilinear stencil of grids.interpolate at each sample) and the node
    indices of the threshold set {g >= THRESHOLD_K eps|ln eps|} of the
    compact part g.

    The data fix the series: compact data (g given) record the interface
    observables as well, ``names`` = sup, min, front_half, layer_width,
    threshold_min; algebraic data (g None) have no interface and record
    sup and min.

    Every method reads a block of consecutive states, shaped
    (K, *grid.shape), and gives one value per state; each state's values
    are the same bits whatever other states share its block."""

    def __init__(self, grid: Grid, epsilon: float, g=None):
        self.epsilon, self.threshold, self.stencil = epsilon, None, None
        self.names = ("sup", "min")
        if g is not None:
            self.names += ("front_half", "layer_width", "threshold_min")
            mask = g >= THRESHOLD_K * eps_log(epsilon)
            self.threshold = np.nonzero(mask) if mask.any() else None
        if grid.mode != "plane":
            self.scan = grid.axis(0)
            return
        self.scan = np.arange(0.0, grid.extents[0][1], grid.dx / 2.0)
        self.stencil = stencil(grid, (self.scan, 0.0))

    def profile(self, block):
        """Each state of the block along ``scan``, one row per state; in
        plane mode each sample equals grids.interpolate's."""
        return block if self.stencil is None else apply_stencil(block, self.stencil)

    def observe(self, block, times, k):
        """The observables ``names`` of a block of the states of steps
        k, k+1, ... at ``times``, one row of K values per name, nan for an
        absent crossing or an empty threshold set; the three crossings read
        one profile.  A non-finite value shows in the sup (NaN, +inf) or the
        min (-inf): it raises NumericalError with diagnostic (t, step) of the
        first such state, before any crossing is read."""
        axes = tuple(range(1, block.ndim))
        rows = [block.max(axis=axes), block.min(axis=axes)]
        finite = np.isfinite(rows[0]) & np.isfinite(rows[1])
        if not finite.all():
            i = int(np.argmin(finite))
            t = float(times[i])
            raise NumericalError(
                f"solution lost finiteness at step {k + i}, near t={t:g}",
                diagnostic=(t, k + i),
            )
        if "front_half" in self.names:
            half, outer, inner = _outermost_crossings(
                self.scan, self.profile(block),
                (0.5, self.epsilon, 1.0 - 2.0 * self.epsilon))
            rows += [half, outer - inner]
            if self.threshold is None:
                rows.append(np.full(len(block), math.nan))
            else:
                rows.append(block[(slice(None), *self.threshold)].min(axis=1))
        return np.array(rows)


def _outermost_crossings(x, p, levels):
    """For each level and each row u of p: linear interpolation of the
    level between samples i and i+1, for the last i with
    (u[i] - level)(u[i+1] - level) <= 0 and not both zero; nan when there
    is no such i.  One row of values per level.

    That i is the last sample not on the same side of the level as u[-1]
    (for u[-1] on the level: the last sample off it), the first hit of one
    argmax along each reversed row.  One >= comparison over the block
    serves every row whose last sample is below the level; the rare rows at
    or above it are compared again on their own.  p must be finite."""
    levels = np.asarray(levels, dtype=float)[:, None]
    # u[n-2], ..., u[0] (sample i is column n - 2 - i), copied so that the
    # comparison reads it forwards
    rev = p[:, -2::-1].copy()
    other = rev >= levels[:, :, None]
    last = p[:, -1]
    for m, r in zip(*np.nonzero(last >= levels)):
        level = levels[m, 0]
        other[m, r] = rev[r] <= level if last[r] > level else rev[r] != level
    rows = np.arange(len(p))
    j = other.argmax(axis=2)
    i = p.shape[1] - 2 - j
    hit = other[np.arange(len(levels))[:, None], rows, j]
    d0 = np.where(hit, p[rows, i] - levels, math.nan)
    d1 = p[rows, i + 1] - levels
    frac = d0 / (d0 - d1)
    return x[i] + frac * (x[i + 1] - x[i])


def _even_axes(config: SimConfig):
    """One bool per axis of the grid: whether the run is even in that
    coordinate.  It is when the axis's extent is (-e, e) with a node at 0
    and the data are even in the coordinate: compact data on a body centred
    at 0 along the axis (their tail is radial), or algebraic data (radial).
    A radial axis starts at 0 and is never even."""
    grid, initial = config.grid, config.initial
    n = len(grid.extents)
    center = (0.0,) * n if initial.variant == "algebraic" else initial.body.center
    return tuple(center[i] == 0.0 and lo == -hi
                 and grid.shape[i] % 2 == 1
                 for i, (lo, hi) in enumerate(grid.extents))


def _unfold(q, even):
    """The values on the configuration grid of a state q of the reduced
    grid, in one new array: along each even axis, with h its middle node,
    nodes h + i and h - i both take q[i].  q fills the nodes h + i, and
    each even axis in turn copies them, over the axes filled so far, onto
    the nodes h - i."""
    out = np.empty(tuple(2 * n - 1 if e else n for n, e in zip(q.shape, even)))
    filled = [slice(n - 1 if e else 0, None) for n, e in zip(q.shape, even)]
    out[tuple(filled)] = q
    for ax in np.flatnonzero(even):
        n = q.shape[ax]
        low, high = list(filled), list(filled)
        low[ax], high[ax] = slice(0, n - 1), slice(2 * n - 2, n - 1, -1)
        out[tuple(low)] = out[tuple(high)]
        filled[ax] = slice(None)
    return out


# The byte size of the block of states a run observes in one call: K =
# max(1, BLOCK_BYTES // state bytes) consecutive states.
BLOCK_BYTES = 1 << 20


def passage(values, level):
    """The index of the first of the values at or above level, or None: the
    first passage run_until stops on."""
    hit = np.flatnonzero(values >= level)
    return int(hit[0]) if hit.size else None


def run(config: SimConfig) -> Trajectory:
    """Integrate to t_end in the config's n_steps steps of dt, recording the
    Observer's series each step and, in step order, a checkpoint
    (k dt, field) at the step k = round(t / dt) of each requested time t.

    Along each axis the run is even in (_even_axes) it integrates on the
    half x >= 0 of the grid, whose low wall at 0 is a mirror; u0 there is
    the full u0 restricted, bit for bit.  The series are those of the
    reduced grid, and each checkpoint is unfolded onto the configuration's
    grid.

    The loop works on bare arrays; a Field is built only for a checkpoint.
    Each state is copied into one buffer of K states (BLOCK_BYTES), which
    the Observer reads in one call when it is full, at a checkpoint step,
    at the end, and before a NumericalError of the Stepper is re-raised.
    So a non-finite state raises NumericalError with diagnostic (t, step)
    for the first such step, from Observer.observe, before any checkpoint
    or later fault; the steps taken past it, before its block is read,
    raise no floating-point warning.  A sup above max(1, sup u0) + 1e-8
    raises NumericalError after the last step.  run_until() is this loop,
    stopped at a first passage.
    """
    return _integrate(config, None)


def run_until(config: SimConfig, name, level) -> Trajectory:
    """run(config), stopped at the end of the first Observer block in which
    the series `name` reaches `level` (passage): the steps it takes are
    run()'s, with every check, and the series are a prefix of run()'s, bit
    for bit, ending on the last step of that block.  The checkpoints are
    run()'s recorded before that block; the sup-norm bound is checked over
    the steps taken.  A passage that never comes runs to t_end and returns
    run(config)'s trajectory.  `name` must be one of the series the run
    records (Observer.names)."""
    return _integrate(config, (name, level))


def _integrate(config: SimConfig, stop) -> Trajectory:
    """The loop of run() and run_until(): stop is None, or the (name, level)
    of the passage that ends the run."""
    full, even = config.grid, _even_axes(config)
    grid = Grid(full.mode, tuple((0.0, hi) if e else (lo, hi)
                                 for e, (lo, hi) in zip(even, full.extents)),
                full.dx, full.dim)
    index = tuple(slice(n // 2 if e else 0, None)
                  for e, n in zip(even, full.shape))
    u0, g = build_initial(config.initial, grid, config.epsilon,
                          full.points(index))
    u = u0.values
    n_steps, dt = config.n_steps, config.dt
    observer = Observer(grid, config.epsilon, g)
    if stop is not None:
        name, level = stop
        if name not in observer.names:
            raise ConfigurationError(
                f"the run records no series {name!r}, only {observer.names}")
        watched = observer.names.index(name)
    stepper = Stepper(grid, dt, config.epsilon)
    checkpoint_steps = {int(round(tc / dt)) for tc in config.checkpoint_times}

    times = np.arange(n_steps + 1) * dt
    values = np.empty((len(observer.names), n_steps + 1))
    checkpoints = []
    size = max(1, BLOCK_BYTES // u.nbytes)
    block = np.empty((size, *u.shape))
    filled = 0

    def read(states, k):
        """Record the series of the states of the steps up to k."""
        first = k + 1 - len(states)
        values[:, first:k + 1] = observer.observe(states, times[first:k + 1], first)

    with np.errstate(all="ignore"):
        for k in range(n_steps + 1):
            if k:
                try:
                    u = stepper.step(u)
                except NumericalError:
                    if filled:
                        read(block[:filled], k - 1)
                    raise
            block[filled] = u
            filled += 1
            if filled == size or k in checkpoint_steps or k == n_steps:
                read(block[:filled], k)
                if stop is not None and passage(
                        values[watched, k + 1 - filled:k + 1], level) is not None:
                    times, values = times[:k + 1], values[:, :k + 1]
                    break
                filled = 0
            if k in checkpoint_steps:
                checkpoints.append((float(times[k]), Field(full, _unfold(u, even))))

    series = dict(zip(observer.names, values))
    sup0 = max(1.0, float(series["sup"][0]))
    if float(np.max(series["sup"])) > sup0 + 1e-8:
        raise NumericalError("sup-norm bound violated", diagnostic=(config, series))

    return Trajectory(config, checkpoints, {"t": times, **series})


def dump_checkpoint(fld: Field, t: float, path):
    """CSV checkpoint: '# t=<value>' header, then coordinate(s), u rows."""
    g = fld.grid
    names = {"line": "x", "radial": "r", "plane": "x0,x1"}[g.mode]
    axes = (g.axis(0)[:, None], g.axis(1)) if g.mode == "plane" else (g.axis(0),)
    with open(path, "w") as fh:
        fh.write(f"# t={t:.17g}\n{names},u\n")
        write_table(fh, *axes, fld.values)
