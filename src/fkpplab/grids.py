"""Uniform grids, scalar fields, interpolation and the tridiagonal factor.

Three geometry modes are supported:

* ``line``   -- one Cartesian axis, u = u(x)
* ``radial`` -- r in [0, R], radially symmetric in dimension N = 2 or 3, so
  the Laplacian is u_rr + (N-1)/r u_r
* ``plane``  -- two Cartesian axes, values stored row-major as (n0, n1)

The solver reads an axis that starts at 0 as ending at a mirror wall: the
radial origin, or the symmetry plane x = 0 of a run reduced to its half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from .errors import ConfigurationError, DomainError, NumericalError

_MODES = ("line", "radial", "plane")


@dataclass(frozen=True)
class Grid:
    """Uniform grid over closed per-axis intervals with common spacing dx."""

    mode: str
    extents: tuple  # ((lo, hi),) or ((lo, hi), (lo, hi))
    dx: float
    dim: int = 1  # N of the radial Laplacian; 1 in line and plane mode

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigurationError(f"unknown geometry mode {self.mode!r}")
        if not self.dx > 0:
            raise ConfigurationError("dx must be positive")
        naxes = 2 if self.mode == "plane" else 1
        if len(self.extents) != naxes:
            raise ConfigurationError(
                f"{self.mode} mode needs {naxes} extent(s), got {len(self.extents)}"
            )
        for lo, hi in self.extents:
            if not hi > lo:
                raise ConfigurationError("empty extent")
            n = round((hi - lo) / self.dx) + 1
            if abs((hi - lo) - (n - 1) * self.dx) > 1e-9 * (hi - lo):
                raise ConfigurationError("extent is not a multiple of dx")
            if n < 3:
                raise ConfigurationError("need at least 3 points per axis")
        if self.mode == "radial":
            if self.extents[0][0] != 0.0:
                raise ConfigurationError("radial extent must start at r = 0")
            if self.dim not in (2, 3):
                raise ConfigurationError(
                    "radial mode needs dimension N = 2 or 3: from N = 4 the "
                    "rows 1 - (N-1)/(2i) near the origin are negative, and "
                    "the step no longer preserves order")
        elif self.dim != 1:
            raise ConfigurationError(f"{self.mode} mode reads no dim, got {self.dim}")

    @property
    def shape(self):
        return tuple(
            round((hi - lo) / self.dx) + 1 for lo, hi in self.extents
        )

    def axis(self, i):
        """Coordinates along axis i."""
        lo, hi = self.extents[i]
        return np.linspace(lo, hi, self.shape[i])

    def points(self, index=None):
        """Coordinates of the nodes grid[index], ``index`` one slice per axis
        (all nodes by default): shape (n,) in 1D, (n0, n1, 2) in plane mode."""
        if index is None:
            index = (slice(None),) * len(self.extents)
        axes = [self.axis(i)[s] for i, s in enumerate(index)]
        if self.mode == "plane":
            return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return axes[0]


@dataclass
class Field:
    """Scalar values sampled on a Grid (row-major in plane mode)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConfigurationError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("field values must be finite")


def stencil(grid: Grid, coords):
    """(indices, weights) of linear (bilinear in plane mode) interpolation
    at points given by one coordinate array (or scalar) per axis, the arrays
    broadcast against each other.  Raises DomainError for a point outside
    the extents."""
    idx, frac = [], []
    for ax, x in enumerate(coords):
        lo, hi = grid.extents[ax]
        x = np.asarray(x, dtype=float)
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            raise DomainError(f"point outside extent [{lo}, {hi}]")
        t = np.clip((x - lo) / grid.dx, 0.0, grid.shape[ax] - 1)
        i = np.minimum(t.astype(int), grid.shape[ax] - 2)
        idx.append(i)
        frac.append(t - i)
    if len(idx) == 1:
        (s,) = frac
        return tuple(idx), (1 - s, s)
    s, t = frac
    return tuple(idx), ((1 - s) * (1 - t), s * (1 - t), (1 - s) * t, s * t)


def apply_stencil(values, st):
    """The interpolated values of a stencil(grid, coords) ``st``: the
    weighted terms summed in axis order, lower index first.  The grid's
    axes are the trailing axes of ``values``, so a block of states
    (leading axis) gives one row of values per state."""
    idx, w = st
    if len(idx) == 1:
        (i,) = idx
        return w[0] * values[..., i] + w[1] * values[..., i + 1]
    i, j = idx
    return (w[0] * values[..., i, j] + w[1] * values[..., i + 1, j]
            + w[2] * values[..., i, j + 1] + w[3] * values[..., i + 1, j + 1])


def interpolate(fld: Field, x):
    """Piecewise-linear (bilinear in plane mode) interpolation at point x.

    Exact at grid points.  Raises DomainError for x outside the extents.
    """
    x = np.asarray(x, dtype=float).reshape(len(fld.grid.extents))
    return apply_stencil(fld.values, stencil(fld.grid, tuple(x)))


class TridiagonalFactor:
    """Factor of a diagonally dominant tridiagonal T, computed once and
    reused by every solve.

    ``lower`` (length n-1) is the sub-diagonal, ``diag`` (length n >= 2)
    the main diagonal, ``upper`` (length n-1) the super-diagonal.  T must be
    diagonally dominant (weak dominance everywhere with strict dominance in
    at least one row is accepted, which covers the classic
    Neumann-Laplacian rows); otherwise NumericalError is raised here, before
    any solve.

    The values choose the factor.  A T with a positive diagonal that is
    symmetric, or becomes so when row 0 is halved (``upper[0]`` twice
    ``lower[0]``: the mirror row of a wall at 0 on a line or plane axis), is
    positive definite and gets LAPACK's LDL^T, ``dpttrf`` once and
    ``dpttrs`` per solve, with row 0 of the right-hand side halved as well;
    halving is exact, so this solves T itself.  Every other T (the radial
    rows 1 -+ (N-1)/(2i)) gets the pivoting LU, ``dgttrf`` and ``dgttrs``.
    """

    def __init__(self, lower, diag, upper):
        lower = np.asarray(lower, dtype=float)
        diag = np.asarray(diag, dtype=float)
        upper = np.asarray(upper, dtype=float)
        n = diag.size
        if n < 2:
            raise ConfigurationError("tridiagonal system needs n >= 2")
        if lower.size != n - 1 or upper.size != n - 1:
            raise ConfigurationError("off-diagonals must have length n-1")

        offsum = np.zeros(n)
        offsum[:-1] += np.abs(upper)
        offsum[1:] += np.abs(lower)
        dominance = np.abs(diag) - offsum
        if np.any(dominance < -1e-14 * np.abs(diag)) or not np.any(dominance > 0):
            raise NumericalError("tridiagonal system is not diagonally dominant")

        self.lower, self.diag, self.upper = lower, diag, upper
        self._halve = lower[0] != 0.0 and upper[0] == 2.0 * lower[0]
        d, e = diag.copy(), upper.copy()
        if self._halve:
            d[0] *= 0.5
            e[0] *= 0.5
        if np.array_equal(e, lower) and np.all(d > 0.0):
            self._trs = dpttrs
            *self._factor, info = dpttrf(d, e)
        else:
            self._trs = dgttrs
            *self._factor, info = dgttrf(lower, diag, upper)
        if info != 0:
            raise NumericalError("tridiagonal system is singular")
        # _check's off-diagonals aligned with the rows of y they multiply
        # (upper[i] multiplies y[i + 1]); the two flat arrays it works in,
        # which factors that check blocks of one size share (Stepper), and
        # their views in the shape of the last check
        self._aligned = (np.append(0.0, upper), np.append(lower, 0.0))
        self.check_arrays = [np.empty(0), np.empty(0)]
        self._held = None

    def solve(self, rhs, check):
        """y with T y = rhs; ``rhs`` is a vector of length n or an (n, m)
        block of right-hand sides, solved in one call.  With ``check`` it
        solves a Fortran-order copy, so ``rhs`` is left as it was, and
        verifies the relative residual <= 1e-12 (_check).  Without it the
        solve overwrites ``rhs``: a vector or a Fortran-order block is
        solved in place (the LAPACK wrapper copies any other layout first).
        A checked solve allocates only the copy it returns, once its
        check has held arrays of rhs's shape."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.diag.size:
            raise ConfigurationError("right-hand side length differs from n")
        b = np.array(rhs, order="F") if check else rhs
        if self._halve:
            b[0] *= 0.5
        y, info = self._trs(*self._factor, b, overwrite_b=True)
        if info != 0:
            raise NumericalError("tridiagonal solve failed")
        if check:
            self._check(rhs, y)
        return y

    def _check(self, rhs, y):
        """Raises NumericalError unless max|T y - rhs| <= 1e-12 max(max|rhs|,
        max|y|), with T y - rhs formed in the operation order of
        diag y, + upper y[1:] on rows :-1, + lower y[:-1] on rows 1:, - rhs.

        It is formed in the two flat arrays ``check_arrays``, held for the
        next check of rhs's size, each viewed in rhs's shape in Fortran
        order: the residual, and the products and absolute values on their
        way to it.  Each off-diagonal product is formed over all of y, its
        coefficients aligned with the rows of y they multiply, and the row
        that has none set to 0; it is then added to the residual one row up
        or down through the flat arrays, where the shift is one contiguous
        slice.  The zero row lands on the rows the plain expression leaves
        alone, where adding 0 moves no magnitude."""
        flat_resid, flat_work = held = self.check_arrays
        if flat_resid.size != rhs.size:
            flat_resid, flat_work = held[:] = np.empty(rhs.size), np.empty(rhs.size)
        resid, work = self._held = tuple(
            a.reshape(rhs.shape, order="F") for a in held)
        shape = (-1, *([1] * (rhs.ndim - 1)))
        np.multiply(self.diag.reshape(shape), y, out=resid)
        np.multiply(self._aligned[0].reshape(shape), y, out=work)
        work[0] = 0.0
        flat_resid[:-1] += flat_work[1:]
        np.multiply(self._aligned[1].reshape(shape), y, out=work)
        work[-1] = 0.0
        flat_resid[1:] += flat_work[:-1]
        resid -= rhs
        scale = max(float(np.abs(rhs, out=work).max()),
                    float(np.abs(y, out=work).max()), 1e-300)
        if float(np.abs(resid, out=resid).max()) > 1e-12 * scale:
            raise NumericalError("tridiagonal solve residual exceeds 1e-12")
