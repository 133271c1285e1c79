"""The hot kernels of a run against the formulas they replaced, bit for bit:
the outermost level crossing (each row of a block of profiles), the
Laplacian stencil (mirror walls included) and the explicit Crank-Nicolson
half, the reaction half-step and the ellipse foot-point bisection.  The
replaced formulas are kept here as the oracles.  The line solve is held to
the pivoting LU it replaced on line and plane axes to 1e-13, and bit for
bit on radial ones."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrs

from fkpplab.geometry import _ellipse_signed_distance
from fkpplab.grids import Grid
from fkpplab.solver import (Stepper, _apply_lap, _lap_coeffs, _lap_rows,
                            _outermost_crossings, default_dt)

PROPS = settings(max_examples=200, deadline=None)
EPS = 0.04
GRIDS = {
    "line": Grid("line", ((-0.1, 0.1),), EPS / 8),
    "radial": Grid("radial", ((0.0, 0.2),), EPS / 8, dim=3),
    "plane": Grid("plane", ((-0.06, 0.06), (-0.05, 0.05)), EPS / 8),
    # the reduced grids of runs even in x (and y): a mirror wall at 0
    "half_line": Grid("line", ((0.0, 0.1),), EPS / 8),
    "quarter_plane": Grid("plane", ((0.0, 0.06), (0.0, 0.05)), EPS / 8),
}


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


# ---- the outermost crossing -------------------------------------------------

def crossing_oracle(x, u, level):
    du = u - level
    sign_change = du[:-1] * du[1:] <= 0.0
    nontrivial = (du[:-1] != 0.0) | (du[1:] != 0.0)
    idx = np.nonzero(sign_change & nontrivial)[0]
    if idx.size == 0:
        return None
    i = idx[-1]
    frac = du[i] / (du[i] - du[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def _check_crossings(block, level):
    """Each row of the block against the oracle, bit for bit; nan where the
    oracle finds no crossing."""
    block = np.asarray(block, dtype=float)
    x = np.linspace(-1.0, 2.0, block.shape[1])
    (got,) = _outermost_crossings(x, block, (level,))
    assert got.shape == (len(block),)
    for row, value in zip(block, got):
        want = crossing_oracle(x, row, level)
        if want is None:
            assert np.isnan(value)
        else:
            assert _bits(value) == _bits(want)


# The levels the observer reads: 1/2, eps and 1 - 2 eps.
LEVELS = (0.5, EPS, 1.0 - 2.0 * EPS, 0.01, 0.98)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("u", [
    [1.0, 0.9, 0.0, 0.0],  # a decreasing front
    [0.0, 0.2, 1.0, 1.0],  # an increasing one
    [1.0, "L", 0.0],  # a sample on the level
    [1.0, "L", "L", "L", 0.0],  # a plateau on the level
    [1.0, 0.0, "L", "L"],  # u[-1] on the level, after a plateau
    [0.0, 1.0, "L"],  # u[-1] alone on the level
    ["L", "L", "L"],  # on the level everywhere
    [1.0, 1.0, 1.0],  # the level never reached from above
    [0.0, 0.0, 0.0],  # nor from below
    [1.0, "L", 1.0],  # touching the level from above
    [0.0, "L", 0.0, 0.0],  # and from below
    [0.0, 1.0, 0.0, 1.0, 0.0],  # several crossings
    ["L+", "L-", "L+", "L"],  # one ulp either side
])
def test_crossing_matches_the_product_rule(u, level):
    near = {"L": level, "L+": np.nextafter(level, 2.0),
            "L-": np.nextafter(level, -1.0)}
    _check_crossings([[near.get(v, v) for v in u]], level)


@st.composite
def crossing_cases(draw, rows=st.just(1)):
    """A level and a block of profiles of one length, its values on the
    level, one ulp either side of it, at 0 or 1, or anywhere in [0, 1.2]:
    rows whose last sample is above, on or below the level share a block."""
    level = draw(st.sampled_from(LEVELS))
    near = st.sampled_from([level, np.nextafter(level, 2.0),
                            np.nextafter(level, -1.0), 0.0, 1.0])
    values = st.one_of(near, st.floats(0.0, 1.2, allow_subnormal=False))
    shape = st.tuples(rows, st.integers(2, 40))
    return draw(arrays(np.float64, shape, elements=values)), level


@PROPS
@given(crossing_cases())
def test_crossing_matches_the_product_rule_on_random_profiles(case):
    _check_crossings(*case)


@PROPS
@given(crossing_cases(st.integers(1, 6)), st.data())
def test_each_row_of_a_block_gets_its_own_crossing(case, data):
    # batch independence: a row's bits do not depend on its neighbours, on
    # its place in the block, nor on the other levels read in the same call
    block, level = case
    _check_crossings(block, level)
    x = np.linspace(-1.0, 2.0, block.shape[1])
    alone = [_outermost_crossings(x, row[None], (level,))[0, 0] for row in block]
    order = data.draw(st.permutations(range(len(block))))
    shuffled = _outermost_crossings(x, block[order], (level,))[0]
    assert _bits(shuffled) == _bits(np.array(alone)[order])
    apart = [_outermost_crossings(x, block, (v,))[0] for v in LEVELS]
    assert _bits(_outermost_crossings(x, block, LEVELS)) == _bits(apart)


# ---- the Laplacian and the explicit half ------------------------------------

def lap_oracle(coeffs, u):
    sub, diag, sup = coeffs
    shape = (-1,) + (1,) * (u.ndim - 1)
    out = diag.reshape(shape) * u
    out[:-1] += sup.reshape(shape) * u[1:]
    out[1:] += sub.reshape(shape) * u[:-1]
    return out


def _values(shape):
    return arrays(np.float64, shape,
                  elements=st.floats(-1e300, 1e300, allow_subnormal=True))


def _lap(u, rows):
    """_apply_lap of u into a new array laid out like u."""
    return _apply_lap(u, rows, np.empty_like(u))


def _laid_out(u, fortran):
    return np.asfortranarray(u) if fortran else u


@PROPS
@given(_values(GRIDS["line"].shape))
def test_lap_matches_coefficient_arrays_line(u):
    g = GRIDS["line"]
    assert _bits(_lap(u, _lap_rows(g, 0))) == _bits(
        lap_oracle(_lap_coeffs(g, 0), u))


@PROPS
@given(_values(GRIDS["radial"].shape))
def test_lap_matches_coefficient_arrays_radial(u):
    g = GRIDS["radial"]
    assert _bits(_lap(u, _lap_rows(g, 0))) == _bits(
        lap_oracle(_lap_coeffs(g, 0), u))


@PROPS
@given(_values(GRIDS["plane"].shape), st.booleans())
def test_lap_matches_coefficient_arrays_plane(u, fortran):
    g = GRIDS["plane"]
    u = _laid_out(u, fortran)
    assert _lap_rows(g, 0) is False and _lap_rows(g, 1) is False
    assert _bits(_lap(u, False)) == _bits(lap_oracle(_lap_coeffs(g, 0), u))
    assert _bits(_lap(u.T, False).T) == _bits(
        lap_oracle(_lap_coeffs(g, 1), u.T).T)


@PROPS
@given(_values(GRIDS["half_line"].shape))
def test_lap_matches_coefficient_arrays_half_line(u):
    g = GRIDS["half_line"]
    assert _lap_rows(g, 0) is True
    assert _bits(_lap(u, True)) == _bits(lap_oracle(_lap_coeffs(g, 0), u))


@PROPS
@given(_values(GRIDS["quarter_plane"].shape), st.booleans())
def test_lap_matches_coefficient_arrays_quarter_plane(u, fortran):
    g = GRIDS["quarter_plane"]
    u = _laid_out(u, fortran)
    assert _lap_rows(g, 0) is True and _lap_rows(g, 1) is True
    assert _bits(_lap(u, True)) == _bits(lap_oracle(_lap_coeffs(g, 0), u))
    assert _bits(_lap(u.T, True).T) == _bits(
        lap_oracle(_lap_coeffs(g, 1), u.T).T)


def test_mirror_row_is_the_radial_origin_row_at_n_1():
    half = GRIDS["half_line"]
    radial = Grid("radial", half.extents, half.dx, dim=2)
    object.__setattr__(radial, "dim", 1)  # N = 1 is not a configuration
    sub, diag, sup = _lap_coeffs(half, 0)
    r_sub, r_diag, r_sup = _lap_coeffs(radial, 0)
    assert (diag[0], sup[0]) == (r_diag[0], r_sup[0]) == (-2.0, 2.0)
    # the rows differ only at the outer wall: telescoping against mirror
    assert _bits(diag[:-1]) == _bits(r_diag[:-1])
    assert _bits(sup) == _bits(r_sup)
    assert _bits(sub[:-1]) == _bits(r_sub[:-1])
    for n in (2, 3):
        rows = _lap_coeffs(Grid("radial", half.extents, half.dx, dim=n), 0)
        assert (rows[1][0], rows[2][0]) == (n * diag[0], n * sup[0])


@pytest.mark.parametrize("mode", list(GRIDS))
@pytest.mark.parametrize("fortran", [False, True])
def test_explicit_half_matches_u_plus_a_lap(mode, fortran):
    g = GRIDS[mode]
    u = _laid_out(np.random.default_rng(3).random(g.shape), fortran)
    stepper = Stepper(g, 0.7 * g.dx**2 / EPS, EPS)
    a, before = stepper.a, u.copy()
    assert _bits(stepper._explicit(u, stepper.rows[0], np.empty_like(u))) == _bits(
        u + a * lap_oracle(_lap_coeffs(g, 0), u))
    if g.mode == "plane":
        assert _bits(stepper._explicit(u.T, stepper.rows[1],
                                      np.empty_like(u.T)).T) == _bits(
            u + a * lap_oracle(_lap_coeffs(g, 1), u.T).T)
    assert _bits(u) == _bits(before)


# ---- the line solve ---------------------------------------------------------

def _factors(g):
    return Stepper(g, default_dt(g, EPS), EPS).factors


def lu_oracle(factor, rhs):
    """The solve by LAPACK's pivoting LU of the factor's own T."""
    *lu, info = dgttrf(factor.lower, factor.diag, factor.upper)
    assert info == 0
    y, info = dgttrs(*lu, rhs)
    assert info == 0
    return y


def _right_hand_sides(n):
    """A vector and an (n, 7) block in C and in F order."""
    rng = np.random.default_rng(5)
    block = rng.random((n, 7))
    return [rng.random(n), block, np.asfortranarray(block)]


@pytest.mark.parametrize("mode", ["line", "half_line", "plane", "quarter_plane"])
def test_line_and_plane_axes_take_the_ldlt_solve(mode):
    g = GRIDS[mode]
    for axis, factor in enumerate(_factors(g)):
        assert factor._trs is dpttrs
        assert factor._halve == (g.extents[axis][0] == 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_radial_axes_take_the_lu_solve(dim):
    g = Grid("radial", GRIDS["radial"].extents, EPS / 8, dim=dim)
    (factor,) = _factors(g)
    assert factor._trs is dgttrs


@pytest.mark.parametrize("mode", sorted(GRIDS))
def test_solve_matches_the_lu_solve(mode):
    for factor in _factors(GRIDS[mode]):
        for rhs in _right_hand_sides(factor.diag.size):
            want = lu_oracle(factor, rhs)
            got = factor.solve(rhs, check=True)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            if factor._trs is dgttrs:
                assert _bits(got) == _bits(want)


@pytest.mark.parametrize("mode", sorted(GRIDS))
def test_solve_leaves_the_checked_right_hand_side_alone(mode):
    for factor in _factors(GRIDS[mode]):
        for rhs in _right_hand_sides(factor.diag.size):
            before = rhs.copy()
            y = factor.solve(rhs, check=True)
            assert _bits(rhs) == _bits(before)
            assert _bits(factor.solve(rhs, check=False)) == _bits(y)


# ---- the reaction half-step -------------------------------------------------

@PROPS
@given(arrays(np.float64, st.integers(1, 50),
              elements=st.floats(0.0, 3.0, allow_subnormal=True)),
       st.floats(1e-6, 1.0), st.sampled_from(sorted(GRIDS)))
def test_reaction_matches_the_closed_form(u, dt, mode):
    stepper = Stepper(GRIDS[mode], dt, EPS)
    before = u.copy()
    want = u / (u + (1.0 - u) * stepper.decay)
    assert _bits(stepper.reaction(u)) == _bits(want)
    assert _bits(u) == _bits(before)


# ---- the ellipse foot point -------------------------------------------------

def ellipse_oracle(q, axes):
    """The signed distance with the bisection run for all 120 iterations."""
    e0, e1 = axes
    q = np.asarray(q, dtype=float)
    y0, y1 = np.abs(q[..., 0]), np.abs(q[..., 1])
    if e0 < e1:
        e0, e1 = e1, e0
        y0, y1 = y1, y0
    out = np.empty(y0.shape)
    on_axis = y1 <= 1e-12 * e1
    g0, g1 = y0[~on_axis], y1[~on_axis]
    if g0.size:
        lo = -e1 * e1 + e1 * g1
        hi = -e1 * e1 + np.sqrt((e0 * g0) ** 2 + (e1 * g1) ** 2)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            F = (e0 * g0 / (mid + e0 * e0)) ** 2 + (e1 * g1 / (mid + e1 * e1)) ** 2 - 1.0
            above = F > 0.0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        t = 0.5 * (lo + hi)
        fx0 = e0 * e0 * g0 / (t + e0 * e0)
        fx1 = e1 * e1 * g1 / (t + e1 * e1)
        dist = np.hypot(fx0 - g0, fx1 - g1)
        inside = (g0 / e0) ** 2 + (g1 / e1) ** 2 < 1.0
        out[~on_axis] = np.where(inside, -dist, dist)
    a0 = y0[on_axis]
    if a0.size:
        crit = (e0 * e0 - e1 * e1) / e0
        fx0 = np.minimum(e0 * e0 * a0 / max(e0 * e0 - e1 * e1, 1e-300), e0)
        inner = a0 < crit
        fx1 = np.where(inner, e1 * np.sqrt(np.maximum(0.0, 1.0 - (fx0 / e0) ** 2)), 0.0)
        dist_in = np.hypot(fx0 - a0, fx1)
        out[on_axis] = np.where(inner, -dist_in, a0 - e0)
    return out


def _ellipse_points(axes, rng, n=400):
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
def test_ellipse_bisection_stops_at_its_fixed_point(axes):
    q = _ellipse_points(axes, np.random.default_rng(11))
    assert _bits(_ellipse_signed_distance(q, axes)) == _bits(ellipse_oracle(q, axes))


def test_ellipse_bisection_on_the_plane_grid():
    g = Grid("plane", ((-3.3375, 3.3375), (-3.3375, 3.3375)), 0.0125)
    q = g.points()[::3, ::3]
    for axes in [(0.6, 0.35), (0.35, 0.6)]:
        assert _bits(_ellipse_signed_distance(q, axes)) == _bits(
            ellipse_oracle(q, axes))


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 30), st.just(2)),
              elements=st.floats(-50.0, 50.0, allow_subnormal=True)),
       st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)))
def test_ellipse_bisection_on_random_points(q, axes):
    assert _bits(_ellipse_signed_distance(q, axes)) == _bits(ellipse_oracle(q, axes))
