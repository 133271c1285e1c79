"""The hot kernels of a run against the formulas they replaced, bit for bit:
the outermost level crossing (each row of a block of profiles), the line
solve's residual check, and the reaction half-step.  The replaced formulas
are kept here as the oracles.  The line solve is held to the pivoting LU it
replaced on line and plane axes to 1e-13, and bit for bit on radial ones.
The Crank-Nicolson step, 2 T^{-1} u - u along each axis, is held to the
dense solve of T y = (I + a L) u, built from the Laplacian rows (mirror
walls included), to rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrs

from fkpplab.errors import NumericalError
from fkpplab.grids import Grid
from fkpplab.solver import (RESIDUAL_EVERY, Stepper, _lap_coeffs,
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


# ---- the Laplacian and the Crank-Nicolson step ------------------------------

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


def _dense_lap(g, axis):
    sub, diag, sup = _lap_coeffs(g, axis)
    return np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)


# The step against the dense solve, relative to max|want|: at most 5.3e-16
# measured over these grids, at default_dt and 0.3 default_dt, checked and
# unchecked steps alike; the bound leaves a margin of about 7.5.
DENSE_RTOL = 4e-15


@pytest.mark.parametrize("mode", [*GRIDS, "radial_2", "radial_3"])
@pytest.mark.parametrize("dt_share", [1.0, 0.3])
def test_diffusion_is_the_dense_crank_nicolson_solve(mode, dt_share):
    # each axis's step is T^{-1} (I + a L) u, T = I - a L, as the dense
    # solve gives it; on a plane the axes' operators L_0 (x) I and
    # I (x) L_1 commute, and the step is their product
    g = GRIDS.get(mode) or Grid("radial", GRIDS["radial"].extents, EPS / 8,
                                dim=int(mode[-1]))
    stepper = Stepper(g, dt_share * default_dt(g, EPS), EPS)
    a = stepper.a
    u = np.random.default_rng(3).random(g.shape)
    if g.mode == "plane":
        n0, n1 = g.shape
        ops = [np.kron(_dense_lap(g, 0), np.eye(n1)),
               np.kron(np.eye(n0), _dense_lap(g, 1))]
        assert np.array_equal(ops[0] @ ops[1], ops[1] @ ops[0])
    else:
        ops = [_dense_lap(g, 0)]
    want = u.ravel()
    eye = np.eye(want.size)
    for lap in ops:
        want = np.linalg.solve(eye - a * lap, (eye + a * lap) @ want)
    before = u.copy()
    for check in (True, False):
        assert (stepper.steps % RESIDUAL_EVERY == 0) == check
        got = stepper.diffusion(u)
        assert got.shape == g.shape
        assert np.max(np.abs(got.ravel() - want)) <= DENSE_RTOL * np.max(np.abs(want))
        assert _bits(u) == _bits(before)
        stepper.steps += 1


@pytest.mark.parametrize("mode, axis", [
    *((mode, 0) for mode in [*GRIDS, "radial_2"]),
    ("plane", 1), ("quarter_plane", 1)])
@pytest.mark.parametrize("tail", [(5e-324,), (5e-324, 1e-323), (1e-323, 5e-324),
                                  (0.0, 5e-324)])
def test_subnormal_tails_step_without_a_negative(mode, axis, tail):
    # the smallest subnormals on and next to the first row along one axis (a
    # mirror row on the half grids and at the radial origin): the solve
    # halves them to 0, where 2y - u rounds below 0 unless the step clamps it
    g = GRIDS.get(mode) or Grid("radial", GRIDS["radial"].extents, EPS / 8, dim=2)
    u = np.zeros(g.shape)
    np.moveaxis(u, axis, 0)[:len(tail)].T[...] = tail
    stepper = Stepper(g, default_dt(g, EPS), EPS)
    for _ in range(3):
        u = stepper.step(u)
        assert u.min() >= 0.0


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


def residual_oracle(factor, rhs, y):
    """|T y - rhs| by the plain expression _check replaced."""
    shape = (-1, *([1] * (rhs.ndim - 1)))
    resid = factor.diag.reshape(shape) * y
    resid[:-1] += factor.upper.reshape(shape) * y[1:]
    resid[1:] += factor.lower.reshape(shape) * y[:-1]
    resid -= rhs
    return np.abs(resid)


CHECK_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, 5e-324]),
    st.floats(-10.0, 10.0))


@PROPS
@given(st.sampled_from(sorted(GRIDS)), st.data())
def test_residual_check_matches_the_plain_expression(mode, data):
    # the held residual has the plain expression's magnitudes bit for bit,
    # non-finite ones included, and the check raises exactly when the
    # plain expression exceeds the bound
    for factor in _factors(GRIDS[mode]):
        n = factor.diag.size
        shape = data.draw(st.sampled_from([(n,), (n, 1), (n, 3)]))
        rhs = data.draw(arrays(np.float64, shape, elements=CHECK_VALUES))
        y = np.asfortranarray(
            data.draw(arrays(np.float64, shape, elements=CHECK_VALUES)))
        with np.errstate(all="ignore"):
            want = residual_oracle(factor, rhs, y)
            scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(y))),
                        1e-300)
            try:
                factor._check(rhs, y)
                raised = False
            except NumericalError:
                raised = True
        assert raised == (float(np.max(want)) > 1e-12 * scale)
        assert _bits(factor._held[0]) == _bits(want)


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

