"""Property tests of the Strang stepper (comparison, sum conservation on
the full and the half line, monotone reaction, reuse of one Stepper against
a fresh one per step) and of the semiflow (agreement with an ODE solve,
the semigroup law, monotonicity, fixed points, zero on xi <= 0, the closed
form below eps|ln eps|, independence of the batch) and of the table writer
(the bytes of the f-string formatting, whichever mirror folds apply)."""

import dataclasses
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from fkpplab import reporting
from fkpplab.grids import Grid
from fkpplab.kinetics import KineticsParams, modified_logistic, semiflow
from fkpplab.solver import Stepper, default_dt

EPS = 0.04
GRIDS = {
    "line": Grid("line", ((-0.1, 0.1),), EPS / 8),
    "radial": Grid("radial", ((0.0, 0.2),), EPS / 8, dim=3),
    "plane": Grid("plane", ((-0.06, 0.06), (-0.05, 0.05)), EPS / 8),
}
HALF_LINE = Grid("line", ((0.0, 0.1),), EPS / 8)
PROPS = settings(max_examples=25, deadline=None)


def _values(shape, hi=1.0):
    return arrays(np.float64, shape,
                  elements=st.floats(0.0, hi, allow_subnormal=False))


@st.composite
def ordered_pair(draw, mode):
    shape = GRIDS[mode].shape
    u = draw(_values(shape, 0.9))
    return u, u + draw(_values(shape, 0.1))


def _check_order_preserved(g, pair, steps=3):
    u, v = pair
    stepper = Stepper(g, default_dt(g, EPS), EPS)
    for _ in range(steps):
        u, v = stepper.step(u), stepper.step(v)
    assert np.all(v - u >= -1e-12)


@PROPS
@given(ordered_pair("line"))
def test_stepper_preserves_order_line(pair):
    _check_order_preserved(GRIDS["line"], pair)


@pytest.mark.parametrize("dim", (2, 3))
@PROPS
@given(ordered_pair("radial"))
def test_stepper_preserves_order_radial(dim, pair):
    _check_order_preserved(dataclasses.replace(GRIDS["radial"], dim=dim), pair)


@PROPS
@given(ordered_pair("plane"))
def test_stepper_preserves_order_plane(pair):
    _check_order_preserved(GRIDS["plane"], pair)


@PROPS
@given(_values(GRIDS["line"].shape), st.floats(0.05, 1.0))
def test_line_diffusion_conserves_sum(u, dt_scale):
    g = GRIDS["line"]
    out = Stepper(g, dt_scale * default_dt(g, EPS), EPS).diffusion(u)
    assert abs(out.sum() - u.sum()) <= 1e-12 * max(1.0, u.sum())


@PROPS
@given(_values(HALF_LINE.shape), st.floats(0.05, 1.0))
def test_half_line_diffusion_conserves_trapezoid_sum(u, dt_scale):
    # the half x >= 0 of an even run: half weight on the mirror node at 0
    w = np.ones(HALF_LINE.shape)
    w[0] = 0.5
    out = Stepper(HALF_LINE, dt_scale * default_dt(HALF_LINE, EPS), EPS).diffusion(u)
    assert abs(w @ out - w @ u) <= 1e-12 * max(1.0, w @ u)


@PROPS
@given(ordered_pair("line"), st.floats(0.0, 1.0))
def test_reaction_half_step_is_monotone(pair, dt_scale):
    g = GRIDS["line"]
    u, v = pair
    stepper = Stepper(g, dt_scale * default_dt(g, EPS), EPS)
    assert np.all(stepper.reaction(v) - stepper.reaction(u) >= -1e-15)


@PROPS
@given(st.sampled_from(sorted(GRIDS)), st.integers(0, 2**32 - 1))
def test_reused_stepper_matches_one_shot_steps(mode, seed):
    g = GRIDS[mode]
    u0 = np.random.default_rng(seed).uniform(0.0, 1.0, g.shape)
    dt = default_dt(g, EPS)
    stepper = Stepper(g, dt, EPS)
    u = fresh = u0
    for _ in range(30):  # past the first unchecked residual cadence
        u = stepper.step(u)
        fresh = Stepper(g, dt, EPS).step(fresh)
    assert np.array_equal(u, fresh)


# --- semiflow ---------------------------------------------------------------

KINETICS = {eps: KineticsParams(eps) for eps in (0.04, 0.02, 0.01)}


def _zeros(p):
    """The fixed points of max(0, w): 0, where it stays, and the zeros of
    the rate."""
    return (0.0, p.threshold, 1.0)


def _breakpoints(p):
    return (0.0, p.threshold, p.pos_inner, p.pos_outer, 1.0)


@st.composite
def kinetics_and_xi(draw):
    """A KineticsParams and a xi: uniform on [-3, 3], or within 1e-12..1e-2
    of a zero or of a breakpoint of the rate, on either side."""
    p = KINETICS[draw(st.sampled_from(sorted(KINETICS)))]
    kind = draw(st.sampled_from(("uniform", "near")))
    if kind == "uniform":
        return p, draw(st.floats(-3.0, 3.0))
    base = draw(st.sampled_from(_breakpoints(p)))
    offset = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-12, -2))
    return p, base + offset


def _ode_oracle(s, xi, p):
    sol = solve_ivp(lambda _, w: modified_logistic(w, p), (0.0, s), [xi],
                    method="DOP853", rtol=1e-13, atol=1e-20)
    assert sol.success
    return sol.y[0, -1]


@settings(max_examples=30, deadline=None)
@given(kinetics_and_xi(), st.floats(0.0, 20.0))
def test_semiflow_matches_ode_oracle(p_xi, s):
    p, xi = p_xi
    assert abs(semiflow(s, xi, p) - max(0.0, _ode_oracle(s, xi, p))) <= 1e-9


@PROPS
@given(kinetics_and_xi(), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_semiflow_semigroup_law(p_xi, s, t):
    p, xi = p_xi
    mid = semiflow(s, xi, p)
    end = semiflow(s + t, xi, p)
    # rounding of the midpoint grows by w_xi(t, mid) = f(end)/f(mid)
    f_mid = modified_logistic(mid, p)
    gain = abs(modified_logistic(end, p) / f_mid) if f_mid else 1.0
    assert abs(semiflow(t, mid, p) - end) <= 1e-11 * (1.0 + gain)


@PROPS
@given(st.sampled_from(sorted(KINETICS)),
       st.lists(st.integers(-2000, 2000), min_size=2, max_size=30, unique=True),
       st.floats(1e-3, 1.0))
def test_semiflow_strictly_increasing_in_xi(eps, ks, s):
    # xi 1e-3 apart on [-2, 2]; in time s <= 1 no gap closes below rounding.
    # Strictly increasing where w > 0, never decreasing.
    xi = np.sort(np.array(ks)) / 1000.0
    w = semiflow(s, xi, KINETICS[eps])
    rise = np.diff(w)
    assert np.all(rise >= 0.0)
    assert np.all(rise[w[1:] > 0.0] > 0.0)


@PROPS
@given(st.sampled_from(sorted(KINETICS)), st.floats(-1e6, 0.0),
       st.floats(0.0, 1e3))
def test_semiflow_vanishes_on_nonpositive_data(eps, xi, s):
    assert semiflow(s, xi, KINETICS[eps]) == 0.0


@PROPS
@given(st.sampled_from(sorted(KINETICS)), st.floats(0.0, 1.0,
       exclude_min=True, exclude_max=True), st.floats(0.0, 30.0))
def test_semiflow_closed_form_below_threshold(eps, frac, s):
    # on (0, theta) the rate is (w - theta)/|ln eps|: w decays away from
    # theta until it reaches 0, where max(0, w) stays
    p = KINETICS[eps]
    theta = p.threshold
    xi = frac * theta
    exact = max(0.0, theta - (theta - xi) * math.exp(s / p.log_eps))
    assert abs(semiflow(s, xi, p) - exact) <= 1e-15


@PROPS
@given(st.sampled_from(sorted(KINETICS)), st.floats(0.0, 1e3))
def test_semiflow_zeros_are_fixed(eps, s):
    p = KINETICS[eps]
    zeros = np.array(_zeros(p))
    assert np.array_equal(semiflow(s, zeros, p), zeros)
    assert all(semiflow(s, z, p) == z for z in zeros)


@PROPS
@given(st.sampled_from(sorted(KINETICS)),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20),
       st.floats(1e-6, 30.0), st.randoms(use_true_random=False))
def test_semiflow_point_independent_of_batch(eps, xs, s, rnd):
    p = KINETICS[eps]
    xs = np.array(xs + list(_zeros(p)))
    w = semiflow(s, xs, p)
    assert all(semiflow(s, x, p) == wi for x, wi in zip(xs, w))
    order = np.array(rnd.sample(range(xs.size), xs.size))
    assert np.array_equal(semiflow(s, xs[order], p), w[order])
    picks = np.array([rnd.randrange(xs.size) for _ in range(2 * xs.size)])
    assert np.array_equal(semiflow(s, xs[picks], p), w[picks])


# Values whose strings are easy to get wrong: both zeros, subnormals, the
# smallest normal and numbers near the ends of the exponent range.
TABLE_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e300, -1e300, 1e-300, -1e-300, 1 / 3]
TABLE_VALUES = st.one_of(st.sampled_from(TABLE_SPECIALS),
                         st.floats(allow_nan=False, allow_infinity=False))


def _mirror(a, axis):
    """a with the second half along axis replaced by the mirror image of
    the first, so that it reads the same backwards there, bit for bit."""
    i = np.arange(a.shape[axis])
    return a.take(np.minimum(i, i[::-1]), axis=axis)


@st.composite
def mirrored_table(draw):
    """write_table's columns as dump_checkpoint passes them (the axes of a
    plane table broadcast as a column and a row), the last made exactly
    symmetric along no axis, axis 0, the last axis or both."""
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=2)))
    u = draw(arrays(np.float64, shape, elements=TABLE_VALUES))
    for axis in draw(st.sets(st.sampled_from([0, len(shape) - 1]))):
        u = _mirror(u, axis)
    if len(shape) == 1:
        x = draw(arrays(np.float64, shape, elements=TABLE_VALUES))
        return (_mirror(x, 0) if draw(st.booleans()) else x), u
    x0 = draw(arrays(np.float64, (shape[0], 1), elements=TABLE_VALUES))
    x1 = draw(arrays(np.float64, shape[1], elements=TABLE_VALUES))
    return x0, x1, u


@settings(max_examples=200, deadline=None)
@given(mirrored_table(), st.integers(1, 12))
def test_write_table_mirror_folds_match_fstring_formatting(columns, rows):
    # small blocks, so that the rows of a table and their mirrors fall in
    # different blocks
    fh = io.StringIO()
    with mock.patch.object(reporting, "TABLE_ROWS", rows):
        reporting.write_table(fh, *columns)
    cols = np.broadcast_arrays(*columns)
    assert fh.getvalue() == "".join(
        ",".join(f"{c[idx]:.17g}" for c in cols) + "\n"
        for idx in np.ndindex(cols[0].shape))


def test_write_table_paths_match_fstring_formatting_across_the_middle_row():
    # one table per path: a small column that changes per row (x0), one
    # that does not (x1) and a column mirrored on both axes go through the
    # joined template; a plain full-size column next to them puts the same
    # table through the one-'%' path.  Every block size from one row to
    # the whole table, so that blocks straddle the middle row
    rng = np.random.default_rng(11)
    n, width = 7, 5
    x0 = rng.standard_normal((n, 1))
    x1 = rng.standard_normal(width)
    u = _mirror(_mirror(rng.standard_normal((n, width)), 0), 1)
    plain = rng.standard_normal((n, width))
    for columns in ((x0, x1, u), (x0, plain, x1, u)):
        cols = np.broadcast_arrays(*columns)
        want = "".join(",".join(f"{c[idx]:.17g}" for c in cols) + "\n"
                       for idx in np.ndindex(cols[0].shape))
        for rows in range(1, n + 1):
            fh = io.StringIO()
            with mock.patch.object(reporting, "TABLE_ROWS", rows * width):
                reporting.write_table(fh, *columns)
            assert fh.getvalue() == want
    # one row, every column the same in it: the template alone
    columns = (x1[:3].reshape(1, 3, 1), x1[:4].reshape(1, 1, 4))
    fh = io.StringIO()
    reporting.write_table(fh, *columns)
    assert fh.getvalue() == "".join(
        f"{a:.17g},{b:.17g}\n" for a in x1[:3] for b in x1[:4])
