"""Property tests of the Strang stepper: comparison, sum conservation,
monotone reaction, and reuse of one Stepper against the one-shot wrapper."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fkpplab.grids import Field, Grid
from fkpplab.solver import Stepper, default_dt, diffusion_substep, step

EPS = 0.04
GRIDS = {
    "line": Grid("line", ((-0.1, 0.1),), EPS / 8),
    "radial": Grid("radial", ((0.0, 0.2),), EPS / 8, dim=3),
    "plane": Grid("plane", ((-0.06, 0.06), (-0.05, 0.05)), EPS / 8),
}
PROPS = settings(max_examples=25, deadline=None)


def _values(shape, hi=1.0):
    return arrays(np.float64, shape,
                  elements=st.floats(0.0, hi, allow_subnormal=False))


@st.composite
def ordered_pair(draw, mode):
    shape = GRIDS[mode].shape
    u = draw(_values(shape, 0.9))
    return u, u + draw(_values(shape, 0.1))


def _check_order_preserved(mode, pair, steps=3):
    g = GRIDS[mode]
    u, v = pair
    stepper = Stepper(g, default_dt(g, EPS), EPS)
    for _ in range(steps):
        u, v = stepper.step(u), stepper.step(v)
    assert np.all(v - u >= -1e-12)


@PROPS
@given(ordered_pair("line"))
def test_stepper_preserves_order_line(pair):
    _check_order_preserved("line", pair)


@PROPS
@given(ordered_pair("radial"))
def test_stepper_preserves_order_radial(pair):
    _check_order_preserved("radial", pair)


@PROPS
@given(ordered_pair("plane"))
def test_stepper_preserves_order_plane(pair):
    _check_order_preserved("plane", pair)


@PROPS
@given(_values(GRIDS["line"].shape), st.floats(0.05, 1.0))
def test_line_diffusion_conserves_sum(u, dt_scale):
    g = GRIDS["line"]
    out = diffusion_substep(Field(g, u), dt_scale * default_dt(g, EPS), EPS)
    assert abs(out.values.sum() - u.sum()) <= 1e-12 * max(1.0, u.sum())


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
    u, fld = u0, Field(g, u0)
    for _ in range(30):  # past the first unchecked residual cadence
        u = stepper.step(u)
        fld = step(fld, dt, EPS)
    assert np.array_equal(u, fld.values)
