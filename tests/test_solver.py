import math
import os
import tracemalloc

import numpy as np
import pytest
from conftest import BLOW_UP_STEP
from scipy.integrate import solve_ivp

from fkpplab import solver
from fkpplab.errors import ConfigurationError, NumericalError
from fkpplab.geometry import ConvexBody
from fkpplab.grids import Field, Grid, interpolate
from fkpplab.kinetics import KineticsParams, eps_log
from fkpplab.reporting import write_table
from fkpplab.solver import (
    RESIDUAL_EVERY,
    InitialData,
    Observer,
    SimConfig,
    Stepper,
    _outermost_crossings,
    _radii,
    _ramp,
    build_initial,
    default_dt,
    dump_checkpoint,
    passage,
    run,
    run_until,
)
from fkpplab.studies import algebraic_family_config, cached, compact_family_config

EPS = 0.04
BODY = ConvexBody.interval(-0.5, 0.5)


def _run(cfg):
    """run(cfg), through the study cache."""
    return cached([cfg], ())[0]


def _line_grid(ext, dx):
    return Grid("line", ((-ext, ext),), dx)


def _front(obs, u, level):
    """The outermost crossing of the level along the observer's scan of the
    state u, None when the level is not attained."""
    x = float(_outermost_crossings(obs.scan, obs.profile(u[None]), (level,))[0, 0])
    return None if math.isnan(x) else x


def test_build_initial_compact_profile():
    init = InitialData.compact(BODY, amplitude=0.9, width=0.25)
    g = _line_grid(1.0, 0.005)
    f = build_initial(init, g, EPS, g.points())[0]
    assert interpolate(f, 0.0) == pytest.approx(0.9)  # saturated plateau
    assert interpolate(f, 0.8) == 0.0  # outside the support
    # one-sided edge slope 3A/w of the analytic ramp
    from fkpplab.solver import compact_value

    h = 1e-8
    slope = (compact_value(init, 0.5 - h) - compact_value(init, 0.5)) / h
    assert slope == pytest.approx(3 * 0.9 / 0.25, rel=1e-6)


def test_build_initial_algebraic():
    init = InitialData.algebraic(m=0.5, n=2.0)
    g = Grid("radial", ((0.0, 1.0),), 0.005, dim=2)
    f = build_initial(init, g, EPS, g.points())[0]
    assert f.values[0] == pytest.approx(0.5)
    assert interpolate(f, EPS) == pytest.approx(0.25, rel=1e-4)  # m/2 at r=eps


def test_build_initial_requires_covering_grid():
    init = InitialData.compact(BODY, amplitude=0.9, width=0.25)
    grid = _line_grid(0.3, 0.005)
    with pytest.raises(ConfigurationError):
        build_initial(init, grid, EPS, grid.points())


def _quarter(ext, dx):
    return Grid("plane", ((0.0, ext), (0.0, ext)), dx)


# (body, grid, tail): the distance is evaluated only within the body's
# reach of the origin; dx = 2^-6 puts a node at the reach of the last three
@pytest.mark.parametrize("body, grid, tail", [
    (ConvexBody.ellipse((0.0, 0.0), (0.6, 0.35)), _quarter(1.0, 0.0125), None),
    (ConvexBody.ellipse((0.0, 0.0), (0.35, 0.6)), _quarter(1.0, 0.0125), None),
    (ConvexBody.ellipse((0.0, 0.0), (0.5, 0.5)), _quarter(1.0, 0.0125),
     (1.0, 0.3)),
    (ConvexBody.ellipse((0.05, -0.04), (0.6, 0.35)),
     Grid("plane", ((-1.0, 1.0), (-1.0, 1.0)), 0.0125), None),
    (ConvexBody.ball((0.05, 0.04), 0.5),
     Grid("plane", ((-1.0, 1.0), (-1.0, 1.0)), 0.0125), None),
    (ConvexBody.interval(-0.45, 0.55), _line_grid(1.0, 0.005), (1.0, 0.3)),
    (ConvexBody.ellipse((0.0, 0.0), (0.625, 0.375)), _quarter(1.0, 2.0**-6),
     None),
    (ConvexBody.ball((0.0, 0.0), 0.5), _quarter(1.0, 2.0**-6), None),
    (ConvexBody.interval(-0.5, 0.375), _line_grid(1.0, 2.0**-6), None),
], ids=["ellipse_wide", "ellipse_tall", "ellipse_round_tail",
        "ellipse_off_centre", "ball_off_centre", "interval_tail",
        "ellipse_node_at_reach", "ball_node_at_reach",
        "interval_node_at_reach"])
def test_build_initial_equals_the_ramp_of_the_distance_at_every_node(
        body, grid, tail):
    init = InitialData.compact(body, 0.9, 0.25, tail)
    x = grid.points()
    u0, g = build_initial(init, grid, 0.1, x)
    want = _ramp(init, body.signed_distance(x))
    assert g.tobytes() == want.tobytes()
    if tail is not None:
        lam, M = tail
        want = want + M * np.exp(-lam * _radii(grid.mode, x) / 0.1)
    assert u0.values.tobytes() == want.tobytes()
    if grid.dx == 2.0**-6:
        assert np.any(_radii(grid.mode, x) == body.reach)


@pytest.mark.parametrize("body, grid, message", [
    (BODY, _line_grid(0.3, 0.005), "reaches the grid boundary"),
    (BODY, Grid("line", ((0.45, 1.0),), 0.005), "does not cover"),
    (BODY, Grid("line", ((0.6, 1.0),), 0.005), "does not cover"),
    (ConvexBody.ellipse((0.0, 0.0), (0.6, 0.35)),
     Grid("plane", ((0.7, 1.0), (0.0, 0.3)), 0.0125), "does not cover"),
], ids=["inside_the_support", "edge_of_the_support", "beyond_the_reach",
        "plane_beyond_the_reach"])
def test_build_initial_rejects_a_grid_that_misses_the_support(body, grid,
                                                              message):
    init = InitialData.compact(body, amplitude=0.9, width=0.25)
    with pytest.raises(ConfigurationError, match=message):
        build_initial(init, grid, EPS, grid.points())


def test_reaction_equilibria_and_closed_form():
    g = _line_grid(0.5, 0.05)
    vals = np.full(g.shape, 0.5)
    vals[0], vals[1] = 0.0, 1.0
    # the reaction half-step of a Stepper covers half of its dt
    out = Stepper(g, 2.0 * EPS * math.log(3.0), EPS).reaction(vals)
    assert out[0] == 0.0
    assert out[1] == 1.0
    assert out[2] == pytest.approx(0.75, abs=1e-12)


def test_reaction_matches_rk():
    # over s = dt/(2 eps) the half-step is the flow of z' = z(1-z)
    g = _line_grid(0.5, 0.05)
    for xi, s in ((0.1, 2.3), (0.9, 0.7), (0.37, 5.0)):
        sol = solve_ivp(lambda _, z: z * (1 - z), (0, s), [xi],
                        method="DOP853", rtol=1e-12, atol=1e-14)
        out = Stepper(g, 2.0 * EPS * s, EPS).reaction(np.full(g.shape, xi))
        assert np.max(np.abs(out - sol.y[0, -1])) <= 1e-10


def test_reaction_is_monotone_map():
    g = _line_grid(0.5, 0.05)
    rng = np.random.default_rng(0)
    u = rng.uniform(0, 1, g.shape)
    v = u + rng.uniform(0, 0.2, g.shape)
    stepper = Stepper(g, 0.02, EPS)
    assert np.all(stepper.reaction(v) >= stepper.reaction(u))


def test_reaction_rejects_negative_values():
    g = _line_grid(0.5, 0.05)
    vals = np.zeros(g.shape)
    vals[3] = -0.1
    with pytest.raises(NumericalError):
        Stepper(g, 0.02, EPS).reaction(vals)


def test_diffusion_constant_field_unchanged():
    g = _line_grid(0.5, 0.005)
    out = Stepper(g, default_dt(g, EPS), EPS).diffusion(np.full(g.shape, 0.37))
    assert np.allclose(out, 0.37, atol=1e-14)


def test_diffusion_conserves_plain_sum_line_mode():
    g = _line_grid(0.5, 0.005)
    rng = np.random.default_rng(5)
    u = rng.uniform(0, 1, g.shape)
    out = Stepper(g, default_dt(g, EPS), EPS).diffusion(u)
    rel = abs(out.sum() - u.sum()) / abs(u.sum())
    assert rel <= 1e-12


def test_diffusion_amplification_factor():
    # Crank-Nicolson damps a cosine mode by (1-beta)/(1+beta)
    g = _line_grid(1.0, 0.005)
    x = g.axis(0)
    k = 3 * np.pi / 2
    u = 0.3 + 0.2 * np.cos(k * (x + 1.0))
    dt = default_dt(g, EPS)
    out = Stepper(g, dt, EPS).diffusion(u)
    beta = EPS * dt * (1 - np.cos(k * g.dx)) / g.dx**2
    predicted = (1 - beta) / (1 + beta)
    interior = slice(20, -20)
    measured = np.linalg.norm(out[interior] - 0.3) / np.linalg.norm(
        u[interior] - 0.3)
    assert measured == pytest.approx(predicted, rel=1e-10)


def test_step_with_zero_dt_is_identity():
    g = _line_grid(0.5, 0.005)
    rng = np.random.default_rng(1)
    u = rng.uniform(0, 1, g.shape)
    out = Stepper(g, 0.0, EPS).step(u)
    assert np.allclose(out, u, atol=1e-14)


def test_strang_order_at_least_1_8():
    dx = EPS / 8
    g = _line_grid(1.2, dx)
    x = g.axis(0)
    u0 = 0.8 * np.exp(-4 * x**2)
    t_end = 0.1
    fields = []
    for div in (1, 2, 4):
        dt = default_dt(g, EPS) / div
        n = math.ceil(t_end / dt)
        stepper = Stepper(g, t_end / n, EPS)
        u = u0
        for _ in range(n):
            u = stepper.step(u)
        fields.append(u)
    e1 = np.linalg.norm(fields[0] - fields[1])
    e2 = np.linalg.norm(fields[1] - fields[2])
    assert np.log2(e1 / e2) >= 1.8


def test_comparison_preservation_random_pairs():
    g = _line_grid(0.5, EPS / 8)
    stepper = Stepper(g, default_dt(g, EPS), EPS)
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = rng.uniform(0, 0.9, g.shape)
        v = u + rng.uniform(0, 0.1, g.shape)
        for _ in range(5):
            u, v = stepper.step(u), stepper.step(v)
        assert np.all(v - u >= -1e-12)


@pytest.mark.parametrize("grid", [
    Grid("plane", ((0.0, 0.325), (0.0, 0.5)), EPS / 8),  # 27 x 41, quarter
    Grid("plane", ((-0.2, 0.3), (-0.15, 0.1)), EPS / 8),
    _line_grid(0.5, EPS / 8),
    Grid("radial", ((0.0, 0.5),), EPS / 8, dim=3),
], ids=["quarter_plane", "plane", "line", "radial"])
def test_step_is_the_one_shot_half_steps_in_a_new_array(grid):
    # the held work arrays change no bit of any step, checked ones included,
    # and no state shares memory with them or with the state before it
    dt = default_dt(grid, EPS)
    stepper = Stepper(grid, dt, EPS)
    u = np.random.default_rng(7).uniform(0.0, 1.0, grid.shape)
    for _ in range(2 * RESIDUAL_EVERY + 1):
        once = Stepper(grid, dt, EPS)
        want = once.reaction(once.diffusion(once.reaction(u)))
        before = u.copy()
        v = stepper.step(u)
        assert v.tobytes() == want.tobytes()
        assert u.tobytes() == before.tobytes()
        assert not any(np.shares_memory(v, w) for w in (u, *stepper.work))
        u = v


def _check_corrupted_factor(g, corrupt):
    """A Stepper whose factor no longer matches its matrix fails the
    residual check on its first step and on step RESIDUAL_EVERY."""
    stepper = Stepper(g, default_dt(g, EPS), EPS)
    corrupt(stepper.factors[0])
    u = np.full(g.shape, 0.5)
    with pytest.raises(NumericalError, match="residual"):
        stepper.step(u)
    stepper.steps = 1
    for _ in range(RESIDUAL_EVERY - 1):
        u = stepper.step(u)
    with pytest.raises(NumericalError, match="residual"):
        stepper.step(u)


def test_stepper_checks_residual_on_first_step_and_every_25th():
    def corrupt(factor):  # the diagonal of the LDL^T factor
        factor._factor[0] = factor._factor[0] * (1.0 + 1e-6)

    _check_corrupted_factor(_line_grid(0.5, EPS / 8), corrupt)


def test_stepper_checks_radial_residual_on_first_step_and_every_25th():
    def corrupt(factor):  # the diagonal of U in the LU factor
        factor._factor[1] = factor._factor[1] * (1.0 + 1e-6)

    _check_corrupted_factor(Grid("radial", ((0.0, 0.5),), EPS / 8, dim=2),
                            corrupt)


# The steps run() takes past a non-finite state, before its block is read,
# must not warn: the finiteness error is the one report of the fault.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_reports_blow_up_with_time_and_step(blow_up):
    cfg = compact_family_config(0.1, BODY, 0.9, 0.25, t_end=0.2)
    with pytest.raises(NumericalError, match="finiteness") as info:
        run(cfg)
    t, k = info.value.diagnostic
    assert k == blow_up
    assert t == pytest.approx(blow_up * cfg.dt, rel=1e-2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_run_reports_infinite_values_with_time_and_step(set_node, value):
    # +inf shows in the sup and -inf in the min, before any crossing is read
    cfg = compact_family_config(0.1, BODY, 0.9, 0.25, t_end=0.2)
    set_node(value)
    with pytest.raises(NumericalError, match="finiteness") as info:
        run(cfg)
    t, k = info.value.diagnostic
    assert k == BLOW_UP_STEP
    assert t == pytest.approx(BLOW_UP_STEP * cfg.dt, rel=1e-2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_plane_run_reports_blow_up_with_time_and_step(set_node, value):
    cfg = compact_family_config(0.3, ConvexBody.ellipse((0.0, 0.0), (0.6, 0.35)),
                                0.9, 0.25, 0.05, mode="plane")
    set_node(value)
    with pytest.raises(NumericalError, match="finiteness") as info:
        run(cfg)
    assert info.value.diagnostic == (BLOW_UP_STEP * cfg.dt, BLOW_UP_STEP)


def _blow_up_step(cfg, dt, where):
    """A step on which run(cfg) reads its block of states: the first
    checkpoint, the last step of the first full block, or the step after
    it.  The run is centred, so it steps on the half line."""
    if where == "checkpoint":
        return round(cfg.checkpoint_times[0] / dt)
    size = solver.BLOCK_BYTES // (8 * (cfg.grid.shape[0] // 2 + 1))
    return size - 1 if where == "block_end" else size


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["checkpoint", "block_end", "after_block_end"])
def test_run_reports_blow_up_where_a_block_is_read(set_node, value, where):
    # the block is read before a checkpoint Field is built from a NaN state
    # (a ConfigurationError), and before the next step's reaction rejects a
    # -inf (a NumericalError of its own)
    if where == "checkpoint":
        cfg = compact_family_config(0.1, BODY, 0.9, 0.25, t_end=0.2)
    else:  # one checkpoint, at the end: the first block fills up
        cfg = compact_family_config(0.1, BODY, 0.9, 0.25, t_end=1.0,
                                    checkpoints=(1.0,))
    n_steps, dt = cfg.n_steps, cfg.dt
    step = _blow_up_step(cfg, dt, where)
    assert 0 < step < n_steps - 1
    set_node(value, step)
    with pytest.raises(NumericalError, match=f"finiteness at step {step},") as info:
        run(cfg)
    assert info.value.diagnostic == (step * dt, step)


def _passage_config(checkpoints):
    """A generation rung at eps = 0.1, 320 steps of dt = 1/640, whose
    threshold_min first reaches 1 - eps on step 197."""
    return compact_family_config(0.1, BODY, 0.9, 0.25, 0.5,
                                 checkpoints=checkpoints)


@pytest.mark.parametrize("blocks", ["one_state", "checkpoints"])
def test_run_until_stops_at_the_end_of_the_passage_block(monkeypatch, blocks):
    # one state per block: the run stops on the passage step itself; blocks
    # of up to K = 425 states that end at checkpoints about 19 steps apart:
    # it stops on the first checkpoint step past the passage, 211
    times = tuple(0.03 * i for i in range(1, 17))
    cfg = _passage_config(times)
    full = run(cfg)
    level = 1.0 - 0.1
    k = passage(full.series["threshold_min"], level)
    steps = [round(t / cfg.dt) for t in times]
    if blocks == "one_state":
        monkeypatch.setattr(solver, "BLOCK_BYTES", 1)
        end = k
    else:
        end = min(s for s in steps if s >= k)
    assert (k, end) == (197, 197 if blocks == "one_state" else 211)
    stopped = run_until(cfg, "threshold_min", level)
    assert stopped.config == cfg and stopped.series.keys() == full.series.keys()
    for name, values in stopped.series.items():
        assert len(values) == end + 1
        assert np.array_equal(values, full.series[name][:end + 1],
                              equal_nan=True), name
    kept = [(t, fld) for t, fld in full.checkpoints if round(t / cfg.dt) < end]
    assert 0 < len(kept) < len(full.checkpoints)
    assert [t for t, _ in stopped.checkpoints] == [t for t, _ in kept]
    for (_, a), (_, b) in zip(stopped.checkpoints, kept):
        assert np.array_equal(a.values, b.values)


def test_run_until_a_passage_that_never_comes_runs_to_t_end():
    cfg = _passage_config(None)
    full = run(cfg)
    stopped = run_until(cfg, "threshold_min", 2.0)
    assert len(stopped.series["t"]) == cfg.n_steps + 1
    for name, values in full.series.items():
        assert np.array_equal(stopped.series[name], values, equal_nan=True)
    assert [t for t, _ in stopped.checkpoints] == [t for t, _ in full.checkpoints]


@pytest.mark.parametrize("cfg, name", [
    (compact_family_config(0.1, BODY, 0.9, 0.25, 0.2), "speed"),
    # algebraic data have no threshold set
    (algebraic_family_config(0.1, 0.5, 2.0, 0.2, 1.0), "threshold_min"),
], ids=["compact", "algebraic"])
def test_run_until_rejects_a_series_the_run_does_not_record(cfg, name):
    with pytest.raises(ConfigurationError, match=f"records no series '{name}'"):
        run_until(cfg, name, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_until_reports_blow_up_with_time_and_step(blow_up):
    cfg = _passage_config(None)
    with pytest.raises(NumericalError, match="finiteness") as info:
        run_until(cfg, "threshold_min", 0.9)
    assert info.value.diagnostic == (blow_up * cfg.dt, blow_up)


def test_sup_norm_bound_with_overshooting_data():
    # tail pushes sup u0 to 1.2; the bound max(1, sup u0)+1e-8 must hold
    # throughout and the sup must relax under 1+eps after generation
    eps = 0.04
    init = InitialData.compact(BODY, amplitude=0.9, width=0.25,
                               tail=(1.0, 0.3))
    cfg = compact_family_config(eps, BODY, 0.9, 0.25, t_end=0.5, tail=(1.0, 0.3))
    traj = _run(cfg)
    sup = traj.series["sup"]
    assert float(sup.max()) <= 1.2 + 1e-8
    t = traj.series["t"]
    t_gen = 2.0 * eps_log(eps)
    assert float(sup[t >= t_gen].max()) <= 1.0 + eps + 1e-8


def test_front_position_linear_ramp():
    g = _line_grid(2.0, 0.01)
    x = g.axis(0)
    f = Field(g, np.clip(0.5 - (x - 1.23), 0.0, 1.0))
    pos = _front(Observer(g, EPS), f.values, 0.5)
    assert pos == pytest.approx(1.23, abs=g.dx)


def test_front_position_translation_equivariance():
    g = _line_grid(2.0, 0.01)
    x = g.axis(0)
    vals = 1.0 / (1.0 + np.exp((x - 0.4) / 0.05))
    f = Field(g, vals)
    shifted = Field(g, np.roll(vals, 30))  # exact 30-cell shift
    obs = Observer(g, EPS)
    p0 = _front(obs, f.values, 0.5)
    p1 = _front(obs, shifted.values, 0.5)
    assert p1 - p0 == pytest.approx(30 * g.dx, abs=1e-12)


def test_front_position_of_evaluated_wave():
    eps = 0.02
    (prof,) = cached((), (2.0,))
    g = _line_grid(1.0, eps / 8)
    x0 = 0.3
    f = Field(g, prof.evaluate((g.axis(0) - x0) / eps))
    obs = Observer(g, eps)
    assert _front(obs, f.values, 0.5) == pytest.approx(x0, abs=g.dx)
    assert _front(obs, f.values, 2.0) is None  # level never attained


def _width(grid, eps, u):
    """The layer_width Observer.observe records for the state u of compact
    data, nan when a band level is not attained."""
    obs = Observer(grid, eps, np.zeros(grid.shape))
    rows = obs.observe(u[None], np.zeros(1), 0)
    return float(rows[obs.names.index("layer_width"), 0])


def test_layer_width_of_evaluated_wave():
    eps = 0.02
    (prof,) = cached((), (2.0,))
    g = _line_grid(1.5, eps / 8)
    w = _width(g, eps, prof.evaluate(g.axis(0) / eps))
    z_hi, z_lo = np.interp([-eps, -(1 - 2 * eps)], -prof.U, prof.z)
    assert w == pytest.approx(eps * (z_hi - z_lo), rel=0.02)


def test_layer_width_translation_invariance():
    g = _line_grid(2.0, 0.01)
    x = g.axis(0)
    vals = 1.0 / (1.0 + np.exp((x - 0.2) / 0.04))
    eps = 0.04
    assert _width(g, eps, np.roll(vals, 17)) == pytest.approx(
        _width(g, eps, vals), abs=1e-12)


def test_layer_width_step_function_floor():
    g = _line_grid(1.0, 0.01)
    assert _width(g, 0.04, np.where(g.axis(0) < 0.5, 1.0, 0.0)) <= 2 * g.dx


def test_advected_wave_measures_speed_two():
    # exact travelling solution as initial data: the fitted slope of the
    # half-level series is the measurement oracle for the speed studies
    eps = 0.04
    dx = eps / 8
    (prof,) = cached((), (2.0,))
    g = _line_grid(3.0, dx)
    f = Field(g, prof.evaluate((g.axis(0) + 1.5) / eps))
    dt = default_dt(g, eps)
    t_end = 0.5
    n = math.ceil(t_end / dt)
    dt = t_end / n
    stepper = Stepper(g, dt, eps)
    obs = Observer(g, eps)
    u = f.values
    times, fronts = [0.0], [_front(obs, u, 0.5)]
    for k in range(1, n + 1):
        u = stepper.step(u)
        times.append(k * dt)
        fronts.append(_front(obs, u, 0.5))
    t = np.array(times)
    fp = np.array(fronts, dtype=float)
    m = t >= 0.1
    slope = np.polyfit(t[m], fp[m], 1)[0]
    t_window = t_end - 0.1
    assert abs(slope - 2.0) <= 2.0 * dx / t_window


def test_front_position_plane_x_ray():
    g = Grid("plane", ((-1.0, 1.0), (-1.0, 1.0)), 0.01)
    pts = g.points()
    r = np.linalg.norm(pts, axis=-1)
    f = Field(g, 1.0 / (1.0 + np.exp((r - 0.6) / 0.03)))
    pos = _front(Observer(g, EPS), f.values, 0.5)
    assert pos == pytest.approx(0.6, abs=2 * g.dx)


@pytest.mark.parametrize("extents, dx", (
    (((-1.0, 1.0), (-1.0, 1.0)), 0.01),
    (((-3.3375, 3.3375), (-3.3375, 3.3375)), 0.0125),  # the 535^2 plane grid
    (((-0.7, 1.3), (-0.45, 0.25)), 0.05),  # asymmetric extents
))
def test_observer_plane_profile_matches_interpolate(extents, dx):
    g = Grid("plane", extents, dx)
    rng = np.random.default_rng(3)
    f = Field(g, rng.random(g.shape))
    obs = Observer(g, EPS)
    profile = obs.profile(f.values[None])[0]
    expected = np.array([interpolate(f, (s, 0.0)) for s in obs.scan])
    assert obs.scan[0] == 0.0 and obs.scan[-1] < extents[0][1]
    assert np.array_equal(profile, expected)


@pytest.mark.parametrize("variant", ("compact", "algebraic"))
def test_run_raises_when_sup_exceeds_the_bound(set_node, variant):
    # sup u0 < 1 for both, so the bound is 1 + 1e-8
    if variant == "compact":
        cfg = compact_family_config(0.1, BODY, 0.9, 0.25, t_end=0.05)
    else:
        cfg = algebraic_family_config(0.1, 0.5, 2.0, 0.05, reach=2.0)
    set_node(1.0 + 0.5e-8)
    assert float(run(cfg).series["sup"].max()) == 1.0 + 0.5e-8
    set_node(1.0 + 2e-8)
    with pytest.raises(NumericalError, match="sup-norm bound violated"):
        run(cfg)


def _observed_one_state_at_a_time(monkeypatch, cfg):
    """run(cfg), the sizes of the blocks it observed, and the series of the
    states it stepped through, observed one at a time (u[None]) by the
    run's own Observer."""
    states, final, observers, blocks = [], [], [], []
    real_step = Stepper.step

    def step(self, u):
        states.append(u.copy())
        final[:] = [real_step(self, u)]
        return final[0]

    class Recording(Observer):
        def __init__(self, *args):
            super().__init__(*args)
            observers.append(self)

        def observe(self, block, times, k):
            blocks.append(len(block))
            return super().observe(block, times, k)

    monkeypatch.setattr(Stepper, "step", step)
    monkeypatch.setattr(solver, "Observer", Recording)
    traj = run(cfg)
    (observer,) = observers
    sizes, t = blocks[:], traj.series["t"]
    rows = [observer.observe(u[None], t[k:k + 1], k)[:, 0]
            for k, u in enumerate(states + final)]
    return traj, sizes, dict(zip(observer.names, np.array(rows).T))


@pytest.mark.parametrize("cfg", [
    compact_family_config(0.04, BODY, 0.9, 0.25, 0.5),
    compact_family_config(0.04, BODY, 0.9, 0.25, 0.5, tail=(1.0, 0.3)),
    algebraic_family_config(0.05, 0.5, 2.0, 0.3, reach=2.0),
    compact_family_config(0.05, ConvexBody.ball((0.0, 0.0, 0.0), 0.5), 0.9,
                          0.25, 0.3, mode="radial", dim=3),
    compact_family_config(0.3, ConvexBody.ellipse((0.0, 0.0), (0.6, 0.35)),
                          0.9, 0.25, 0.05, mode="plane"),
    compact_family_config(0.3, ConvexBody.ellipse((0.05, -0.04), (0.6, 0.35)),
                          0.9, 0.25, 0.05, mode="plane"),
], ids=["line", "line_tail", "radial_algebraic", "radial_compact",
        "plane_centred", "plane_off_centre"])
def test_block_reads_equal_one_state_at_a_time(monkeypatch, cfg):
    traj, sizes, series = _observed_one_state_at_a_time(monkeypatch, cfg)
    n = len(traj.series["t"])
    assert sum(sizes) == n and len(sizes) > 1 and max(sizes) > 1
    assert set(traj.series) == {"t", *series}
    for name, values in series.items():
        assert len(values) == n
        assert traj.series[name].tobytes() == values.tobytes(), name


def test_series_follow_the_data():
    compact = run(compact_family_config(0.1, BODY, 0.9, 0.25, t_end=0.05))
    assert tuple(compact.series) == ("t", "sup", "min", "front_half",
                                     "layer_width", "threshold_min")
    algebraic = run(algebraic_family_config(0.1, 0.5, 2.0, 0.05, reach=2.0))
    assert tuple(algebraic.series) == ("t", "sup", "min")


def test_radial_matches_plane_on_front_region():
    eps, t_end = 0.1, 0.15
    dx = eps / 8
    body = ConvexBody.ball((0.0, 0.0), 0.5)
    init = InitialData.compact(body, 0.9, 0.25)
    need = 0.5 + 2 * t_end + 10 * eps_log(eps)
    n = math.ceil(need / dx + 2)
    ext = n * dx
    grid_r = Grid("radial", ((0.0, ext),), dx, dim=2)
    cfg_r = SimConfig(eps, grid_r, init, t_end=t_end, checkpoint_times=(t_end,))
    grid_p = Grid("plane", ((-ext, ext), (-ext, ext)), dx)
    cfg_p = SimConfig(eps, grid_p, init, t_end=t_end, checkpoint_times=(t_end,))
    fr = _run(cfg_r).checkpoints[-1][1]
    fp = _run(cfg_p).checkpoints[-1][1]
    r = grid_r.axis(0)
    ur = fr.values
    up = np.array([interpolate(fp, (ri, 0.0)) for ri in r])
    front = (ur > 0.01) & (ur < 0.99)
    assert front.sum() > 10
    assert np.max(np.abs(ur - up)[front]) <= 5e-3


def test_config_validation():
    init = InitialData.compact(BODY, 0.9, 0.25)
    with pytest.raises(ConfigurationError):  # dx too coarse
        SimConfig(0.04, _line_grid(4.0, 0.04), init, t_end=1.0)
    with pytest.raises(ConfigurationError):  # domain below outflow margin
        SimConfig(0.04, _line_grid(1.0, 0.005), init, t_end=1.0)


def test_config_rejects_a_t_end_not_finite():
    # the outflow margin rejects a NaN or an infinite t_end by name, before
    # it is compared with the domain's reach
    init = InitialData.compact(BODY, 0.9, 0.25)
    for t_end in (math.nan, math.inf):
        with pytest.raises(ConfigurationError,
                           match=rf"^t_end = {t_end:g} must be positive and finite$"):
            SimConfig(0.04, _line_grid(4.0, 0.005), init, t_end=t_end)


# One invalid value of each InitialData parameter, by the name its error
# gives.
INVALID_INITIAL = {
    "body": lambda: InitialData.compact(None, 0.9, 0.25),
    "width": lambda: InitialData.compact(BODY, 0.9, math.nan),
    "tail_lambda": lambda: InitialData.compact(BODY, 0.9, 0.25, (math.nan, 0.05)),
    "tail_cap": lambda: InitialData.compact(BODY, 0.9, 0.25, (1.5, math.nan)),
    "m": lambda: InitialData.algebraic(math.nan, 2.0),
    "n": lambda: InitialData.algebraic(0.5, math.nan),
}


@pytest.mark.parametrize("name", INVALID_INITIAL)
def test_initial_data_rejects_an_invalid_parameter_by_name(name):
    with pytest.raises(ConfigurationError, match=rf"^{name}\b"):
        INVALID_INITIAL[name]()


def test_outflow_margin_clears_an_off_centre_body():
    # the walls stand ten layer widths past the farthest point the sharp
    # front reaches: the body's reach from the origin plus 2 t_end
    eps, t_end = 0.01, 1.0
    cfg = compact_family_config(eps, ConvexBody.interval(-0.05, 0.95), 0.9,
                                0.25, t_end)
    ((lo, hi),) = cfg.grid.extents
    assert min(-lo, hi) - (0.95 + 2.0 * t_end) >= 10.0 * eps_log(eps)


@pytest.mark.parametrize("eps", (0.0, 0.5))
def test_epsilon_outside_its_domain_is_one_error(eps):
    # eps_log decides the domain (0, 1/e); SimConfig and KineticsParams
    # reject such an epsilon through it, before any other check
    init = InitialData.compact(BODY, 0.9, 0.25)
    message = rf"^epsilon = {eps:g} must lie in \(0, 1/e\)$"
    for build in (eps_log, KineticsParams,
                  lambda e: SimConfig(e, _line_grid(4.0, 0.005), init, 1.0)):
        with pytest.raises(ConfigurationError, match=message):
            build(eps)


def test_run_records_each_checkpoint_on_its_step():
    # t_end = 1.01 default_dt is two steps of 0.505 default_dt: each
    # requested time is recorded at its step round(t / dt), at that step's t
    cap = default_dt(_line_grid(1.0, 0.1 / 8.0), 0.1)
    cfg = compact_family_config(0.1, BODY, 0.9, 0.25, 1.01 * cap,
                                checkpoints=(0.505 * cap, 1.01 * cap))
    (t_1, _), (t_2, _) = run(cfg).checkpoints
    assert cfg.n_steps == 2 and t_1 == cfg.dt
    assert t_2 == 2 * cfg.dt == cfg.t_end


def test_config_rejects_two_checkpoints_on_one_step():
    # run() records one checkpoint per step: a second time that rounds to
    # the same step would be dropped without a word
    with pytest.raises(ConfigurationError, match=r"^checkpoints 0\.1 and "
                       r"0\.1000001 fall on one step, 64 of dt = "):
        compact_family_config(0.1, BODY, 0.9, 0.25, 0.2,
                              checkpoints=(0.1, 0.1000001))


def test_family_config_hands_dim_to_the_grid():
    with pytest.raises(ConfigurationError, match="line mode reads no dim, got 3"):
        compact_family_config(0.1, BODY, 0.9, 0.25, 0.2, mode="line", dim=3)


def test_studies_reject_a_tail_below_the_papers_threshold():
    # the studies' compact family is the paper's data class: a tail
    # M exp(-lam |x| / eps) needs lam >= 1
    with pytest.raises(ConfigurationError, match=r"\btail_lambda = 0.5\b"):
        compact_family_config(0.04, BODY, 0.9, 0.25, 0.5, tail=(0.5, 0.05))


def test_run_grid_refinement_moves_front_less_than_dx():
    eps = 0.04
    results = {}
    for dx in (eps / 8, eps / 16):
        ext = math.ceil(2.9 / dx) * dx
        grid = _line_grid(ext, dx)
        init = InitialData.compact(BODY, 0.9, 0.25)
        cfg = SimConfig(eps, grid, init, t_end=0.5)
        traj = _run(cfg)
        results[dx] = traj.series["front_half"][-1]
    assert abs(results[eps / 8] - results[eps / 16]) <= eps / 8


def _checkpoint_rows(fld):
    """The rows of fld's checkpoint by the f-string formula: coordinates,
    then u, row-major over the grid."""
    axes = [fld.grid.axis(i) for i in range(fld.values.ndim)]
    return [",".join(f"{v:.17g}" for v in
                     (*(a[i] for a, i in zip(axes, idx)), fld.values[idx]))
            for idx in np.ndindex(fld.values.shape)]


def test_dump_checkpoint_format(tmp_path):
    g = _line_grid(0.5, 0.25)
    f = Field(g, np.linspace(0, 1, g.shape[0]))
    path = tmp_path / "chk.csv"
    dump_checkpoint(f, 0.5, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# t=0.5"
    assert lines[1] == "x,u"
    assert lines[2:] == [f"{x:.17g},{u:.17g}" for x, u in zip(g.axis(0), f.values)]

    g = Grid("plane", ((-0.3, 0.3), (-0.2, 0.4)), 0.1)
    f = Field(g, np.random.default_rng(5).random(g.shape))
    dump_checkpoint(f, 1 / 3, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# t={1 / 3:.17g}"
    assert lines[1] == "x0,x1,u"
    x0, x1 = g.axis(0), g.axis(1)
    assert lines[2:] == [f"{x0[i]:.17g},{x1[j]:.17g},{f.values[i, j]:.17g}"
                         for i in range(g.shape[0]) for j in range(g.shape[1])]

    # runs even in every coordinate: their unfolded checkpoints read the
    # same backwards along each axis, bit for bit, so write_table folds them
    ellipse = ConvexBody.ellipse((0.0, 0.0), (0.6, 0.35))
    for cfg in (compact_family_config(0.1, BODY, 0.9, 0.25, 0.05),
                compact_family_config(0.3, ellipse, 0.9, 0.25, 0.05,
                                      mode="plane")):
        t, fld = run(cfg).checkpoints[-1]
        bits = fld.values.view(np.int64)
        assert all(np.array_equal(bits, np.flip(bits, ax))
                   for ax in range(bits.ndim))
        dump_checkpoint(fld, t, path)
        assert path.read_text().splitlines()[2:] == _checkpoint_rows(fld)


def test_write_table_matches_fstring_formatting(tmp_path):
    rng = np.random.default_rng(17)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e17,
               -1e17, 1.7976931348623157e308, 1 / 3, 0.1]
    values = np.concatenate([special, rng.standard_normal(20_000)
                             * 10.0 ** rng.integers(-300, 300, 20_000)])
    path = tmp_path / "t.csv"
    with open(path, "w") as fh:
        write_table(fh, values, values[::-1])
    assert path.read_text().splitlines() == [
        f"{a:.17g},{b:.17g}" for a, b in zip(values, values[::-1])]
    # broadcast columns, each value formatted once: a column, a row, a scalar
    col, row, grid = values[:70, None], values[70:350], values[:19600]
    with open(path, "w") as fh:
        write_table(fh, col, row, grid.reshape(70, 280), values[5])
    assert path.read_text().splitlines() == [
        f"{col[i, 0]:.17g},{row[j]:.17g},{grid[280 * i + j]:.17g},"
        f"{values[5]:.17g}" for i in range(70) for j in range(280)]
    # an empty table writes nothing, whichever axis is empty
    for empty in (np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0))):
        with open(path, "w") as fh:
            write_table(fh, empty)
        assert path.read_text() == ""


def test_write_table_mirror_keeps_the_sign_of_zero(tmp_path):
    # 0.0 == -0.0, but the bits differ and so do the strings: no pair of
    # these columns may be folded
    col = np.array([0.0, 1.0, -0.0])
    grid = np.array([[0.0, 2.0, -0.0], [3.0, 4.0, 3.0], [-0.0, 2.0, 0.0]])
    path = tmp_path / "t.csv"
    with open(path, "w") as fh:
        write_table(fh, col, col[::-1])
    assert path.read_text().splitlines() == ["0,-0", "1,1", "-0,0"]
    with open(path, "w") as fh:
        write_table(fh, col[:, None], col, grid)
    assert path.read_text().splitlines() == [
        f"{col[i]:.17g},{col[j]:.17g},{grid[i, j]:.17g}"
        for i in range(3) for j in range(3)]


def _traced_peak(call):
    """call()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checked_solve_and_step_allocate_only_what_they_return():
    """A checked solve forms its residual in arrays its factor holds, so it
    allocates only the solution it returns, and a checked quarter-plane
    step only its new state and, one at a time, its solves' solutions; the
    residual in fresh arrays took about two arrays more.  Half an array of
    slack covers numpy's fixed-size ufunc buffers."""
    g = Grid("plane", ((0.0, 2.67), (0.0, 2.67)), 0.01)
    assert g.shape == (268, 268)
    stepper = Stepper(g, default_dt(g, 0.1), 0.1)
    factor = stepper.factors[0]
    rhs = np.asfortranarray(np.random.default_rng(23).random(g.shape))
    factor.solve(rhs, check=True)  # the first check of a shape makes its arrays
    y, peak = _traced_peak(lambda: factor.solve(rhs, check=True))
    assert peak < 1.5 * y.nbytes

    u = stepper.step(np.full(g.shape, 0.5))  # checked
    for _ in range(RESIDUAL_EVERY - 1):
        u = stepper.step(u)
    assert stepper.steps % RESIDUAL_EVERY == 0  # the next step is checked
    u, peak = _traced_peak(lambda: stepper.step(u))
    assert peak < 2.5 * u.nbytes


def test_plane_stepper_factors_check_through_one_pair_of_arrays():
    """The x and y sweeps of a plane step check blocks of one size, the
    grid's and its transpose, so the two factors share one held pair of
    flat arrays: after a checked step each factor's last residual and work
    array are views of those two, on a square grid and on one that is
    not."""
    for g in (Grid("plane", ((0.0, 0.3), (0.0, 0.3)), 0.01),
              Grid("plane", ((0.0, 0.3), (0.0, 0.2)), 0.01)):
        stepper = Stepper(g, default_dt(g, 0.1), 0.1)
        fx, fy = stepper.factors
        stepper.step(np.full(g.shape, 0.5))  # the first step is checked
        held = fx.check_arrays
        assert fy.check_arrays is held
        assert [a.shape for a in held] == [(math.prod(g.shape),)] * 2
        for factor, shape in ((fx, g.shape), (fy, g.shape[::-1])):
            assert [v.shape for v in factor._held] == [shape] * 2
            assert all(v.base is a for v, a in zip(factor._held, held))


def test_config_rejects_counts_no_array_holds():
    """SimConfig's sizing rule: a dt that underflows to 0 (dx^2 below the
    smallest float) is infinitely many steps, and a step count past
    MAX_VALUES is named with epsilon and t_end; counts an array could hold
    pass, whatever the memory (a config allocates no grid)."""
    init = InitialData.compact(ConvexBody.interval(-1e-158, 1e-158), 0.9, 1e-158)
    grid = _line_grid(1e-156, 1e-170)
    assert default_dt(grid, 1e-160) == 0.0
    with pytest.raises(ConfigurationError,
                       match=r"^epsilon = 1e-160 and t_end = 1e-200 need inf steps"):
        SimConfig(1e-160, grid, init, t_end=1e-200)
    cfg = compact_family_config(0.04, BODY, 0.9, 0.25, 1e12)
    assert cfg.n_steps * math.prod(cfg.grid.shape) > solver.MAX_VALUES
    with pytest.raises(ConfigurationError,
                       match=r"^epsilon = 0.04 and t_end = 1e\+15 need 1.6e\+18 steps"):
        compact_family_config(0.04, BODY, 0.9, 0.25, 1e15)


def test_write_table_mirror_memory_is_bounded():
    """A 535x535 table symmetric on both axes keeps only the half rows still
    waiting for their mirror: the traced peak stays below 6 MB, where a fold
    that keeps the strings of the whole table peaks near 9 MB."""
    rng = np.random.default_rng(3)
    q = rng.random((268, 268)) * 10.0 ** rng.integers(-300, 300, (268, 268))
    q = np.concatenate((q[:0:-1], q))
    u = np.concatenate((q[:, :0:-1], q), axis=1)
    x = np.linspace(-2.67, 2.67, 535)
    with open(os.devnull, "w") as fh:
        tracemalloc.start()
        try:
            write_table(fh, x[:, None], x, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 6e6
