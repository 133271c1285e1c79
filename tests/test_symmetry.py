"""A run that is even in a coordinate is solved on that axis's half x >= 0
with a mirror wall at 0, and its checkpoints are unfolded: the reduced run
against the same run stepped on the full grid, and which configurations
are reduced."""

import numpy as np
import pytest

from fkpplab import solver
from fkpplab.geometry import ConvexBody
from fkpplab.grids import Grid
from fkpplab.solver import (InitialData, Observer, SimConfig, Stepper,
                            build_initial, run)
from fkpplab.studies import algebraic_family_config, compact_family_config

INTERVAL = ConvexBody.interval(-0.5, 0.5)
ELLIPSE = ConvexBody.ellipse((0.0, 0.0), (0.6, 0.35))
# Relative agreement is asked of normal floats only: the far field decays
# into subnormals, which carry no relative precision.
RTOL, ATOL = 1e-12, np.finfo(float).tiny


def _full_domain(cfg):
    """run()'s series and checkpoint values, from a Stepper and an Observer
    on the configuration's full grid."""
    grid = cfg.grid
    u0, g = build_initial(cfg.initial, grid, cfg.epsilon, grid.points())
    n, dt = cfg.n_steps, cfg.dt
    stepper, observer = Stepper(grid, dt, cfg.epsilon), Observer(grid, cfg.epsilon, g)
    wanted = {int(round(tc / dt)) for tc in cfg.checkpoint_times}
    u, rows, checkpoints = u0.values, [], []
    for k in range(n + 1):
        if k:
            u = stepper.step(u)
        rows.append(observer.observe(u[None], np.array([k * dt]), k)[:, 0])
        if k in wanted:
            checkpoints.append(u)
    return dict(zip(observer.names, np.array(rows).T)), checkpoints


@pytest.mark.parametrize("cfg", [
    compact_family_config(0.04, INTERVAL, 0.9, 0.25, 1.0),
    compact_family_config(0.04, INTERVAL, 0.9, 0.25, 0.5, tail=(1.0, 0.3)),
    compact_family_config(0.3, ELLIPSE, 0.9, 0.25, 0.05, mode="plane"),
], ids=["line", "line_tail", "plane_ellipse"])
def test_reduced_run_equals_full_domain_run(cfg):
    traj = run(cfg)
    series, checkpoints = _full_domain(cfg)
    assert set(traj.series) == {"t", *series}
    for name, values in series.items():
        np.testing.assert_allclose(traj.series[name], values, rtol=RTOL, atol=ATOL)
    assert len(traj.checkpoints) == len(checkpoints) == 2
    for (_, fld), values in zip(traj.checkpoints, checkpoints):
        assert fld.grid == cfg.grid
        np.testing.assert_allclose(fld.values, values, rtol=RTOL, atol=ATOL)


def _line_config(extents, body=INTERVAL, eps=0.1):
    grid = Grid("line", extents, eps / 8)
    return SimConfig(eps, grid, InitialData.compact(body, 0.9, 0.25), t_end=0.05)


def _plane(body):
    return compact_family_config(0.3, body, 0.9, 0.25, 0.05, mode="plane")


@pytest.fixture
def stepper_shape(monkeypatch):
    """stepper_shape(cfg): the shape of the grid run(cfg) steps on."""
    shapes = []

    class Recording(Stepper):
        def __init__(self, grid, dt, epsilon):
            shapes.append(grid.shape)
            super().__init__(grid, dt, epsilon)

    monkeypatch.setattr(solver, "Stepper", Recording)

    def shape(cfg):
        run(cfg)
        return shapes.pop()

    return shape


def _half(n):
    return n // 2 + 1


@pytest.mark.parametrize("cfg, reduced", [
    (_line_config(((-3.0, 3.0),)), (True,)),
    (_line_config(((-3.0, 3.0),), ConvexBody.interval(-0.45, 0.55)), (False,)),
    (_line_config(((-3.00625, 3.00625),)), (False,)),  # no node at 0
    (_line_config(((-3.0, 3.0125),)), (False,)),  # extents not (-e, e)
    (_plane(ELLIPSE), (True, True)),
    (_plane(ConvexBody.ellipse((0.05, -0.04), (0.6, 0.35))), (False, False)),
    (_plane(ConvexBody.ellipse((0.05, 0.0), (0.6, 0.35))), (False, True)),
    (_plane(ConvexBody.ball((0.0, 0.0), 0.5)), (True, True)),
    (_plane(ConvexBody.ball((0.05, 0.04), 0.5)), (False, False)),
    (compact_family_config(0.1, ConvexBody.ball((0.0, 0.0), 0.5), 0.9, 0.25,
                           0.05, mode="radial", dim=2), (False,)),
    (algebraic_family_config(0.1, 0.5, 2.0, 0.05, reach=2.0), (False,)),
], ids=["centred_interval", "off_centre_interval", "no_node_at_0",
        "uneven_extents", "origin_ellipse", "off_origin_ellipse",
        "ellipse_centred_in_y", "origin_ball", "off_centre_ball",
        "radial_ball", "radial_algebraic"])
def test_grid_the_run_steps_on(stepper_shape, cfg, reduced):
    want = tuple(_half(n) if r else n for r, n in zip(reduced, cfg.grid.shape))
    assert stepper_shape(cfg) == want
