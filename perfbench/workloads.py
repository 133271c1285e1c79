"""The benchmark's workloads: inputs drawn from a seed, the configs built at
set-up, and the operations timed.

Seed 0 is exactly the parameters of the studies the benchmark is named after.
Any other seed scales each jittered length (interval endpoint, ball radius,
ellipse semi-axis) by an independent factor drawn uniformly from
[1 - JITTER, 1 + JITTER]; epsilon ladders, amplitudes and end times never
move, so the work done and the names of the check verdicts stay the same.

This module imports fkpplab only inside functions, so that the parent
process can read the workload names without loading fkpplab or scipy.
"""

from __future__ import annotations

import os
import random

JITTER = 0.02
LADDER = (0.04, 0.02, 0.01)

WHY = {
    "line_ladder": "speed, thickness and generation studies on the eps ladder; "
                   "line solver hot path, the only workload where the run "
                   "cache is hit",
    "barrier_sandwich": "barrier check at eps=0.02; the only workload bound "
                        "by the ODE semiflow and the barrier evaluations",
    "radial_no_interface": "no-interface study on the ladder; radial solves "
                           "with a mirror wall and few observables",
    "plane_ellipse": "one plane-mode ellipse run on a 535x535 grid; ray "
                     "observables, ADI, signed distance and checkpoint I/O",
}
NAMES = tuple(WHY)

# Layers whose call count must be nonzero on each workload at the commit that
# defined the benchmark, and layers that must not be called at all.  Each
# entry is checked by the benchmark's self-test; README.md says which
# end-to-end metric each layer should move.
PREDICTED_NONZERO = {
    "line_ladder": (
        "solver.run", "solver.step", "solver.reaction_substep",
        "solver.diffusion_substep", "grids.solve_tridiagonal",
        "solver.front_position", "solver.build_initial",
        "geometry.signed_distance", "reporting.write_csv",
        "studies.cached_run",
    ),
    "barrier_sandwich": (
        "solver.run", "solver.step", "grids.solve_tridiagonal",
        "kinetics.semiflow", "studies.fit_generation_drift",
        "barriers.generation_sub", "barriers.global_super",
        "barriers.motion_sub", "barriers.discrete_residual",
        "waves.solve_wave", "waves.solve_sign_changing_wave",
        "studies.cached_wave", "solver.build_initial",
        "geometry.signed_distance", "reporting.write_csv",
    ),
    "radial_no_interface": (
        "solver.run", "solver.step", "solver.reaction_substep",
        "solver.diffusion_substep", "grids.solve_tridiagonal",
        "solver.front_position", "grids.interpolate", "solver.build_initial",
        "reporting.write_csv", "studies.cached_run",
    ),
    "plane_ellipse": (
        "solver.run", "solver.step", "solver.reaction_substep",
        "solver.diffusion_substep", "grids.solve_tridiagonal",
        "solver.front_position", "grids.interpolate",
        "geometry.signed_distance", "solver.build_initial",
        "solver.dump_checkpoint", "reporting.write_csv",
    ),
}
PREDICTED_ZERO = {
    name: ("kinetics.semiflow", "studies.fit_generation_drift")
    for name in NAMES if name != "barrier_sandwich"
}


def params(workload, seed):
    """The inputs of one workload for one seed."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")

    def jit(value):
        return value if seed == 0 else value * (1.0 + rng.uniform(-JITTER, JITTER))

    if workload == "line_ladder":
        return {"interval": (jit(-0.5), jit(0.5))}
    if workload == "barrier_sandwich":
        return {"interval": (jit(-2.4), jit(2.4))}
    if workload == "radial_no_interface":
        return {"control_radius": jit(0.5)}
    return {"semi_axes": (jit(0.6), jit(0.35))}


def build_configs(workload, p):
    """Every SimConfig (and the KineticsParams) the workload's operations
    will run, built the way the studies build them.  Timed as set-up."""
    from fkpplab.geometry import ConvexBody
    from fkpplab.kinetics import KineticsParams
    from fkpplab.studies import algebraic_family_config, compact_family_config

    if workload == "line_ladder":
        body = ConvexBody.interval(*p["interval"])
        return ([compact_family_config(e, body, 0.9, 0.25, 1.0) for e in LADDER]
                + [compact_family_config(e, body, 0.5, 0.25, 0.5) for e in LADDER])
    if workload == "barrier_sandwich":
        body = ConvexBody.interval(*p["interval"])
        return [compact_family_config(0.02, body, 0.9, 0.1, 1.0),
                KineticsParams(0.02)]
    if workload == "radial_no_interface":
        ball = ConvexBody.ball((0.0, 0.0), p["control_radius"])
        return ([algebraic_family_config(e, 0.5, 2.0, 0.5, 6.0) for e in LADDER]
                + [compact_family_config(e, ball, 0.9, 0.25, 0.5, mode="radial",
                                         dim=2, min_reach=6.0) for e in LADDER])
    return [_plane_config(p)]


def _plane_config(p):
    from fkpplab.geometry import ConvexBody
    from fkpplab.studies import compact_family_config

    body = ConvexBody.ellipse((0.0, 0.0), p["semi_axes"])
    return compact_family_config(0.1, body, 0.9, 0.25, t_end=0.2, mode="plane")


def operations(workload, p, workdir):
    """[(name, callable)]: each callable runs one operation through the
    public API and returns its ExperimentReport, after writing the report
    CSV into workdir as the command line does."""
    from fkpplab import studies
    from fkpplab.geometry import ConvexBody

    def with_csv(name, study):
        def op():
            report = study()
            report.write_csv(os.path.join(workdir, f"{name}.csv"))
            return report
        return name, op

    if workload == "line_ladder":
        body = ConvexBody.interval(*p["interval"])
        return [
            with_csv("speed", lambda: studies.run_speed_study(LADDER, body=body)),
            with_csv("thickness",
                     lambda: studies.run_thickness_study(LADDER, body=body)),
            with_csv("generation",
                     lambda: studies.run_generation_study(LADDER, body=body)),
        ]
    if workload == "barrier_sandwich":
        body = ConvexBody.interval(*p["interval"])
        return [with_csv("barriers",
                         lambda: studies.run_barrier_check(0.02, body=body))]
    if workload == "radial_no_interface":
        return [with_csv("no_interface", lambda: studies.run_no_interface_study(
            LADDER, m=0.5, n=2.0, probe_t=0.5, probe_x=2.0, dim=2,
            control_radius=p["control_radius"]))]
    return [with_csv("plane", lambda: _plane_run(p, workdir))]


def _plane_run(p, workdir):
    """The `simulate` command's work for one plane run: integrate, write the
    final checkpoint, and report the final observables."""
    from fkpplab import solver
    from fkpplab.reporting import ExperimentReport

    cfg = _plane_config(p)
    traj = solver.run(cfg)
    t, fld = traj.checkpoints[-1]
    solver.dump_checkpoint(fld, t, os.path.join(workdir, "checkpoint_final.csv"))
    names = ("sup", "min", "front_half", "layer_width")
    report = ExperimentReport("plane_ellipse", columns=("t",) + names)
    report.add_row(t=t, **{n: float(traj.series[n][-1]) for n in names})
    sup0 = max(1.0, float(traj.series["sup"][0]))
    report.add_check("sup_norm_bounded",
                     float(traj.series["sup"].max()) <= sup0 + 1e-8)
    return report
