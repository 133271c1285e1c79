"""Experiment orchestration: the epsilon-ladder studies and their verdicts.

Every study returns an ExperimentReport whose rows are sorted by decreasing
epsilon, whose checks encode the quantitative claims being measured (front
speed 2, layer thickness ~ eps|ln eps|, generation time ~ eps|ln eps|,
pointwise limit 1 for algebraic tails, barrier orderings), and whose CSV
form is byte-stable across reruns.

Each study is declared by its signature alone (@_study): a default body is
a parameter default, a ladder is its distinct epsilons, and config_hash
covers every argument at its effective value.  Every CLI command runs a
study; a report names the files it writes beside report.csv, each by a
writer taking the path: its CSV tables in metadata["tables"] and its SVG
figures in metadata["figures"].

A ladder study builds every rung's config before any run starts, so an
invalid rung fails at once, and reads their runs in one batch: the
generation study's rungs run only to their first passage (run_until), the
other ladders' to t_end.  The barrier check hands its run and its four
waves over in one batch, and the wave study all its speeds.  The
jobs not in the study cache run at the same time, each in a worker process
forked from the caller: at most one worker per uncached job and per usable
CPU (os.sched_getaffinity), so `taskset -c 0` runs them one after another
in the calling process, as does a batch of one or a platform without
os.sched_getaffinity.  A worker runs the same code on the same arguments,
so every report, table, figure and checkpoint keeps its bytes; a failing
job stops the others.  A study reads each checkpoint field at its recorded t.
"""

from __future__ import annotations

import inspect
import math
import os
from collections import OrderedDict
from dataclasses import replace
from functools import partial, wraps

import numpy as np

from .barriers import (
    SHELL_RHO,
    discrete_residual,
    generation_sub,
    generation_super,
    global_super,
    k0_lower_bound,
    m1_recipe,
    motion_sub,
    motion_theta,
    radial_sub_W,
    shell_coordinate,
)
from .errors import ConfigurationError
from .geometry import ConvexBody
from .grids import Grid, interpolate
from .kinetics import KineticsParams, eps_log
from .reporting import ExperimentReport, config_hash
from .solver import (THRESHOLD_K, InitialData, SimConfig, build_initial,
                     check_count, compact_value, dump_checkpoint,
                     outflow_margin, passage, run, run_until)
from .svgplot import line_plot
from .waves import decay_rate, solve_wave

# Entries the study cache keeps; past it the least recently used goes.
CACHE_SIZE = 32

# The compact control of the no-interface study.
CONTROL_AMPLITUDE = 0.9
CONTROL_WIDTH = 0.25
# The wave speed c of the barrier check's expanding-shell barrier.
SHELL_SPEED = 2.5
# The residual checks skip cells within this many of a barrier's kink.
KINK_WIDTH = 2
# The first generation drift fit_generation_drift tries.
DRIFT_START = 3.0
# Fixed, not configured: a config sets up the experiment, not its verdicts.
# The speed fit reads t >= FIT_WINDOW t_end, past the generation transient.
FIT_WINDOW = 0.2
# The wave speed c of the barrier check's motion sub-solution.
MOTION_SPEED = 1.5
# The barrier check's generation window, in units of eps|ln eps|.
GEN_WINDOW = 2.0
# The largest residual of the wrong sign a barrier's residual check allows.
RESIDUAL_TOL = 5e-3


# The study cache, least recently used first, at most CACHE_SIZE entries:
# each job's result under the job (name, args), the call _call makes.
_cache = OrderedDict()


def _pool_size(n):
    """Worker processes for n uncached jobs: one per job and per usable CPU,
    or 1 (the calling process) without os.sched_getaffinity."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(n, cpus)


def _call(name, args):
    """run, run_until or solve_wave, by name, of args, looked up in this
    module at call time, so a wrapper bound to any of those names
    (perfbench's tracer, a test's stub) is seen, in a pool worker too: it is
    forked with the module as it is, and the pool pickles this function,
    not the wrapper, by name."""
    return {"run": run, "run_until": run_until, "solve_wave": solve_wave}[name](*args)


def _cost(job):
    """A job's rank in the pool's queue, highest first: every run before
    any wave, a run by its config's steps times nodes (a stopped run as its
    full run), and a wave by its speed c, since the faster a wave, the
    longer its solve (about 18 ms at c = 1, 31 ms at 2 and 76 ms at 4)."""
    name, (first, *_) = job
    if name == "solve_wave":
        return (0, first)
    return (1, first.n_steps * math.prod(first.grid.shape))


def _fresh(jobs):
    """_call(name, args) of each job, in order.  With more than one worker
    (_pool_size) the jobs go to a pool of forked workers, costliest (_cost)
    first, and are read back in list order, so the error raised is the
    first job's that fails, as in a serial run, and a worker that dies is a
    RuntimeError.  No worker outlives the call, and an error stops the jobs
    still going: leaving it terminates the pool."""
    workers = _pool_size(len(jobs))
    if workers <= 1:
        return [_call(*job) for job in jobs]
    import multiprocessing

    others = set(multiprocessing.active_children())
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        ours = set(multiprocessing.active_children()) - others
        pending = {job: pool.apply_async(_call, job)
                   for job in sorted(jobs, key=_cost, reverse=True)}
        results = []
        for job in jobs:
            while not pending[job].ready():  # never, if its worker died
                if any(worker.exitcode is not None for worker in ours):
                    raise RuntimeError("a pool worker process died")
                pending[job].wait(0.1)
            results.append(pending[job].get())
        return results


def cached(runs, speeds):
    """The runs, then the wave profiles of the speeds, in order, the whole
    batch even past CACHE_SIZE.  A config is the job ("run", (cfg,)) and a
    first-passage key (cfg, name, level) the job ("run_until", key), so a
    stopped run never answers a full run's lookup; a speed c is the job
    ("solve_wave", (round(c, 12),)).  A job in the cache is read from it;
    the others are computed at the same time (_fresh), and the cache keeps
    the CACHE_SIZE most recently used, whatever their kind."""
    jobs = ([("run_until", key) if isinstance(key, tuple) else ("run", (key,))
             for key in runs]
            + [("solve_wave", (round(c, 12),)) for c in speeds])
    results = {job: _cache[job] for job in jobs if job in _cache}
    missing = [job for job in dict.fromkeys(jobs) if job not in results]
    results.update(zip(missing, _fresh(missing)))
    for job in jobs:
        _cache[job] = results[job]
        _cache.move_to_end(job)
        if len(_cache) > CACHE_SIZE:
            _cache.popitem(last=False)
    return [results[job] for job in jobs]


def _family_config(epsilon, initial, t_end, mode, dim, checkpoints, reach):
    """A study family's SimConfig at one epsilon: dx = eps/8 and an extent e
    two nodes past the larger of `reach` and the outflow margin, (0, e) in
    radial mode of dimension dim, (-e, e) on each axis otherwise.  The
    nodes past the origin, fewer than the grid's, pass SimConfig's sizing
    rule (check_count) before the extent is formed from them, and
    SimConfig applies it to the grid's nodes."""
    need = max(reach, outflow_margin(initial, t_end, epsilon))
    dx = epsilon / 8.0
    with np.errstate(over="ignore"):  # an infinite count is check_count's to reject
        past = need / dx + 2
    check_count(past, "grid nodes past the origin", epsilon, t_end)
    ext = math.ceil(past) * dx
    extents = ((0.0 if mode == "radial" else -ext, ext),) * (2 if mode == "plane" else 1)
    return SimConfig(epsilon, Grid(mode, extents, dx, dim), initial,
                     t_end=t_end, checkpoint_times=tuple(checkpoints))


def compact_family_config(epsilon, body, amplitude, width, t_end,
                          mode="line", dim=1, checkpoints=None, tail=None,
                          min_reach=0.0):
    """The compact-data family's SimConfig at one epsilon (_family_config),
    with checkpoints t_end / 2 and t_end by default."""
    return _family_config(
        epsilon, InitialData.compact(body, amplitude, width, tail), t_end,
        mode, dim, (t_end / 2.0, t_end) if checkpoints is None else checkpoints,
        min_reach)


def algebraic_family_config(epsilon, m, n, t_end, reach, dim=2, checkpoints=None):
    """The algebraic-data family's radial SimConfig at one epsilon
    (_family_config), with checkpoint t_end by default."""
    return _family_config(epsilon, InitialData.algebraic(m, n), t_end, "radial",
                          dim, (t_end,) if checkpoints is None else checkpoints,
                          reach)


def _front_speed_fit(traj):
    t = traj.series["t"]
    fp = traj.series["front_half"]
    mask = (t >= FIT_WINDOW * traj.config.t_end) & np.isfinite(fp)
    if mask.sum() < 2:
        raise ConfigurationError("front never crossed the half level in the window")
    A = np.vstack([t[mask], np.ones(mask.sum())]).T
    (slope, icpt), res, *_ = np.linalg.lstsq(A, fp[mask], rcond=None)
    resid = float(np.sqrt(res[0] / mask.sum())) if res.size else 0.0
    return float(slope), float(icpt), resid


def _check_threshold_set(initial, epsilon):
    """Raises when the threshold set {g >= THRESHOLD_K eps|ln eps|} is
    empty, g below the level even at the body's centre, where it peaks:
    no t_end can help."""
    level = THRESHOLD_K * eps_log(epsilon)
    peak = float(np.max(compact_value(initial, initial.body.center)))
    if peak < level:
        raise ConfigurationError(
            f"threshold set {{g >= {THRESHOLD_K:g} eps|ln eps|}} is empty at "
            f"eps={epsilon:g}: amplitude {initial.amplitude:g} gives g at most "
            f"{peak:.4g} < {THRESHOLD_K:g} eps|ln eps| = {level:.4g}")


def _passage(epsilon):
    """The generation passage, u >= 1 - eps on the whole threshold set
    {g >= THRESHOLD_K eps|ln eps|}, as the series and the level it reaches
    (solver.passage): threshold_min >= 1 - eps."""
    return "threshold_min", 1.0 - epsilon


def _generation_time(traj, epsilon):
    """First recorded time of the generation passage (_passage)."""
    name, level = _passage(epsilon)
    k = passage(traj.series[name], level)
    if k is None:
        raise ConfigurationError(
            f"threshold 1-eps never reached before t_end at eps={epsilon:g}")
    return float(traj.series["t"][k])


def _study(func, **derived):
    """func with its defaults applied; a None argument named in `derived` as
    the value its rule gives from the arguments (None where func does not
    read it), an `epsilons` ladder as its distinct values, largest first
    (at least two), and `speeds` as its distinct values in order.  The
    report's config_hash covers every argument so read, a ConvexBody by
    its params, so an omitted key and its effective value hash alike."""
    signature = inspect.signature(func)

    @wraps(func)
    def study(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        params = bound.arguments
        for name, rule in derived.items():
            if params[name] is None:
                params[name] = rule(params)
        if "speeds" in params:
            params["speeds"] = tuple(dict.fromkeys(params["speeds"]))
        if "epsilons" in params:
            params["epsilons"] = tuple(sorted(set(params["epsilons"]),
                                              reverse=True))
            if len(params["epsilons"]) < 2:
                raise ConfigurationError(
                    "need at least two epsilon values for a trend")
        report = func(*bound.args, **bound.kwargs)
        report.metadata["config_hash"] = config_hash(
            {name: value.params if isinstance(value, ConvexBody) else value
             for name, value in params.items()})
        return report

    return study


def _column(report, name):
    """The values of the column `name` over the report's rows."""
    return [r[name] for r in report.rows]


def _fit_eps_log(report, model, column):
    """Adds the fit column ~ A eps|ln eps| through the origin, by least
    squares, with its largest residual, and returns that residual."""
    el = np.array([eps_log(r["epsilon"]) for r in report.rows])
    v = np.array([r[column] for r in report.rows])
    a = float(el @ v / (el @ el))
    resid = float(np.abs(v - a * el).max())
    report.add_fit(model, (a,), resid)
    return resid


def _check_stable(report, name, *columns):
    """Adds the check that the columns' values are positive, within a factor 2."""
    values = [r[c] for r in report.rows for c in columns]
    ratio = max(values) / min(values) if min(values) > 0.0 else math.inf
    report.add_check(name, ratio <= 2.0, f"max/min={ratio:.3f}")


@_study
def run_speed_study(epsilons=(0.04, 0.02, 0.01),
                    body=ConvexBody.interval(-0.5, 0.5), amplitude=0.9,
                    width=0.25, t_end=1.0) -> ExperimentReport:
    """Front position series -> least-squares speed; the fitted speed must
    sit within 10 eps|ln eps| of 2 and the error must shrink down the ladder.
    The fit reads t >= FIT_WINDOW t_end, past the generation transient."""
    report = ExperimentReport(
        "speed", columns=("epsilon", "speed", "abs_error", "allowed_error"))
    cfgs = [compact_family_config(eps, body, amplitude, width, t_end)
            for eps in epsilons]
    for eps, traj in zip(epsilons, cached(cfgs, ())):
        speed, icpt, resid = _front_speed_fit(traj)
        err = abs(speed - 2.0)
        allowed = 10.0 * eps_log(eps)
        report.add_row(epsilon=eps, speed=speed, abs_error=err, allowed_error=allowed)
        report.add_fit(f"front~c*t+b@eps={eps:g}", (speed, icpt), resid)
        report.add_check(f"speed_error_bound@eps={eps:g}", err <= allowed,
                         f"|{speed:.4f}-2|={err:.4f} <= {allowed:.4f}")
    eps, errors = _column(report, "epsilon"), _column(report, "abs_error")
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    report.add_check("speed_error_strictly_decreasing", decreasing,
                     "->".join(f"{e:.4f}" for e in errors))
    report.metadata["figures"] = {"speed.svg": partial(
        line_plot, series=[(eps, errors, "measured"),
                           (eps, _column(report, "allowed_error"), "allowed")],
        title="front speed error", xlabel="epsilon", ylabel="|speed - 2|",
        logx=True, logy=True)}
    return report


def _band_constant(fld, body, t, epsilon):
    """Minimal band constant: smallest C such that u <= eps outside the
    C eps|ln eps| tube and u >= 1-2eps inside it."""
    x = fld.grid.points()
    d = body.signed_distance(x) - 2.0 * t
    u = fld.values
    hi = d[(u > epsilon) & (d > 0)]
    lo = -d[(u < 1.0 - 2.0 * epsilon) & (d < 0)]
    c = 0.0
    if hi.size:
        c = max(c, float(hi.max()))
    if lo.size:
        c = max(c, float(lo.max()))
    return c / eps_log(epsilon)


@_study
def run_thickness_study(epsilons=(0.04, 0.02, 0.01),
                        body=ConvexBody.interval(-0.5, 0.5), amplitude=0.9,
                        width=0.25, t_end=1.0) -> ExperimentReport:
    """Layer width W(eps, t), the run's layer_width at each checkpoint's
    step round(t / dt), and the measured band constant; both must be
    stable (max/min <= 2) against eps|ln eps| scaling across the ladder."""
    report = ExperimentReport(
        "thickness",
        columns=("epsilon", "width_mid", "width_end", "width_over_eps_log",
                 "band_const_mid", "band_const_end"))
    cfgs = [compact_family_config(eps, body, amplitude, width, t_end)
            for eps in epsilons]
    for eps, traj in zip(epsilons, cached(cfgs, ())):
        (t_mid, f_mid), (t_fin, f_end) = traj.checkpoints
        w_mid, w_end = (traj.series["layer_width"][round(t / traj.config.dt)]
                        for t in (t_mid, t_fin))
        if math.isnan(w_mid) or math.isnan(w_end):
            raise ConfigurationError("band levels not attained at a checkpoint")
        c_mid = _band_constant(f_mid, body, t_mid, eps)
        c_end = _band_constant(f_end, body, t_fin, eps)
        report.add_row(epsilon=eps, width_mid=w_mid, width_end=w_end,
                       width_over_eps_log=w_end / eps_log(eps),
                       band_const_mid=c_mid, band_const_end=c_end)
        report.add_check(f"width_positive@eps={eps:g}", w_end > 0 and w_mid > 0)
    _fit_eps_log(report, "width~A*eps*|ln eps|", "width_end")
    _check_stable(report, "width_ratio_stable", "width_over_eps_log")
    _check_stable(report, "band_const_stable",
                  "band_const_mid", "band_const_end")
    report.metadata["figures"] = {"thickness.svg": partial(
        line_plot, series=[(_column(report, "epsilon"),
                            _column(report, "width_over_eps_log"),
                            "W/(eps|ln eps|)")],
        title="layer width scaling", xlabel="epsilon", ylabel="ratio",
        logx=True)}
    return report


@_study
def run_generation_study(epsilons=(0.04, 0.02, 0.01),
                         body=ConvexBody.interval(-0.5, 0.5), amplitude=0.5,
                         width=0.25, t_end=0.5) -> ExperimentReport:
    """First time the solution clears 1-eps on {g >= 3 eps|ln eps|}; fits
    tau = alpha eps|ln eps| and demands a stable alpha.  Each rung runs only
    until that passage (run_until), t_end the time it has to come."""
    if amplitude >= 1.0:
        raise ConfigurationError("generation needs amplitude < 1 to be nontrivial")
    report = ExperimentReport("generation", columns=("epsilon", "tau", "alpha"))
    keys = []
    for eps in epsilons:
        cfg = compact_family_config(eps, body, amplitude, width, t_end)
        _check_threshold_set(cfg.initial, eps)
        keys.append((cfg, *_passage(eps)))
    for eps, traj in zip(epsilons, cached(keys, ())):
        tau = _generation_time(traj, eps)
        report.add_row(epsilon=eps, tau=tau, alpha=tau / eps_log(eps))
    taus = _column(report, "tau")
    resid = _fit_eps_log(report, "tau~alpha*eps*|ln eps|", "tau")
    _check_stable(report, "alpha_stable_factor_2", "alpha")
    report.add_check("fit_residual_below_20pct", resid <= 0.2 * np.mean(taus),
                     f"{resid:.4f} <= {0.2 * np.mean(taus):.4f}")
    report.add_check("tau_decreasing", all(a > b for a, b in zip(taus, taus[1:])))
    report.metadata["figures"] = {"generation.svg": partial(
        line_plot, series=[([eps_log(eps) for eps in _column(report, "epsilon")],
                            taus, "tau")],
        title="generation time", xlabel="eps |ln eps|", ylabel="tau")}
    return report


@_study
def run_no_interface_study(epsilons=(0.04, 0.02, 0.01), m=0.5, n=2.0,
                           probe_t=0.5, probe_x=2.0, dim=2,
                           control_radius=0.5) -> ExperimentReport:
    """Pointwise probe outside the sharp front: algebraic tails must push it
    to 1 down the ladder while the compact control stays at 0."""
    reach = probe_x + 4.0
    report = ExperimentReport(
        "no_interface",
        columns=("epsilon", "probe_algebraic", "probe_compact", "probe_origin",
                 "control_origin"))
    body = ConvexBody.ball((0.0,) * dim, control_radius)
    cfgs = []  # per rung, its algebraic run and its compact control
    for eps in epsilons:
        cfgs += [algebraic_family_config(eps, m, n, probe_t, reach, dim=dim),
                 compact_family_config(eps, body, CONTROL_AMPLITUDE,
                                       CONTROL_WIDTH, probe_t, mode="radial",
                                       dim=dim, min_reach=reach)]
    trajs = cached(cfgs, ())
    for eps, traj, ctraj in zip(epsilons, trajs[::2], trajs[1::2]):
        fld = traj.checkpoints[-1][1]
        p_alg = interpolate(fld, probe_x)
        p_origin = interpolate(fld, 0.0)
        cfld = ctraj.checkpoints[-1][1]
        p_cmp = interpolate(cfld, probe_x)
        c_origin = interpolate(cfld, 0.0)
        report.add_row(epsilon=eps, probe_algebraic=p_alg, probe_compact=p_cmp,
                       probe_origin=p_origin, control_origin=c_origin)
        report.add_check(f"control_stays_low@eps={eps:g}", p_cmp <= 0.05,
                         f"{p_cmp:.2e} <= 0.05")
        # inside the initial region both data families reach the upper band
        report.add_check(f"origin_generated@eps={eps:g}",
                         min(p_origin, c_origin) >= 1.0 - 2.0 * eps,
                         f"min({p_origin:.4f}, {c_origin:.4f})"
                         f" >= {1 - 2 * eps:.4f}")
    eps, probes = _column(report, "epsilon"), _column(report, "probe_algebraic")
    increasing = all(a < b for a, b in zip(probes, probes[1:]))
    report.add_check("probe_strictly_increasing", increasing,
                     "->".join(f"{p:.6f}" for p in probes))
    report.add_check("probe_final_above_0.9", probes[-1] >= 0.9,
                     f"{probes[-1]:.4f}")
    report.metadata["figures"] = {"no_interface.svg": partial(
        line_plot, series=[(eps, probes, "algebraic"),
                           (eps, _column(report, "probe_compact"), "compact")],
        title="probe outside the front", xlabel="epsilon", ylabel="u(t0, x0)",
        logx=True)}
    return report


def _kink_mask(values):
    """Cells within KINK_WIDTH of a sign change of `values`."""
    mask = np.zeros(values.shape, dtype=bool)
    sign = np.sign(values)
    crossings = np.nonzero(np.diff(sign) != 0)[0]
    for i in crossings:
        mask[max(0, i - KINK_WIDTH): i + KINK_WIDTH + 1] = True
    return mask


def fit_generation_drift(traj, kin, initial, checkpoints):
    """Smallest drift K, doubling from DRIFT_START, whose generation barrier
    stays under the field of each checkpoint (t, field), taken at that t."""
    x = traj.config.grid.axis(0)
    K = DRIFT_START
    while K <= 256.0:
        worst = 0.0
        for tc, fld in checkpoints:
            sub = generation_sub(tc, x, K, kin, initial)
            worst = max(worst, float((sub - fld.values).max()))
        if worst <= 0.0:
            return K
        K *= 2.0
    raise ConfigurationError("no drift constant K <= 256 orders the barrier")


def _sandwich(traj, kin, window, waves):
    """The sandwich rows, one per checkpoint (t, field), each barrier taken
    at that t, and the barriers.svg and sandwich.svg figures.  From below:
    up to the generation window, the generation barrier at the least drift
    that orders it (fit_generation_drift); past it, the larger of the
    motion sub-solutions on the waves of speed 2 - eps|ln eps| and
    MOTION_SPEED, started at the generation time.  From above: the smaller
    of the generation super-solution and the global one at
    K_hat = max(1, K0).  `waves` are the profiles at c = 2, MOTION_SPEED and
    2 - eps|ln eps|."""
    epsilon, grid, initial = traj.config.epsilon, traj.config.grid, traj.config.initial
    body, x = initial.body, grid.axis(0)
    wave_min, wave_motion, wave_eps = waves
    t_gen = _generation_time(traj, epsilon)
    K = fit_generation_drift(traj, kin, initial, [
        (tc, fld) for tc, fld in traj.checkpoints if tc <= window])
    K_hat = max(1.0, k0_lower_bound(wave_min, initial))
    m1 = m1_recipe(initial)
    rows = []
    for tc, fld in traj.checkpoints:
        u = fld.values
        if tc <= window:
            sub = generation_sub(tc, x, K, kin, initial)
            res_sub_viol = 0.0
        else:
            tm = tc - t_gen
            sub = np.maximum(motion_sub(tm, x, m1, wave_eps, body, epsilon),
                             motion_sub(tm, x, m1, wave_motion, body, epsilon))
            res_field = discrete_residual(
                lambda tt, xx: motion_sub(tt, xx, m1, wave_motion, body, epsilon),
                tm if tm > grid.dx else grid.dx, grid, epsilon).values
            theta = motion_theta(tm, x, m1, wave_motion, body, epsilon)
            res_sub_viol = max(0.0, float(res_field[~_kink_mask(theta)].max()))
        sup_bar = np.minimum(generation_super(tc, epsilon, initial),
                             global_super(tc, x, K_hat, wave_min, body, epsilon))
        res_sup = discrete_residual(
            lambda tt, xx: global_super(tt, xx, K_hat, wave_min, body, epsilon),
            max(tc, grid.dx), grid, epsilon).values
        rows.append(dict(t=tc, min_slack_sub=float((u - sub).min()),
                         min_slack_super=float((sup_bar - u).min()),
                         max_residual_super_violation=max(0.0, -float(res_sup.min())),
                         max_residual_sub_violation=res_sub_viol))
    ts = [row["t"] for row in rows]
    return rows, {
        "barriers.svg": partial(line_plot, series=[
            (ts, [row["min_slack_sub"] for row in rows], "sub slack"),
            (ts, [row["min_slack_super"] for row in rows], "super slack")],
            title="barrier slack", xlabel="t", ylabel="slack"),
        # u between the barriers at the last checkpoint
        "sandwich.svg": partial(
            line_plot, series=[(x, u, "u"), (x, sub, "sub-solution"),
                               (x, sup_bar, "super-solution")],
            title=f"sandwich at t={tc:g}", xlabel="x", ylabel="u")}


def _sabotage(traj, wave_min):
    """The sabotage probe: how far u rises above the global super-solution
    at K_hat = 0.5, below the K0 floor, over the checkpoints, and 0.0 where
    it never does."""
    eps, x, body = (traj.config.epsilon, traj.config.grid.axis(0),
                    traj.config.initial.body)
    return max(0.0, *(
        float((fld.values - global_super(tc, x, 0.5, wave_min, body, eps)).max())
        for tc, fld in traj.checkpoints))


def _shell_barrier(report, epsilon, wave_shell):
    """Adds the checks of the expanding-shell barrier over algebraic data
    (radial), on the wave of speed SHELL_SPEED: it starts under u0, and its
    residual has the sign of a sub-solution outside the shell's kinks."""
    shell = algebraic_family_config(epsilon, 0.5, 2.0, 0.4, 4.0)
    alg, rgrid, t_shell = shell.initial, shell.grid, shell.t_end
    r = rgrid.axis(0)
    w0 = radial_sub_W(0.0, r, wave_shell, epsilon, rgrid.dim, alg)
    u0 = build_initial(alg, rgrid, epsilon, r)[0].values
    report.add_check("shell_under_initial_data",
                     bool(np.all(w0 <= u0 + 1e-12)),
                     f"max gap {float((w0 - u0).max()):.2e}")
    res = discrete_residual(
        lambda tt, rr: radial_sub_W(tt, rr, wave_shell, epsilon, rgrid.dim, alg),
        t_shell, rgrid, epsilon).values
    s = shell_coordinate(t_shell, r, epsilon)
    kinks = _kink_mask(s - SHELL_RHO) | _kink_mask(s + SHELL_RHO)
    shell_viol = max(0.0, float(res[~kinks].max()))
    report.add_check("shell_residual_sign", shell_viol <= RESIDUAL_TOL,
                     f"max violation {shell_viol:.2e}")


@_study
def run_barrier_check(epsilon=0.02, body=ConvexBody.interval(-2.4, 2.4),
                      amplitude=0.9, width=0.1, t_end=1.0) -> ExperimentReport:
    """The comparison argument on one compact run, in three steps: the
    sandwich (_sandwich), whose rows give the (t, slack, violation) table
    and a verdict per property; the sabotage probe (_sabotage), which must
    break the ordering; the expanding-shell barrier (_shell_barrier).  The
    ordering tolerance is max(1e-3, 5 dx), dx = eps/8; the generation
    window GEN_WINDOW eps|ln eps| must fit in t_end, and no checkpoint of
    the window may fall on the step of one of t_end's (the run records one
    field a step).  The config and the kinetics are checked before the run
    and the waves start."""
    eL = eps_log(epsilon)
    window = GEN_WINDOW * eL
    if not window <= t_end:
        raise ConfigurationError(
            f"[solver] t_end = {t_end:g} must be at least GEN_WINDOW "
            f"eps|ln eps| = {window:.4g}")
    gen_times = tuple(np.linspace(0.25, 1.0, 4) * window)
    motion_times = tuple(np.linspace(0.3, 1.0, 6) * t_end)
    cfg = compact_family_config(epsilon, body, amplitude, width, t_end,
                                checkpoints=())
    gen_steps = {round(t / cfg.dt): t for t in gen_times}
    for t in motion_times:
        k = round(t / cfg.dt)
        if k in gen_steps:
            raise ConfigurationError(
                f"[solver] t_end = {t_end:g} and the generation window "
                f"GEN_WINDOW eps|ln eps| = {window:.4g} put checkpoints "
                f"{gen_steps[k]:.6g} and {t:.6g} on one step, {k} of "
                f"dt = {cfg.dt:.6g}")
    cfg = replace(cfg, checkpoint_times=gen_times + motion_times)
    _check_threshold_set(cfg.initial, epsilon)
    kin = KineticsParams(epsilon)
    # the run and the four waves, computed at the same time
    traj, *waves, wave_shell = cached(
        [cfg], (2.0, MOTION_SPEED, 2.0 - eL, SHELL_SPEED))
    rows, figures = _sandwich(traj, kin, window, waves)
    report = ExperimentReport(
        "barriers",
        columns=("t", "min_slack_sub", "min_slack_super",
                 "max_residual_super_violation", "max_residual_sub_violation"),
        rows=rows, metadata={"figures": figures})
    ordering_tol = max(1e-3, 5.0 * cfg.grid.dx)
    worst_sub = min(0.0, *_column(report, "min_slack_sub"))
    worst_super = min(0.0, *_column(report, "min_slack_super"))
    report.add_check("sub_barriers_below_solution", worst_sub >= -ordering_tol,
                     f"min slack {worst_sub:.4f} >= -{ordering_tol:.4f}")
    report.add_check("super_barriers_above_solution",
                     worst_super >= -ordering_tol,
                     f"min slack {worst_super:.4f} >= -{ordering_tol:.4f}")
    res_viols = [max(r["max_residual_super_violation"],
                     r["max_residual_sub_violation"]) for r in report.rows]
    report.add_check("residual_signs", max(res_viols) <= RESIDUAL_TOL,
                     f"max violation {max(res_viols):.2e} <= {RESIDUAL_TOL:g}")
    # an amplitude below the K0 floor must break the ordering
    viol = _sabotage(traj, waves[0])
    report.add_check("sabotage_detected", viol > ordering_tol,
                     f"K_hat=0.5<K0 violates by {viol:.3f}")
    _shell_barrier(report, epsilon, wave_shell)
    return report


@_study
def run_wave_study(speeds=(2.0, 2.2, 2.5, 3.0)) -> ExperimentReport:
    """Wave tables: equation residual, fitted tail rates against the
    quadratic-root law, and the z e^{-z} envelope at the minimal speed.
    Each speed c names its table, checks and curve by {c:g}, so two speeds
    with one name are a ConfigurationError."""
    named = {}
    for c in speeds:
        other = named.setdefault(f"{c:g}", c)
        if other != c:
            raise ConfigurationError(
                f"[wave] speeds {other!r} and {c!r} share the name c={c:g}")
    tables, waves = {}, []
    report = ExperimentReport(
        "wave",
        columns=("c", "residual_max", "lambda_fit", "lambda_theory",
                 "gamma_minus", "gamma_plus"), metadata={
            "tables": tables, "figures": {"waves.svg": partial(
                line_plot, series=waves, title="travelling waves",
                xlabel="z", ylabel="U")}})
    for c, prof in zip(speeds, cached((), speeds)):
        tables[f"wave_c{c:g}.csv"] = prof.dump_table
        keep = (prof.z >= -15.0) & (prof.z <= 15.0)
        waves.append((prof.z[keep], prof.U[keep], f"c={c:g}"))
        res = float(prof.residual().max())
        lam_fit = prof.tail_right[1] if prof.tail_right else math.nan
        lam_th = decay_rate(c) if c >= 2.0 else math.nan
        gm = gp = math.nan
        if c == 2.0:
            gm, gp = prof.kpp_ratio_bounds()
        report.add_row(c=c, residual_max=res, lambda_fit=lam_fit,
                       lambda_theory=lam_th, gamma_minus=gm, gamma_plus=gp)
        report.add_check(f"residual_below_1e-8@c={c:g}", res <= 1e-8,
                         f"{res:.2e}")
        if c > 2.0:
            rel = abs(lam_fit - lam_th) / lam_th
            report.add_check(f"tail_rate_within_1pct@c={c:g}", rel <= 0.01,
                             f"rel err {rel:.2e}")
        if c == 2.0:
            report.add_check("kpp_ratio_bounded", 0.0 < gm <= gp <= 10.0 * gm,
                             f"gamma+/gamma- = {gp / gm:.3f}")
    return report


def _simulation_report(sim: SimConfig) -> ExperimentReport:
    """The `simulate` report of a plain run(), so a plane run is not cached:
    per checkpoint, the series at its step round(t / dt), its table and its
    profile (a plane run's row through y = 0)."""
    traj = run(sim)
    columns = ("t", "sup", "min", "front_half", "layer_width")
    tables, profiles = {}, []
    report = ExperimentReport("simulate", columns=columns, metadata={
        "tables": tables, "figures": {"profiles.svg": partial(
            line_plot, series=profiles, title="checkpoint profiles",
            xlabel="x", ylabel="u")}})
    for tc, fld in traj.checkpoints:
        i = round(tc / traj.config.dt)
        report.add_row(t=tc, **{name: traj.series[name][i] for name in
                                columns[1:] if name in traj.series})
        tables[f"checkpoint_t{tc:g}.csv"] = partial(dump_checkpoint, fld, tc)
        u = fld.values
        if u.ndim == 2:  # plane: the row through y = 0, the middle column
            u = u[:, u.shape[1] // 2]
        profiles.append((fld.grid.axis(0), u, f"t={tc:g}"))
    return report


def _mid_and_end(arguments):
    """`simulate`'s default checkpoints: t_end / 2 and t_end."""
    return (arguments["t_end"] / 2.0, arguments["t_end"])


@partial(_study, dim=lambda a: 2 if a["mode"] == "radial" else None,
         tail_lambda=lambda a: None if a["tail_cap"] == 0.0 else 1.0,
         checkpoints=_mid_and_end)
def run_compact_simulation(epsilon, body=ConvexBody.interval(-0.5, 0.5),
                           amplitude=0.9, width=0.25, tail_lambda=None,
                           tail_cap=0.0, mode="line", dim=None, t_end=1.0,
                           extent=0.0, checkpoints=None) -> ExperimentReport:
    """`simulate` for compact data: one run of the study family's config.
    The tail rate defaults to 1 and is read only with a tail, tail_cap != 0;
    the dimension defaults to 2 and is read only in radial mode."""
    if dim is not None and mode != "radial":
        raise ConfigurationError(f"[solver] dim is not read in {mode} mode")
    if tail_cap == 0.0 and tail_lambda is not None:
        raise ConfigurationError(
            "[initial] tail_lambda is not read when tail_cap is 0 or absent")
    tail = None if tail_cap == 0.0 else (tail_lambda, tail_cap)
    return _simulation_report(compact_family_config(
        epsilon, body, amplitude, width, t_end, mode, 1 if dim is None else dim,
        checkpoints, tail, min_reach=extent))


@partial(_study, checkpoints=_mid_and_end)
def run_algebraic_simulation(epsilon, m=0.5, n=2.0, dim=2, t_end=1.0,
                             extent=4.0, checkpoints=None) -> ExperimentReport:
    """`simulate` for algebraic data: one radial run of the study family's
    config."""
    return _simulation_report(algebraic_family_config(
        epsilon, m, n, t_end, extent, dim=dim, checkpoints=checkpoints))
