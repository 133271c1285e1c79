"""Experiment orchestration: the epsilon-ladder studies and their verdicts.

Every study returns an ExperimentReport whose rows are sorted by decreasing
epsilon, whose checks encode the quantitative claims being measured (front
speed 2, layer thickness ~ eps|ln eps|, generation time ~ eps|ln eps|,
pointwise limit 1 for algebraic tails, barrier orderings), and whose CSV
form is byte-stable across reruns.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .barriers import (
    M2,
    SHELL_RHO,
    c_const_recipe,
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
from .solver import (InitialData, SimConfig, build_initial, layer_thickness,
                     outflow_margin, run)
from .waves import decay_rate, solve_wave

# Entries each study cache keeps; past it the least recently used goes.
CACHE_SIZE = 16

# The compact control of the no-interface study.
CONTROL_AMPLITUDE = 0.9
CONTROL_WIDTH = 0.25
# The wave speed c of the barrier check's expanding-shell barrier.
SHELL_SPEED = 2.5
# The residual checks skip cells within this many of a barrier's kink.
KINK_WIDTH = 2
# The first generation drift fit_generation_drift tries.
DRIFT_START = 3.0


# The study caches, under the plain functions cached_run and cached_wave.
# They read `run` and `solve_wave` from the module at call time, so a
# wrapper bound to any of the four names (perfbench's tracer) is seen.
@lru_cache(maxsize=CACHE_SIZE)
def _run(cfg):
    return run(cfg)


@lru_cache(maxsize=CACHE_SIZE)
def _wave(c):
    return solve_wave(c)


def cached_run(cfg: SimConfig):
    """run(cfg), kept for the CACHE_SIZE most recently used configs."""
    return _run(cfg)


def cached_wave(c):
    """solve_wave at the key round(c, 12), kept for the CACHE_SIZE most
    recently used keys: sign-changing below 2, monotone otherwise."""
    return _wave(round(c, 12))


def _snap_extent(need, dx):
    return math.ceil(need / dx + 2) * dx


def compact_family_config(epsilon, body, amplitude, width, t_end,
                          mode="line", dim=1, checkpoints=None, tail=None,
                          min_reach=0.0):
    """SimConfig for the standard compact-data family at one epsilon:
    dx = eps/8, order-preserving dt, domain sized by the outflow margin."""
    initial = InitialData.compact(body, amplitude, width, tail)
    dx = epsilon / 8.0
    need = max(outflow_margin(body.diameter, t_end, epsilon), min_reach)
    ext = _snap_extent(need, dx)
    if mode == "line":
        grid = Grid("line", ((-ext, ext),), dx)
    elif mode == "radial":
        grid = Grid("radial", ((0.0, ext),), dx, dim=dim)
    elif mode == "plane":
        grid = Grid("plane", ((-ext, ext), (-ext, ext)), dx)
    else:
        raise ConfigurationError(f"unknown mode {mode!r}")
    if checkpoints is None:
        checkpoints = (t_end / 2.0, t_end)
    return SimConfig(epsilon, grid, initial, t_end=t_end,
                     checkpoint_times=tuple(checkpoints))


def algebraic_family_config(epsilon, m, n, t_end, reach, dim=2, checkpoints=None):
    initial = InitialData.algebraic(m, n)
    dx = epsilon / 8.0
    need = max(reach, outflow_margin(0.0, t_end, epsilon))
    ext = _snap_extent(need, dx)
    grid = Grid("radial", ((0.0, ext),), dx, dim=dim)
    if checkpoints is None:
        checkpoints = (t_end,)
    return SimConfig(epsilon, grid, initial, t_end=t_end,
                     checkpoint_times=tuple(checkpoints))


def _front_speed_fit(traj, fit_window):
    t = traj.series["t"]
    fp = traj.series["front_half"]
    mask = (t >= fit_window * traj.config.t_end) & np.isfinite(fp)
    if mask.sum() < 2:
        raise ConfigurationError("front never crossed the half level in the window")
    A = np.vstack([t[mask], np.ones(mask.sum())]).T
    (slope, icpt), res, *_ = np.linalg.lstsq(A, fp[mask], rcond=None)
    resid = float(np.sqrt(res[0] / mask.sum())) if res.size else 0.0
    return float(slope), float(icpt), resid


def _generation_time(traj, epsilon):
    """First recorded time at which u >= 1 - eps on the whole threshold set
    {g >= THRESHOLD_K eps|ln eps|}."""
    hit = np.nonzero(traj.series["threshold_min"] >= 1.0 - epsilon)[0]
    if hit.size == 0:
        raise ConfigurationError(
            f"threshold 1-eps never reached before t_end at eps={epsilon:g}")
    return float(traj.series["t"][hit[0]])


def _require_ladder(epsilons):
    if len(epsilons) < 2:
        raise ConfigurationError("need at least two epsilon values for a trend")
    return tuple(sorted(set(epsilons), reverse=True))


def run_speed_study(epsilons=(0.04, 0.02, 0.01), body=None, amplitude=0.9,
                    width=0.25, t_end=1.0, fit_window=0.2) -> ExperimentReport:
    """Front position series -> least-squares speed; the fitted speed must
    sit within 10 eps|ln eps| of 2 and the error must shrink down the ladder."""
    epsilons = _require_ladder(epsilons)
    body = body or ConvexBody.interval(-0.5, 0.5)
    report = ExperimentReport(
        "speed",
        columns=("epsilon", "speed", "abs_error", "allowed_error"),
        metadata={"config_hash": config_hash(dict(
            epsilons=epsilons, body=body.params, amplitude=amplitude,
            width=width, t_end=t_end, fit_window=fit_window))},
    )
    errors = []
    for eps in epsilons:
        cfg = compact_family_config(eps, body, amplitude, width, t_end)
        traj = cached_run(cfg)
        speed, icpt, resid = _front_speed_fit(traj, fit_window)
        err = abs(speed - 2.0)
        allowed = 10.0 * eps_log(eps)
        errors.append(err)
        report.add_row(epsilon=eps, speed=speed, abs_error=err, allowed_error=allowed)
        report.add_fit(f"front~c*t+b@eps={eps:g}", (speed, icpt), resid)
        report.add_check(f"speed_error_bound@eps={eps:g}", err <= allowed,
                         f"|{speed:.4f}-2|={err:.4f} <= {allowed:.4f}")
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    report.add_check("speed_error_strictly_decreasing", decreasing,
                     "->".join(f"{e:.4f}" for e in errors))
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


def run_thickness_study(epsilons=(0.04, 0.02, 0.01), body=None, amplitude=0.9,
                        width=0.25, t_end=1.0) -> ExperimentReport:
    """Layer width W(eps, t) and the measured band constant; both must be
    stable (max/min <= 2) against eps|ln eps| scaling across the ladder."""
    epsilons = _require_ladder(epsilons)
    body = body or ConvexBody.interval(-0.5, 0.5)
    report = ExperimentReport(
        "thickness",
        columns=("epsilon", "width_mid", "width_end", "width_over_eps_log",
                 "band_const_mid", "band_const_end"),
        metadata={"config_hash": config_hash(dict(
            epsilons=epsilons, body=body.params, amplitude=amplitude,
            width=width, t_end=t_end))},
    )
    ratios, consts = [], []
    for eps in epsilons:
        cfg = compact_family_config(eps, body, amplitude, width, t_end)
        traj = cached_run(cfg)
        f_mid = traj.checkpoint_at(t_end / 2.0)
        f_end = traj.checkpoint_at(t_end)
        w_mid = layer_thickness(f_mid, eps)
        w_end = layer_thickness(f_end, eps)
        if w_mid is None or w_end is None or min(w_mid, w_end) <= 0:
            raise ConfigurationError("band levels not attained at a checkpoint")
        c_mid = _band_constant(f_mid, body, t_end / 2.0, eps)
        c_end = _band_constant(f_end, body, t_end, eps)
        ratios.append(w_end / eps_log(eps))
        consts.extend([c_mid, c_end])
        report.add_row(epsilon=eps, width_mid=w_mid, width_end=w_end,
                       width_over_eps_log=w_end / eps_log(eps),
                       band_const_mid=c_mid, band_const_end=c_end)
        report.add_check(f"width_positive@eps={eps:g}", w_end > 0 and w_mid > 0)
    el = np.array([eps_log(e) for e in epsilons])
    wv = np.array([r["width_end"] for r in report.rows])
    slope = float(el @ wv / (el @ el))
    report.add_fit("width~A*eps*|ln eps|", (slope,),
                   float(np.abs(wv - slope * el).max()))
    report.add_check("width_ratio_stable", max(ratios) / min(ratios) <= 2.0,
                     f"max/min={max(ratios) / min(ratios):.3f}")
    report.add_check("band_const_stable", max(consts) / min(consts) <= 2.0,
                     f"max/min={max(consts) / min(consts):.3f}")
    return report


def run_generation_study(epsilons=(0.04, 0.02, 0.01), body=None, amplitude=0.5,
                         width=0.25, t_end=0.5) -> ExperimentReport:
    """First time the solution clears 1-eps on {g >= 3 eps|ln eps|}; fits
    tau = alpha eps|ln eps| and demands a stable alpha."""
    epsilons = _require_ladder(epsilons)
    if amplitude >= 1.0:
        raise ConfigurationError("generation needs amplitude < 1 to be nontrivial")
    body = body or ConvexBody.interval(-0.5, 0.5)
    report = ExperimentReport(
        "generation",
        columns=("epsilon", "tau", "alpha"),
        metadata={"config_hash": config_hash(dict(
            epsilons=epsilons, body=body.params, amplitude=amplitude,
            width=width, t_end=t_end))},
    )
    taus = []
    for eps in epsilons:
        cfg = compact_family_config(eps, body, amplitude, width, t_end)
        tau = _generation_time(cached_run(cfg), eps)
        taus.append(tau)
        report.add_row(epsilon=eps, tau=tau, alpha=tau / eps_log(eps))
    alphas = [r["alpha"] for r in report.rows]
    el = np.array([eps_log(e) for e in epsilons])
    tv = np.array(taus)
    alpha_fit = float(el @ tv / (el @ el))
    resid = float(np.abs(tv - alpha_fit * el).max())
    report.add_fit("tau~alpha*eps*|ln eps|", (alpha_fit,), resid)
    report.add_check("alpha_stable_factor_2", max(alphas) / min(alphas) <= 2.0,
                     f"max/min={max(alphas) / min(alphas):.3f}")
    report.add_check("fit_residual_below_20pct", resid <= 0.2 * tv.mean(),
                     f"{resid:.4f} <= {0.2 * tv.mean():.4f}")
    report.add_check("tau_decreasing", all(a > b for a, b in zip(taus, taus[1:])))
    return report


def run_no_interface_study(epsilons=(0.04, 0.02, 0.01), m=0.5, n=2.0,
                           probe_t=0.5, probe_x=2.0, dim=2,
                           control_radius=0.5) -> ExperimentReport:
    """Pointwise probe outside the sharp front: algebraic tails must push it
    to 1 down the ladder while the compact control stays at 0."""
    epsilons = _require_ladder(epsilons)
    reach = probe_x + 4.0
    report = ExperimentReport(
        "no_interface",
        columns=("epsilon", "probe_algebraic", "probe_compact", "probe_origin",
                 "control_origin"),
        metadata={"config_hash": config_hash(dict(
            epsilons=epsilons, m=m, n=n, probe_t=probe_t, probe_x=probe_x,
            dim=dim, control_radius=control_radius))},
    )
    probes, controls = [], []
    for eps in epsilons:
        cfg = algebraic_family_config(eps, m, n, probe_t, reach, dim=dim)
        traj = cached_run(cfg)
        fld = traj.checkpoint_at(probe_t)
        p_alg = interpolate(fld, probe_x)
        p_origin = interpolate(fld, 0.0)
        body = ConvexBody.ball((0.0,) * dim, control_radius)
        ccfg = compact_family_config(eps, body, CONTROL_AMPLITUDE, CONTROL_WIDTH,
                                     probe_t, mode="radial", dim=dim,
                                     min_reach=reach)
        ctraj = cached_run(ccfg)
        cfld = ctraj.checkpoint_at(probe_t)
        p_cmp = interpolate(cfld, probe_x)
        c_origin = interpolate(cfld, 0.0)
        probes.append(p_alg)
        controls.append(p_cmp)
        report.add_row(epsilon=eps, probe_algebraic=p_alg, probe_compact=p_cmp,
                       probe_origin=p_origin, control_origin=c_origin)
        report.add_check(f"control_stays_low@eps={eps:g}", p_cmp <= 0.05,
                         f"{p_cmp:.2e} <= 0.05")
        # inside the initial region both data families reach the upper band
        report.add_check(f"origin_generated@eps={eps:g}",
                         min(p_origin, c_origin) >= 1.0 - 2.0 * eps,
                         f"min({p_origin:.4f}, {c_origin:.4f})"
                         f" >= {1 - 2 * eps:.4f}")
    increasing = all(a < b for a, b in zip(probes, probes[1:]))
    report.add_check("probe_strictly_increasing", increasing,
                     "->".join(f"{p:.6f}" for p in probes))
    report.add_check("probe_final_above_0.9", probes[-1] >= 0.9,
                     f"{probes[-1]:.4f}")
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
    stays under the numerical solution at the given checkpoint times."""
    x = traj.config.grid.axis(0)
    K = DRIFT_START
    while K <= 256.0:
        worst = 0.0
        for tc in checkpoints:
            fld = traj.checkpoint_at(tc)
            sub = generation_sub(tc, x, K, kin, initial)
            worst = max(worst, float((sub - fld.values).max()))
        if worst <= 0.0:
            return K
        K *= 2.0
    raise ConfigurationError("no drift constant K <= 256 orders the barrier")


def run_barrier_check(epsilon=0.02, body=None, amplitude=0.9, width=0.1,
                      t_end=1.0, c_motion=1.5, gen_window=2.0,
                      ordering_tol=None, residual_tol=5e-3) -> ExperimentReport:
    """Sandwich and sign checks for every barrier on one compact run, plus
    the expanding-shell barrier over algebraic data; emits the
    (t, slack, violation) table and one verdict per property.  A sabotaged
    global super-solution, its amplitude below the K0 floor, must be seen
    to break the ordering.
    """
    body = body or ConvexBody.interval(-2.4, 2.4)
    initial = InitialData.compact(body, amplitude, width)
    dx = epsilon / 8.0
    tol = ordering_tol if ordering_tol is not None else max(1e-3, 5.0 * dx)
    eL = eps_log(epsilon)
    gen_times = tuple(np.linspace(0.25, 1.0, 4) * gen_window * eL)
    motion_times = tuple(np.linspace(0.3, 1.0, 6) * t_end)
    cfg = compact_family_config(epsilon, body, amplitude, width, t_end,
                                checkpoints=gen_times + motion_times)
    report = ExperimentReport(
        "barriers",
        columns=("t", "min_slack_sub", "min_slack_super",
                 "max_residual_super_violation", "max_residual_sub_violation"),
        metadata={"config_hash": config_hash(dict(
            epsilon=epsilon, body=body.params, amplitude=amplitude, width=width,
            t_end=t_end, c_motion=c_motion))},
    )
    traj = cached_run(cfg)
    kin = KineticsParams(epsilon)
    grid = cfg.grid
    x = grid.axis(0)

    t_gen = _generation_time(traj, epsilon)

    K = fit_generation_drift(traj, kin, initial, gen_times)
    wave_min = cached_wave(2.0)
    k0 = k0_lower_bound(wave_min, initial)
    K_hat = max(1.0, k0)
    m1 = m1_recipe(initial)
    wave_motion = cached_wave(c_motion)
    wave_eps = cached_wave(2.0 - eL)
    mu = wave_motion.tail_left[1]
    report.metadata["constants"] = dict(
        K=K, K0=k0, K_hat=K_hat, m1=m1, m2=M2, t_gen=t_gen,
        alpha=t_gen / eL, C_const=c_const_recipe(t_end, m1, mu))

    worst_sub = worst_super = 0.0
    for tc, fld in traj.checkpoints:
        u = fld.values
        if tc <= gen_window * eL:
            sub = generation_sub(tc, x, K, kin, initial)
            res_sub_viol = 0.0
        else:
            tm = tc - t_gen
            sub = np.maximum(
                motion_sub(tm, x, m1, wave_eps, body, epsilon),
                motion_sub(tm, x, m1, wave_motion, body, epsilon),
            )
            res_field = discrete_residual(
                lambda tt, xx: motion_sub(tt, xx, m1, wave_motion, body, epsilon),
                tm if tm > grid.dx else grid.dx, grid, epsilon).values
            theta = motion_theta(tm, x, m1, wave_motion, body, epsilon)
            res_sub_viol = max(0.0, float(res_field[~_kink_mask(theta)].max()))
        sup_bar = np.minimum(
            generation_super(tc, epsilon, initial),
            global_super(tc, x, K_hat, wave_min, body, epsilon),
        )
        res_sup = discrete_residual(
            lambda tt, xx: global_super(tt, xx, K_hat, wave_min, body, epsilon),
            max(tc, grid.dx), grid, epsilon).values
        slack_sub = float((u - sub).min())
        slack_super = float((sup_bar - u).min())
        res_sup_viol = max(0.0, -float(res_sup.min()))
        worst_sub = min(worst_sub, slack_sub)
        worst_super = min(worst_super, slack_super)
        report.add_row(t=tc, min_slack_sub=slack_sub, min_slack_super=slack_super,
                       max_residual_super_violation=res_sup_viol,
                       max_residual_sub_violation=res_sub_viol)

    report.add_check("sub_barriers_below_solution", worst_sub >= -tol,
                     f"min slack {worst_sub:.4f} >= -{tol:.4f}")
    report.add_check("super_barriers_above_solution", worst_super >= -tol,
                     f"min slack {worst_super:.4f} >= -{tol:.4f}")
    res_viols = [max(r["max_residual_super_violation"],
                     r["max_residual_sub_violation"]) for r in report.rows]
    report.add_check("residual_signs", max(res_viols) <= residual_tol,
                     f"max violation {max(res_viols):.2e} <= {residual_tol:g}")

    # sabotage probe: an amplitude below the K0 floor must break the ordering
    viol = 0.0
    for tc, fld in traj.checkpoints:
        gs = global_super(tc, x, 0.5, wave_min, body, epsilon)
        viol = max(viol, float((fld.values - gs).max()))
    report.add_check("sabotage_detected", viol > tol,
                     f"K_hat=0.5<K0 violates by {viol:.3f}")

    # expanding-shell barrier over algebraic data (radial)
    alg = InitialData.algebraic(0.5, 2.0)
    wave_shell = cached_wave(SHELL_SPEED)
    rgrid = Grid("radial", ((0.0, _snap_extent(4.0, dx)),), dx, dim=2)
    r = rgrid.axis(0)
    w0 = radial_sub_W(0.0, r, wave_shell, epsilon, 2, alg)
    u0 = build_initial(alg, rgrid, epsilon).values
    report.add_check("shell_under_initial_data",
                     bool(np.all(w0 <= u0 + 1e-12)),
                     f"max gap {float((w0 - u0).max()):.2e}")
    t_shell = 0.4
    res = discrete_residual(
        lambda tt, rr: radial_sub_W(tt, rr, wave_shell, epsilon, 2, alg),
        t_shell, rgrid, epsilon).values
    s = shell_coordinate(t_shell, r, epsilon)
    kinks = _kink_mask(s - SHELL_RHO) | _kink_mask(s + SHELL_RHO)
    shell_viol = max(0.0, float(res[~kinks].max()))
    report.add_check("shell_residual_sign", shell_viol <= residual_tol,
                     f"max violation {shell_viol:.2e}")
    return report


def run_wave_study(speeds=(2.0, 2.2, 2.5, 3.0)) -> ExperimentReport:
    """Wave tables: equation residual, fitted tail rates against the
    quadratic-root law, and the z e^{-z} envelope at the minimal speed."""
    report = ExperimentReport(
        "wave",
        columns=("c", "residual_max", "lambda_fit", "lambda_theory",
                 "gamma_minus", "gamma_plus"),
        metadata={"config_hash": config_hash(dict(speeds=tuple(speeds)))},
    )
    for c in speeds:
        prof = cached_wave(c)
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
