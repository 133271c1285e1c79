"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  Heavy runs are shared through the in-process study cache,
so criterion 4 reuses criterion 3's ladder and the barrier run is computed
once.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from fkpplab import solver
from fkpplab.geometry import ConvexBody
from fkpplab.grids import Field, Grid, interpolate
from fkpplab.kinetics import KineticsParams, eps_log, modified_logistic, semiflow
from fkpplab.solver import (
    THRESHOLD_K,
    InitialData,
    SimConfig,
    Stepper,
    compact_value,
    default_dt,
)
from fkpplab.studies import (
    _front_speed_fit,
    _generation_time,
    _passage,
    cached,
    compact_family_config,
    run_barrier_check,
    run_compact_simulation,
    run_generation_study,
    run_no_interface_study,
    run_speed_study,
    run_thickness_study,
    run_wave_study,
)

LADDER = (0.04, 0.02, 0.01)


def _run(cfg):
    """run(cfg), through the study cache."""
    return cached([cfg], ())[0]


def _verdict(num, name, passed, detail, elapsed, budget):
    line = (f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    print("\n" + line)
    assert passed, line
    assert elapsed <= budget, f"criterion {num} exceeded its runtime budget: {line}"


def test_criterion_1_wave_correctness():
    t0 = time.perf_counter()
    rep = run_wave_study(speeds=(2.0, 2.2, 2.5, 3.0))
    detail = "; ".join(
        f"c={r['c']:g} res={r['residual_max']:.1e}" for r in rep.rows)
    lam25 = [r for r in rep.rows if r["c"] == 2.5][0]["lambda_fit"]
    ok = rep.passed and abs(lam25 - 0.5) <= 0.005
    _verdict(1, "wave-correctness", ok, detail + f"; lam(2.5)={lam25:.4f}",
             time.perf_counter() - t0, 5.0)


def test_criterion_2_minimal_speed_tail_law():
    t0 = time.perf_counter()
    (prof,) = cached((), (2.0,))
    gm, gp = prof.kpp_ratio_bounds()
    ok = 0.0 < gm <= gp <= 10.0 * gm
    _verdict(2, "minimal-speed-tail-law", ok,
             f"gamma-={gm:.3f} gamma+={gp:.3f} ratio={gp / gm:.2f} <= 10",
             time.perf_counter() - t0, 2.0)


def test_criterion_3_front_speed():
    t0 = time.perf_counter()
    rep = run_speed_study(epsilons=LADDER, amplitude=0.9, width=0.25, t_end=1.0)
    detail = "; ".join(
        f"eps={r['epsilon']:g} |err|={r['abs_error']:.4f}<={r['allowed_error']:.3f}"
        for r in rep.rows)
    _verdict(3, "front-speed", rep.passed, detail, time.perf_counter() - t0, 60.0)


def test_criterion_4_thickness_scaling():
    t0 = time.perf_counter()
    rep = run_thickness_study(epsilons=LADDER, amplitude=0.9, width=0.25,
                              t_end=1.0)
    ratios = [r["width_over_eps_log"] for r in rep.rows]
    consts = [r["band_const_end"] for r in rep.rows]
    detail = (f"W/(eps|ln eps|) in [{min(ratios):.2f},{max(ratios):.2f}]"
              f" spread {max(ratios) / min(ratios):.2f};"
              f" C_meas in [{min(consts):.2f},{max(consts):.2f}]")
    _verdict(4, "thickness-scaling", rep.passed, detail,
             time.perf_counter() - t0, 60.0)


def test_thickness_is_the_minimal_wave_width():
    """The layer between the levels eps and 1 - 2 eps is eps times the
    width of the same levels on the c = 2 wave, short by about 0.7 eps:
    measured (1 - ratio)/eps is 0.78 at eps 0.04 and 0.74 at 0.02, and a
    5% error in the diffusion factor moves it outside [0.5, 1] at both."""
    (wave,) = cached((), (2.0,))
    for eps in (0.04, 0.02):
        cfg = compact_family_config(eps, ConvexBody.interval(-0.5, 0.5), 0.9,
                                    0.25, 1.0)
        traj = _run(cfg)
        width = traj.series["layer_width"][round(traj.checkpoints[-1][0] / cfg.dt)]
        z_lo, z_hi = np.interp([eps, 1.0 - 2.0 * eps], wave.U[::-1], wave.z[::-1])
        ratio = width / (eps * (z_lo - z_hi))
        assert 0.5 <= (1.0 - ratio) / eps <= 1.0, (eps, ratio)


def test_thickness_reads_the_widths_simulate_reports():
    # one run, one reading: the study's widths are the layer_width rows of
    # `simulate` on the same config, bit for bit
    rep = run_thickness_study(epsilons=(0.04, 0.02))
    for row in rep.rows:
        sim = run_compact_simulation(row["epsilon"])
        widths = [r["layer_width"] for r in sim.rows]
        assert [row["width_mid"], row["width_end"]] == widths, row["epsilon"]


def test_front_speed_has_the_bramson_delay():
    """The front is 2t - (3/2) eps ln(t/eps) + O(eps) (Bramson, Mem. AMS 44
    (1983) no. 285).  Fitted over the speed study's window, t >= 0.2, the
    delay alone gives (speed - 2)/eps = -2.78; measured -3.110, -2.768 and
    -2.535 at eps 0.04, 0.02 and 0.01.  A 5% error in the diffusion factor
    or the reaction rate moves it by more than 0.5 at every rung."""
    for eps in LADDER:
        cfg = compact_family_config(eps, ConvexBody.interval(-0.5, 0.5), 0.9,
                                    0.25, 1.0)
        speed = _front_speed_fit(_run(cfg))[0]
        assert abs((speed - 2.0) / eps + 2.78) <= 0.5, (eps, speed)


def test_generation_time_is_the_logistic_time_and_eps():
    """The generation study's time tau is the logistic ODE's time from the
    lowest g on the threshold set, g0, up to 1 - eps, plus about eps:
    tau_ODE = eps ln[(1 - eps)(1 - g0)/(eps g0)].  (tau - tau_ODE)/eps
    measured 0.992, 0.962 and 0.930 at eps 0.04, 0.02 and 0.01, tau read on
    steps of eps/64.  A 5% error in the reaction rate moves it outside
    [0.85, 1.10] at every rung.  This oracle does not see diffusion: a 5%
    error in the diffusion factor keeps it within 0.915 to 1.008."""
    for eps in LADDER:
        cfg = compact_family_config(eps, ConvexBody.interval(-0.5, 0.5), 0.5,
                                    0.25, 0.5)
        g = compact_value(cfg.initial, cfg.grid.axis(0))
        g0 = float(g[g >= THRESHOLD_K * eps_log(eps)].min())
        tau_ode = eps * math.log((1.0 - eps) * (1.0 - g0) / (eps * g0))
        # the generation study's rung, stopped at its first passage
        tau = _generation_time(cached([(cfg, *_passage(eps))], ())[0], eps)
        assert 0.85 <= (tau - tau_ode) / eps <= 1.10, (eps, tau, tau_ode)


def _ablowitz_zeppetella(z):
    """The exact travelling wave of u_t = u_zz + u(1 - u) with speed
    5/sqrt(6) (Ablowitz and Zeppetella, Bull. Math. Biol. 41 (1979) 835)."""
    return 1.0 / (1.0 + np.exp(z / math.sqrt(6.0))) ** 2


# mode: (eps, body, t_end, x0, bound on the front's error)
EXACT_WAVE = {
    # an off-centre interval: the wave is not even, so the run is not
    # reduced.  Largest error measured 1.17e-4 (0.023 dx); bound about 2x.
    "line": (0.04, ConvexBody.interval(-0.45, 0.55), 0.5, -1.0, 2.5e-4),
    # an ellipse off-centre in x only: the run is reduced to y >= 0, and the
    # front, x constant, crosses the Observer's +x scan.  Largest error
    # measured 1.67e-5 (0.001 dx); bound about 2.4x.
    "plane": (0.1, ConvexBody.ellipse((0.05, 0.0), (0.3, 0.2)), 0.2, 0.3,
              4e-5),
}


@pytest.mark.parametrize("mode", sorted(EXACT_WAVE))
def test_front_tracks_the_exact_wave(monkeypatch, mode):
    """run() started from the Ablowitz-Zeppetella wave u0 = U((x - x0)/eps),
    x the first coordinate: the observed front_half follows
    x0 + eps z_half + c t, U(z_half) = 1/2, c = 5/sqrt(6), at dx = eps/8."""
    eps, body, t_end, x0, bound = EXACT_WAVE[mode]
    c = 5.0 / math.sqrt(6.0)
    z_half = math.sqrt(6.0) * math.log(math.sqrt(2.0) - 1.0)
    sample = solver.build_initial

    def wave(initial, grid, epsilon, x):
        g = sample(initial, grid, epsilon, x)[1]  # still gives the threshold set
        along = x[..., 0] if grid.mode == "plane" else x
        return Field(grid, _ablowitz_zeppetella((along - x0) / epsilon)), g

    monkeypatch.setattr(solver, "build_initial", wave)
    cfg = compact_family_config(eps, body, 0.9, 0.25, t_end, mode=mode)
    series = solver.run(cfg).series
    exact = x0 + eps * z_half + c * series["t"]
    assert np.max(np.abs(series["front_half"] - exact)) <= bound


def test_criterion_5_generation_time():
    t0 = time.perf_counter()
    rep = run_generation_study(epsilons=LADDER, amplitude=0.5, t_end=0.5)
    alphas = [r["alpha"] for r in rep.rows]
    detail = (f"alpha in [{min(alphas):.2f},{max(alphas):.2f}]"
              f" spread {max(alphas) / min(alphas):.2f};"
              f" fit residual {rep.fits[0]['residual']:.4f}")
    _verdict(5, "generation-time", rep.passed, detail,
             time.perf_counter() - t0, 30.0)


def test_criterion_6_sandwich_suite():
    t0 = time.perf_counter()
    rep = run_barrier_check(epsilon=0.02)
    names = {c["name"]: c for c in rep.checks}
    ok = rep.passed and names["sabotage_detected"]["passed"]
    detail = "; ".join(f"{c['name']}={'ok' if c['passed'] else 'VIOLATED'}"
                       for c in rep.checks)
    _verdict(6, "sandwich-suite", ok, detail, time.perf_counter() - t0, 20.0)


def test_criterion_7_no_interface():
    t0 = time.perf_counter()
    rep = run_no_interface_study(epsilons=LADDER, m=0.5, n=2.0,
                                 probe_t=0.5, probe_x=2.0, dim=2)
    probes = [r["probe_algebraic"] for r in rep.rows]
    controls = [r["probe_compact"] for r in rep.rows]
    detail = (f"algebraic {'->'.join(f'{p:.4f}' for p in probes)};"
              f" controls max {max(controls):.1e}")
    _verdict(7, "no-interface", rep.passed, detail,
             time.perf_counter() - t0, 60.0)


def test_criterion_8_semiflow_suite():
    t0 = time.perf_counter()
    ok = True
    notes = []

    # the reaction half-step vs adaptive RK, 1e-10
    p = KineticsParams(0.02)
    eps = p.epsilon
    g = Grid("line", ((0.0, 2.0),), 1.0)
    worst = 0.0
    for xi, s in ((0.1, 2.3), (0.5, math.log(3.0)), (0.9, 4.0)):
        sol = solve_ivp(lambda _, z: z * (1 - z), (0, s), [xi],
                        method="DOP853", rtol=1e-12, atol=1e-14)
        step = Stepper(g, 2 * eps * s, eps).reaction(np.full(3, xi))
        worst = max(worst, float(np.max(np.abs(step - sol.y[0, -1]))))
    ok &= worst <= 1e-10
    notes.append(f"reaction vs RK {worst:.1e}")

    # the semiflow reaches 0 at the closed-form positivity time of the
    # slow linear zone (within 1e-9 relative); RK crossing within 1%
    xi = p.threshold / 2
    t_pos = p.log_eps * math.log(1 / (1 - xi / p.threshold))
    reaches = (semiflow(t_pos * (1 - 1e-9), xi, p) > 0
               == semiflow(t_pos * (1 + 1e-9), xi, p))
    ev = lambda _, w: w[0]
    ev.terminal, ev.direction = True, -1
    sol = solve_ivp(lambda _, w: modified_logistic(w, p), (0, 100.0), [xi],
                    events=ev, method="DOP853", rtol=1e-10, atol=1e-14)
    rel = abs(sol.t_events[0][0] - t_pos) / t_pos
    ok &= reaches and rel <= 0.01
    notes.append(f"reaches 0 {reaches}, crossing {rel:.1e}")

    # semiflow strictly increasing in xi where positive, never decreasing,
    # at 20 sampled points
    rng = np.random.default_rng(17)
    pos = True
    for _ in range(20):
        s, xi = rng.uniform(0.2, 3.0), rng.uniform(-0.3, 1.5)
        w = semiflow(s, xi + np.array([-1e-6, 0.0, 1e-6]), p)
        rise = np.diff(w)
        pos &= bool(np.all(rise >= 0) and np.all(rise[w[1:] > 0] > 0))
    ok &= pos
    notes.append(f"increasing in xi {pos}")

    # modified rate below u(1-u) on [0, 2]
    u = np.linspace(0, 2, 10_000)
    gap = float((modified_logistic(u, p) - u * (1 - u)).max())
    ok &= gap <= 1e-12
    notes.append(f"rate gap {gap:.1e}")

    # threshold constant stable within a factor 2: the longer of the passage
    # times 3 eps|ln eps| -> 1 - eps and 2 -> 1 + eps, by a root find
    def alpha(k):
        def passage(xi, level):
            return brentq(lambda s: semiflow(s, xi, k) - level, 0, 60 * k.log_eps)
        return max(passage(3 * k.threshold, 1 - k.epsilon),
                   passage(2.0, 1 + k.epsilon)) / k.log_eps

    alphas = [alpha(KineticsParams(e)) for e in LADDER]
    spread = max(alphas) / min(alphas)
    ok &= spread <= 2.0
    notes.append(f"alpha spread {spread:.2f}")

    _verdict(8, "semiflow-suite", ok, "; ".join(notes),
             time.perf_counter() - t0, 5.0)


def test_criterion_9_solver_numerics():
    t0 = time.perf_counter()
    ok = True
    notes = []
    eps = 0.04
    body = ConvexBody.interval(-0.5, 0.5)

    # Strang order from a Richardson triplet on smooth data
    dx = eps / 8
    grid = Grid("line", ((-1.2, 1.2),), dx)
    x = grid.axis(0)
    u0 = 0.8 * np.exp(-4 * x**2)
    t_end = 0.1
    sols = []
    for div in (1, 2, 4):
        dt = default_dt(grid, eps) / div
        n = math.ceil(t_end / dt)
        stepper = Stepper(grid, t_end / n, eps)
        u = u0
        for _ in range(n):
            u = stepper.step(u)
        sols.append(u)
    order = math.log2(np.linalg.norm(sols[0] - sols[1])
                      / np.linalg.norm(sols[1] - sols[2]))
    ok &= order >= 1.8
    notes.append(f"order {order:.2f}")

    # comparison preservation on 10 random ordered pairs
    rng = np.random.default_rng(23)
    stepper = Stepper(grid, default_dt(grid, eps), eps)
    preserved = True
    for _ in range(10):
        u = rng.uniform(0, 0.9, grid.shape)
        v = u + rng.uniform(0, 0.1, grid.shape)
        for _ in range(4):
            u, v = stepper.step(u), stepper.step(v)
        preserved &= bool(np.all(v - u >= -1e-12))
    ok &= preserved
    notes.append(f"comparison {preserved}")

    # sup bound 1 + eps + 1e-8 after the generation time
    cfg = compact_family_config(eps, body, 0.9, 0.25, t_end=0.5,
                                tail=(1.0, 0.3))
    traj = _run(cfg)
    sup = traj.series["sup"]
    t = traj.series["t"]
    sup_after = float(sup[t >= 2.0 * eps_log(eps)].max())
    ok &= sup_after <= 1.0 + eps + 1e-8
    notes.append(f"sup after gen {sup_after:.4f}")

    # radial vs plane consistency
    eps2, t2 = 0.1, 0.15
    dx2 = eps2 / 8
    ball = ConvexBody.ball((0.0, 0.0), 0.5)
    init = InitialData.compact(ball, 0.9, 0.25)
    ext = math.ceil((0.5 + 2 * t2 + 10 * eps_log(eps2)) / dx2 + 2) * dx2
    cfg_r = SimConfig(eps2, Grid("radial", ((0.0, ext),), dx2, dim=2), init,
                      t_end=t2, checkpoint_times=(t2,))
    cfg_p = SimConfig(eps2, Grid("plane", ((-ext, ext), (-ext, ext)), dx2),
                      init, t_end=t2, checkpoint_times=(t2,))
    fr = _run(cfg_r).checkpoints[-1][1]
    fp = _run(cfg_p).checkpoints[-1][1]
    r = cfg_r.grid.axis(0)
    ur = fr.values
    up = np.array([interpolate(fp, (ri, 0.0)) for ri in r])
    front = (ur > 0.01) & (ur < 0.99)
    gap = float(np.max(np.abs(ur - up)[front]))
    ok &= gap <= 5e-3
    notes.append(f"radial-plane gap {gap:.1e}")

    _verdict(9, "solver-numerics", ok, "; ".join(notes),
             time.perf_counter() - t0, 30.0)
