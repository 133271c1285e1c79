"""Comparison barriers sandwiching the numerical solution.

Analytic sub- and super-solutions pin the solution from both sides: the
ODE-driven barrier during generation, then a truncated slow wave from below
and a travelling-wave envelope from above during motion.  The script
evaluates all of them against one run and overlays a snapshot.
"""

import os

import numpy as np

from fkpplab.barriers import global_super, motion_sub
from fkpplab.geometry import ConvexBody
from fkpplab.kinetics import eps_log
from fkpplab.studies import cached_run, cached_wave, run_barrier_check
from fkpplab.svgplot import line_plot

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

rep = run_barrier_check(epsilon=0.02)
print("barrier-check verdicts:")
for line in rep.summary_lines():
    print(" ", line)
consts = rep.metadata["constants"]
print("\nfitted/derived constants:")
for key, val in consts.items():
    print(f"  {key:8s} = {val:.4f}")

print("\n t        sub slack   super slack")
for r in rep.rows:
    print(f" {r['t']:7.4f}  {r['min_slack_sub']:+.5f}   "
          f"{r['min_slack_super']:+.5f}")

# overlay one snapshot with its motion-phase sandwich
eps = 0.02
body = ConvexBody.interval(-2.4, 2.4)
from fkpplab.studies import compact_family_config

cfg = compact_family_config(eps, body, 0.9, 0.1, 1.0,
                            checkpoints=tuple(np.linspace(0.25, 1.0, 4)
                                              * 2.0 * eps_log(eps))
                            + tuple(np.linspace(0.3, 1.0, 6)))
traj = cached_run(cfg)
t_show = 0.58
fld = traj.checkpoint_at(t_show)
x = cfg.grid.axis(0)
wave2 = cached_wave(2.0)
wave_m = cached_wave(1.5)
t_rel = t_show - consts["t_gen"]
sub = motion_sub(t_rel, x, consts["m1"], wave_m, body, eps)
sup = global_super(t_show, x, consts["K_hat"], wave2, body, eps)
keep = (x >= 0.0) & (x <= 4.8)
line_plot(os.path.join(OUT, "barrier_sandwich.svg"),
          [(x[keep][::6], fld.values[keep][::6], "u"),
           (x[keep][::6], sub[keep][::6], "sub-solution"),
           (x[keep][::6], np.minimum(sup, 1.9)[keep][::6], "super-solution")],
          title=f"sandwich at t={t_show} (eps={eps})", xlabel="x", ylabel="u")
print(f"\nwrote {OUT}/barrier_sandwich.svg")
