"""Travelling waves of U'' + cU' + U(1-U) = 0, computed by shooting.

For every speed c >= 2 there is a monotone front connecting 1 to 0; its
right tail decays like e^{-lam z} with lam the smallest root of
r^2 - c r + 1 = 0, except at the minimal speed c = 2 where the decay picks
up the algebraic factor z e^{-z}.  Below c = 2 the profile overshoots and
changes sign.  This script computes the profiles, checks the tail law, and
plots them.
"""

import os

from fkpplab.svgplot import line_plot
from fkpplab.waves import decay_rate, solve_sign_changing_wave, solve_wave

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

print("== monotone waves: fitted tail rate vs the quadratic-root law ==")
profiles = {}
for c in (2.0, 2.2, 2.5, 3.0):
    prof = solve_wave(c)
    profiles[c] = prof
    lam_fit = prof.tail_right[1]
    lam_th = decay_rate(c)
    print(f"  c={c:4.1f}: residual {prof.residual().max():.1e},"
          f" tail rate {lam_fit:.6f} (theory {lam_th:.6f}),"
          f" table [{prof.z[0]:7.2f}, {prof.z[-1]:6.2f}]")

print("\n== minimal speed: the z e^{-z} envelope on z in [1, 15] ==")
gm, gp = profiles[2.0].kpp_ratio_bounds()
print(f"  gamma- = {gm:.4f}, gamma+ = {gp:.4f}, spread {gp / gm:.2f}")

print("\n== below the minimal speed the wave changes sign ==")
for c in (1.0, 1.8):
    prof = solve_sign_changing_wave(c)
    overshoot = prof.U[prof.z > 0].min()
    print(f"  c={c:4.1f}: U(0) = {prof.evaluate(0.0):+.2e},"
          f" overshoot minimum {overshoot:+.4f}")

series = []
for c, prof in profiles.items():
    keep = (prof.z >= -15) & (prof.z <= 15)
    series.append((prof.z[keep][::40], prof.U[keep][::40], f"c={c:g}"))
line_plot(os.path.join(OUT, "waves.svg"), series,
          title="travelling waves (U(0) = 1/2)", xlabel="z", ylabel="U")
print(f"\nwrote {OUT}/waves.svg")
