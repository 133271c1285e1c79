"""The Dormand-Prince 8(5,3) Runge-Kutta pair with its 7th-degree dense
output (Hairer, Norsett and Wanner, *Solving Ordinary Differential
Equations I*, 2nd ed., Sec. II.10), for an autonomous system y' = f(y) on
[0, t_bound] with an optional terminal event: y[0] falling through a level.

It performs the operations of scipy 1.17's DOP853 solver, run at
rtol=1e-12 and atol=1e-14 with dense output and a terminal event, in
scipy's order: the same coefficient table, each stage sum and error estimate a numpy dot
product (`np.dot(K[:s].T, a[:s])`), the same initial step, step control
(SAFETY, MIN_FACTOR, MAX_FACTOR, the exponent -1/8, a least step of ten
spacings of t), dense output and segment rule, and a port of scipy's
`brentq.c` for the event root.  So what it returns is bit for bit what
scipy returns, and a travelling-wave table keeps every bit without
importing scipy's ODE package, which loads scipy.optimize, scipy.special
and scipy.sparse with it.  The dot products are part of the contract: a stage
summed in plain Python floats rounds otherwise, and through the error
norm's cancellation that moves the step sequence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

RTOL = 1e-12
ATOL = 1e-14
SAFETY = 0.9  # multiplies the step the error's asymptotics ask for
MIN_FACTOR = 0.2  # the most a rejected step shrinks by
MAX_FACTOR = 10.0  # the most an accepted step grows by
ERROR_EXPONENT = -1 / 8  # -1 / (order of the error estimator + 1)
BRENTQ_TOL = 4 * np.finfo(float).eps  # xtol = rtol of the event root
BRENTQ_ITER = 100

# The coefficient table below is scipy's dop853_coefficients.py with each
# sparse row set in one assignment; every literal is scipy's, so every
# coefficient has scipy's bits.  The stage nodes C are left out: the
# system is autonomous, so no stage reads its t.
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

N_STAGES = 12  # stages of a step; stage 12 is f at the step's end
N_STAGES_EXTENDED = 16  # with the three more the dense output needs
INTERPOLATOR_POWER = 7

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2
A[2, [0, 1]] = [
    1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [
    2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138]

B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# the dense output's rows 3 to 6; rows 0 to 2 come from the step's ends
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1]
D[1, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2]
D[2, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2]
D[3, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3]


class Solution:
    """The dense output of one integration.  Step i starts at ts[i] from
    y_old[:, i] and has length h[i]; on it y is the 7th-degree polynomial
    with coefficients F[..., i].  ts[-1] is where the integration stopped: t_bound,
    or the event's root, which then also is `root` (None without one)."""

    def __init__(self, ts, h, y_old, F, root):
        self.ts = np.array(ts)
        self.h = np.array(h)
        self.y_old = np.array(y_old).T  # (n, steps): one row per component
        self.F = np.array(F).transpose(1, 2, 0)  # (7, n, steps)
        self.root = root

    def __call__(self, t):
        """y at the points t (a 1-D array), shape (n, len(t)), with scipy's
        OdeSolution's segment rule: a point on a step's end takes the
        earlier step, and one outside [ts[0], ts[-1]] the nearest end step.
        All points and components are evaluated at once, by scipy's Horner
        scheme in x and 1 - x."""
        i = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, self.h.size - 1)
        x = (t - self.ts[i]) / self.h[i]
        factors = (x, 1 - x)
        y = np.zeros((self.y_old.shape[0], x.size))
        for k, f in enumerate(self.F[::-1]):
            y += f[:, i]
            y *= factors[k % 2]
        return y + self.y_old[:, i]


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, f0, t_bound):
    """scipy's select_initial_step (Hairer, Norsett and Wanner, Sec. II.4)."""
    scale = ATOL + np.abs(y0) * RTOL
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = fun(y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_bound)


def _step(fun, y, f, h, K):
    """One step of length h from (y, f = fun(y)): the stages into K[:13],
    the 8th-order y at the step's end and fun of it."""
    K[0] = f
    for s in range(1, N_STAGES):
        K[s] = fun(y + np.dot(K[:s].T, A[s, :s]) * h)
    y_new = y + h * np.dot(K[:N_STAGES].T, B)
    f_new = fun(y_new)
    K[N_STAGES] = f_new
    return y_new, f_new


def _error_norm(K, h, scale):
    """The step's error: the 5th-order estimate, damped by the 3rd-order
    one, in the RMS norm weighted by 1/scale."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense(fun, K, y_old, y, f, h):
    """The dense output's coefficients on a step from y_old to y (with
    f = fun(y)): three more stages into K[13:], then the 7 rows."""
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        K[s] = fun(y_old + np.dot(K[:s].T, A[s, :s]) * h)
    F = np.empty((INTERPOLATOR_POWER, y.size))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)
    return F


def _crossing(leg, level):
    """t -> y[0](t) - level on a one-step Solution ``leg``."""
    def g(t):
        y = float(leg(np.array([t]))[0, 0]) - level
        if math.isnan(y):  # as scipy's brentq refuses it
            raise NumericalError(f"the dense output is NaN at t = {t!r}")
        return y

    return g


def _brentq(f, xa, xb):
    """A root of f in [xa, xb], where f changes sign: scipy's brentq.c line
    by line, with xtol = rtol = BRENTQ_TOL and BRENTQ_ITER iterations."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericalError("the event function keeps its sign over the step")
    for _ in range(BRENTQ_ITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENTQ_TOL + BRENTQ_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NumericalError(f"no event root within {BRENTQ_ITER} iterations")


def integrate(fun, t_bound, y0, level):
    """Integrate y' = fun(y) from y(0) = y0 over [0, t_bound] and return its
    Solution.  With a level (not None), stop at the first step where
    y[0] - level falls through 0, at the root on that step's dense output.
    A launch state that is not finite, a step below ten spacings of t and
    an event root not found raise NumericalError; a state that stops being
    finite has its step rejected, and so cut by MIN_FACTOR, until it is
    below that spacing, so no failure loops."""
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise NumericalError(f"the launch state {y.tolist()} is not finite")
    t = 0.0
    f = fun(y)
    h_abs = _initial_step(fun, y, f, t_bound)
    K = np.empty((N_STAGES_EXTENDED, y.size))
    g = None if level is None else y[0] - level
    ts, hs, ys, Fs = [t], [], [], []
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # nor NaN, on which scipy would loop
                raise NumericalError(
                    f"the step fell below {min_step:.3g} at t = {float(t)!r}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _step(fun, y, f, h, K)
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            error_norm = _error_norm(K[:N_STAGES + 1], h, scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        F = _dense(fun, K, y, y_new, f_new, h)
        hs.append(h)
        ys.append(y)
        Fs.append(F)
        if g is not None:
            g_new = y_new[0] - level
            if g >= 0 and g_new <= 0:
                leg = Solution([t, t_new], [h], [y], [F], None)
                root = _brentq(_crossing(leg, level), t, t_new)
                ts.append(root)
                return Solution(ts, hs, ys, Fs, root)
            g = g_new
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        if t >= t_bound:
            return Solution(ts, hs, ys, Fs, None)

