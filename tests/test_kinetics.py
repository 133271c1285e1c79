import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from fkpplab.errors import ConfigurationError, DomainError
from fkpplab.grids import Grid
from fkpplab.kinetics import (
    KineticsParams,
    _time_map,
    modified_logistic,
    semiflow,
)
from fkpplab.solver import Stepper

P02 = KineticsParams(0.02)


def test_modified_rate_zeros_and_logistic_branch():
    p = P02
    for u in (p.threshold, 1.0):
        assert modified_logistic(u, p) == pytest.approx(0.0, abs=1e-15)
    # from pos_outer on the rate is u(1-u)
    for u in (p.pos_outer, 0.75, 1.5):
        assert modified_logistic(u, p) == u * (1.0 - u)


def test_modified_rate_slopes():
    p = P02
    h = 1e-7

    def slope(u):
        return (modified_logistic(u + h, p) - modified_logistic(u - h, p)) / (2 * h)

    assert slope(p.threshold) == pytest.approx(1.0 / p.log_eps, abs=1e-6)
    assert slope(1.0) == pytest.approx(-1.0, abs=1e-6)


def test_modified_rate_anchor_points():
    p = P02
    assert modified_logistic(p.threshold, p) == pytest.approx(0.0, abs=1e-15)
    assert modified_logistic(0.5, p) == pytest.approx(0.25, abs=1e-15)
    p1 = KineticsParams(0.1)
    assert modified_logistic(0.0, p1) == pytest.approx(-0.1, abs=1e-12)


@pytest.mark.parametrize("eps", [0.1, 0.04, 0.02, 0.01, 0.005, 1e-4])
def test_modified_rate_never_exceeds_logistic(eps):
    # KineticsParams checks this exactly, at pos_outer; sampled here
    p = KineticsParams(eps)
    u = np.linspace(0.0, 2.0, 10_000)
    gap = modified_logistic(u, p) - u * (1.0 - u)
    assert float(gap.max()) <= 1e-12


def test_params_reject_epsilon_too_large():
    with pytest.raises(ConfigurationError):
        KineticsParams(0.35)  # eps|ln eps| above CUTOFF_INNER
    with pytest.raises(ConfigurationError):
        KineticsParams(0.5)  # above 1/e


def test_semiflow_initial_condition():
    assert semiflow(0.0, 0.37, P02) == 0.37


def test_semiflow_threshold_is_invariant():
    p = P02
    for s in (0.5, 3.0, 10.0):
        assert semiflow(s, p.threshold, p) >= p.threshold - 1e-12
    assert semiflow(4.0, -0.05, p) == 0.0


@pytest.mark.parametrize("frac", [0.5, 0.9])
def test_semiflow_zero_crossing_matches_closed_form(frac):
    # on the slow linear zone w' = (w - theta)/|ln eps|, so w reaches 0 at
    # |ln eps| ln(1/(1 - xi/theta)) and stays there
    p = P02
    xi = frac * p.threshold
    t_pred = p.log_eps * math.log(1.0 / (1.0 - xi / p.threshold))
    assert semiflow(t_pred * (1.0 - 1e-9), xi, p) > 0.0
    assert semiflow(t_pred * (1.0 + 1e-9), xi, p) == 0.0
    ev = lambda _, w: w[0]
    ev.terminal = True
    ev.direction = -1
    sol = solve_ivp(lambda _, w: modified_logistic(w, p), (0.0, 100.0), [xi],
                    events=ev, method="DOP853", rtol=1e-10, atol=1e-14)
    assert sol.t_events[0][0] == pytest.approx(t_pred, rel=0.01)


def test_semiflow_rejects_bad_data():
    for xi in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            semiflow(1.0, np.array([0.3, xi]), P02)
    # any finite datum is valid; a negative one maps to 0
    assert semiflow(1.0, np.array([0.3, -(2.0**21)]), P02)[1] == 0.0
    with pytest.raises(DomainError):
        semiflow(math.nan, 0.3, P02)


def test_time_map_built_on_first_use_and_bounded():
    _time_map.cache_clear()
    p = KineticsParams(0.03)
    assert _time_map.cache_info().currsize == 0
    semiflow(1.0, 0.3, p)
    semiflow(2.0, 0.4, p)
    info = _time_map.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert info.maxsize is not None


def test_semiflow_monotone_in_xi():
    p = P02
    rng = np.random.default_rng(5)
    for s in (0.3, 1.0, 2.0, 4.0):
        xi = np.sort(rng.uniform(-0.5, 1.8, 5))
        w = semiflow(s, xi, p)
        # strictly increasing where w > 0, never decreasing
        rise = np.diff(w)
        assert np.all(rise >= 0.0) and np.all(rise[w[1:] > 0.0] > 0.0), s


def _variational_oracle(s, xi, p, h=1e-6):
    """w_xi from the variational equation d' = f'(w) d of w' = f(w), with f'
    as a central difference of the modified rate."""

    def rhs(_, y):
        w, d = y
        f1 = (modified_logistic(w + h, p) - modified_logistic(w - h, p)) / (2 * h)
        return [float(modified_logistic(w, p)), float(f1 * d)]

    sol = solve_ivp(rhs, (0.0, s), [xi, 1.0], method="DOP853",
                    rtol=1e-11, atol=1e-14)
    assert sol.success
    return sol.y[1, -1]


@pytest.mark.parametrize("s, xi", [
    (0.5, 0.1), (2.0, 0.3), (1.0, 0.8), (2.0, -0.2), (1.5, -0.7), (0.4, -1.3),
    (3.0, 1.6), (1.0, -1.0), (1.0, P02.threshold), (1.0, 1.0)])
def test_sensitivity_against_variational_oracle(s, xi):
    # the sensitivity w_xi of the semiflow, as a central difference in xi;
    # max(0, w) is 0 on xi <= 0, so its sensitivity there is 0
    h = 1e-5
    w = semiflow(s, np.array([xi - h, xi + h]), P02)
    w1 = (w[1] - w[0]) / (2 * h)
    if xi <= 0.0:
        assert w1 == 0.0
    else:
        assert w1 == pytest.approx(_variational_oracle(s, xi, P02), rel=1e-4)


def test_semiflow_stays_in_range():
    p = P02
    bound = 1.0 + 1.0 + 1.0  # sup g + tail cap + 1
    for xi in (-bound + 0.05, -0.9, 1.5, bound - 0.05):
        for s in (1.0, 5.0, 20.0):
            assert abs(semiflow(s, xi, p)) < bound


def test_logistic_agrees_with_semiflow_above_cutoff():
    # trajectories staying above the cutoff see the untouched logistic rate,
    # whose exact flow over s is a reaction half-step with dt = 2 eps s
    p = P02
    g = Grid("line", ((0.0, 2.0),), 1.0)
    xi = np.array([0.6, 0.7, 0.8])
    for s in (0.5, 1.5):
        step = Stepper(g, 2.0 * p.epsilon * s, p.epsilon).reaction(xi)
        assert np.allclose(semiflow(s, xi, p), step, rtol=0.0, atol=1e-6)


def _passage_time(p, xi, level):
    """The time the semiflow from xi takes to reach level, by a root find."""
    return brentq(lambda s: semiflow(s, xi, p) - level, 0.0, 60.0 * p.log_eps,
                  xtol=1e-13)


def _generation_alpha(p):
    """The longer of the passage times 3 eps|ln eps| -> 1 - eps and
    2 -> 1 + eps, over |ln eps|."""
    eps = p.epsilon
    return max(_passage_time(p, 3.0 * p.threshold, 1.0 - eps),
               _passage_time(p, 2.0, 1.0 + eps)) / p.log_eps


def test_generation_alpha_stable_across_ladder():
    alphas = {}
    for eps in (0.04, 0.02, 0.01):
        p = KineticsParams(eps)
        a = _generation_alpha(p)
        alphas[eps] = a
        L = p.log_eps
        grid = np.linspace(3.0 * p.threshold, 2.0, 12)
        w = semiflow(a * L, grid, p)
        assert np.all(w >= 1.0 - eps - 1e-9)
        grid_all = np.linspace(p.threshold, 2.0, 12)
        w_all = semiflow(a * L, grid_all, p)
        assert np.all(w_all <= 1.0 + eps + 1e-9)
    ratio = max(alphas.values()) / min(alphas.values())
    assert ratio <= 2.0


def _crossing_time(p, xi0, target, direction):
    ev = lambda _, w: w[0] - target
    ev.terminal, ev.direction = True, direction
    sol = solve_ivp(lambda _, w: modified_logistic(w, p), (0.0, 60.0 * p.log_eps),
                    [xi0], events=ev, method="DOP853", rtol=1e-12, atol=1e-20)
    return sol.t_events[0][0]


@pytest.mark.parametrize("eps", [0.04, 0.02, 0.01])
def test_generation_alpha_matches_event_integration(eps):
    p = KineticsParams(eps)
    s_low = _crossing_time(p, 3.0 * p.threshold, 1.0 - eps, +1)
    s_high = _crossing_time(p, 2.0, 1.0 + eps, -1)
    alpha = _generation_alpha(p)
    assert alpha == pytest.approx(max(s_low, s_high) / p.log_eps, rel=1e-9)
