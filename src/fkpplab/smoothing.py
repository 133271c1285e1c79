"""C2 smoothstep used for the reaction cutoff and the clamped distance."""

import numpy as np


def smoothstep(t):
    """Quintic smoothstep 6t^5 - 15t^4 + 10t^3 on [0, 1], clamped outside.

    Value, first and second derivative vanish/match at both ends, so gluing
    to constants is C2.
    """
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)

