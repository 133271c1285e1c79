"""Numerical laboratory for the singularly scaled Fisher-KPP equation
u_t = eps*Lap(u) + u(1-u)/eps.

The package measures the sharp-interface phenomenology of the equation as
eps -> 0: interface generation in time O(eps |ln eps|), front propagation at
the minimal wave speed 2, transition layers of thickness O(eps |ln eps|),
the comparison barriers that prove those facts, and the loss of the
interface for algebraically decaying initial data.
"""

__version__ = "0.1.0"
