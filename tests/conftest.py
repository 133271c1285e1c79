import numpy as np
import pytest

from fkpplab.solver import Stepper

BLOW_UP_STEP = 3


@pytest.fixture
def blow_up(monkeypatch):
    """Make every Stepper put a NaN into the state on step BLOW_UP_STEP."""
    real = Stepper.step

    def step_with_nan(self, u):
        u = real(self, u)
        if self.steps == BLOW_UP_STEP:
            u[u.size // 2] = np.nan
        return u

    monkeypatch.setattr(Stepper, "step", step_with_nan)
    return BLOW_UP_STEP
