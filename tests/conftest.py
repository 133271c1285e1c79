import numpy as np
import pytest

from fkpplab.solver import Stepper

BLOW_UP_STEP = 3


@pytest.fixture
def set_node(monkeypatch):
    """set_node(value, step=BLOW_UP_STEP): every Stepper then sets the middle
    node of its state to value on that step."""
    real = Stepper.step

    def patch(value, step=BLOW_UP_STEP):
        def step_with_value(self, u):
            u = real(self, u)
            if self.steps == step:
                u.flat[u.size // 2] = value
            return u

        monkeypatch.setattr(Stepper, "step", step_with_value)

    return patch


@pytest.fixture
def blow_up(set_node):
    """Make every Stepper put a NaN into the state on step BLOW_UP_STEP."""
    set_node(np.nan)
    return BLOW_UP_STEP
