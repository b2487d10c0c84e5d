import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def finished_lps(monkeypatch):
    """The LPs that reach `lp._finish`, in order.  Every LP solved ends
    there: one solved by `lp.solve`, and one whose phase 1 ran in
    `lp.check_feasible_many`'s stack and whose answer was drawn."""
    from rewardsep import lp

    finished = []
    real_finish = lp._finish

    def counting_finish(setup):
        finished.append(setup.lp)
        return real_finish(setup)

    monkeypatch.setattr(lp, "_finish", counting_finish)
    return finished
