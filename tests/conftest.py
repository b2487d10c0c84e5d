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
def solved_lps(monkeypatch):
    """The LPs that reach `lp.solve`, in order: every LP the package
    decides goes through it."""
    from rewardsep import lp

    solved = []
    real_solve = lp.solve

    def counting_solve(program, *mode):
        solved.append(program)
        return real_solve(program, *mode)

    monkeypatch.setattr(lp, "solve", counting_solve)
    return solved
