from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rewardsep import linalg
from rewardsep.numeric import EXACT, FLOAT

from oracles import gaussian_solve

F = Fraction

# Small rationals, zero half the time, so that pivots move down and many
# systems are singular.
_entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-6, 6), st.integers(1, 5)),
)


@st.composite
def systems(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    rows = [draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # Make one row a combination of two others: singular for certain.
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        f, g = draw(_entries), draw(_entries)
        rows[i] = [f * u + g * v for u, v in zip(rows[j], rows[k])]
    rhs = draw(st.lists(_entries, min_size=n, max_size=n))
    return rows, rhs


def outcome(solve, rows, rhs):
    try:
        return "solved", solve(rows, rhs)
    except linalg.SingularSystemError as exc:
        return "singular", str(exc)


class TestExactSolve:
    @settings(max_examples=300)
    @given(systems())
    def test_matches_rational_elimination(self, system):
        rows, rhs = system
        got = outcome(lambda a, b: linalg.solve_square(a, b, EXACT), rows, rhs)
        assert got == outcome(gaussian_solve, rows, rhs)

    def test_singular_column_is_the_first_without_a_pivot(self):
        rows = [[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(1), F(2), F(5)]]
        with pytest.raises(linalg.SingularSystemError, match="at column 1$"):
            linalg.solve_square(rows, [1, 2, 3], EXACT)
        with pytest.raises(linalg.SingularSystemError, match="at column 1$"):
            gaussian_solve(rows, [1, 2, 3])

    def test_row_swap_and_mixed_inputs(self):
        # The first column's pivot sits in the last row; ints, Fractions
        # and strings are all exact inputs.
        rows = [[0, 1, F(1, 2)], [0, "2/3", 1], [3, 0, 0]]
        x = linalg.solve_square(rows, [F(1), 2, "-1/4"], EXACT)
        for row, b in zip(rows, [F(1), 2, F(-1, 4)]):
            assert sum(F(a) * v for a, v in zip(row, x)) == b
        assert x == gaussian_solve(rows, [F(1), 2, F(-1, 4)])

    def test_zero_entries_share_one_object(self):
        x = linalg.solve_square([[2, 0], [0, 3]], [0, 6], EXACT)
        assert x == [0, 2]
        y = linalg.solve_square([[1, 1], [1, -1]], [0, 0], EXACT)
        assert x[0] is y[0] is y[1]


class TestFloatStack:
    def test_each_system_solved_as_alone(self):
        rng = np.random.default_rng(3)
        rows = np.eye(4) - 0.9 * rng.dirichlet(np.ones(4), size=(5, 4)).transpose(0, 2, 1)
        rhs = rng.random((5, 4))
        got = linalg.solve_square(rows, rhs, FLOAT)
        assert got.shape == (5, 4)
        for a, b, x in zip(rows, rhs, got):
            assert x.tolist() == linalg.solve_square(a.tolist(), b.tolist(), FLOAT)

    def test_a_singular_system_in_the_stack_raises(self):
        rows = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
        with pytest.raises(linalg.SingularSystemError):
            linalg.solve_square(rows, np.ones((2, 2)), FLOAT)
