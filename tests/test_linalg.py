import math
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
def systems(draw, max_n=7, n=None):
    if n is None:
        n = draw(st.integers(0, max_n))
    rows = [draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # Make one row a combination of two others: singular for certain.
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        f, g = draw(_entries), draw(_entries)
        rows[i] = [f * u + g * v for u, v in zip(rows[j], rows[k])]
    rhs = draw(st.lists(_entries, min_size=n, max_size=n))
    return rows, rhs


@st.composite
def stacks(draw, max_n=6):
    """1-6 systems of one size, drawn as `systems` draws each."""
    n = draw(st.integers(0, max_n))
    return draw(st.lists(systems(n=n), min_size=1, max_size=6))


def integer_stack(stack):
    """(A, b) as (k, n, n) and (k, n) arrays of Python ints: each row of
    [A_i | b_i] times the lcm of its denominators, so that every system
    keeps its solutions and its first column without a pivot."""
    scaled = []
    for rows, rhs in stack:
        for row, b in zip(rows, rhs):
            entries = [F(v) for v in [*row, b]]
            den = math.lcm(*(v.denominator for v in entries))
            scaled.append([int(v * den) for v in entries])
    k, n = len(stack), len(stack[0][1])
    m = np.array(scaled, object).reshape(k, n, n + 1)
    return m[:, :, :n].copy(), m[:, :, n].copy()


def outcome(solve, rows, rhs):
    try:
        return "solved", solve(rows, rhs)
    except linalg.SingularSystemError as exc:
        return "singular", str(exc)


def solve_one(rows, rhs):
    """x of one system, solved as an integer stack of one."""
    a, b = integer_stack([(rows, rhs)])
    y, det = linalg.solve_square(a, b, EXACT)
    return [F(v, det[0]) for v in y[0].tolist()]


class TestExactSolve:
    @settings(max_examples=300)
    @given(systems())
    def test_matches_rational_elimination(self, system):
        rows, rhs = system
        got = outcome(solve_one, rows, rhs)
        assert got == outcome(gaussian_solve, rows, rhs)

    def test_singular_column_is_the_first_without_a_pivot(self):
        rows = [[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(1), F(2), F(5)]]
        with pytest.raises(linalg.SingularSystemError, match="at column 1$"):
            solve_one(rows, [1, 2, 3])
        with pytest.raises(linalg.SingularSystemError, match="at column 1$"):
            gaussian_solve(rows, [1, 2, 3])


class TestExactStack:
    @settings(max_examples=200)
    @given(stacks())
    def test_each_member_is_solved_as_alone(self, stack):
        a, b = integer_stack(stack)
        given_a, given_b = a.copy(), b.copy()
        want = [outcome(gaussian_solve, rows, rhs) for rows, rhs in stack]
        singular = [int(msg.split()[-1]) for kind, msg in want if kind == "singular"]
        if singular:
            # The lowest column at which some member has no pivot.
            with pytest.raises(linalg.SingularSystemError,
                               match=f"^singular system at column {min(singular)}$"):
                linalg.solve_square(a, b, EXACT)
        else:
            y, det = linalg.solve_square(a, b, EXACT)
            assert y.shape == b.shape and det.shape == (len(stack),)
            for (_, x), y_i, det_i in zip(want, y.tolist(), det.tolist()):
                assert all(type(v) is int for v in [*y_i, det_i])
                assert [F(v, det_i) for v in y_i] == x
        assert (a == given_a).all() and (b == given_b).all()

    def test_row_swap_in_one_member(self):
        a = np.array([[[0, 1], [2, 0]], [[1, 0], [0, 1]]], object)
        y, det = linalg.solve_square(a, np.array([[3, 4], [5, 6]], object), EXACT)
        assert [[F(v, d) for v in row] for row, d in zip(y.tolist(), det.tolist())] == [
            [2, 3], [5, 6]]

    def test_singular_member_names_its_column(self):
        singular = [[1, 2, 3], [2, 4, 7], [1, 2, 5]]  # no pivot in column 1
        a = np.array([np.eye(3, dtype=int).tolist(), singular], object)
        with pytest.raises(linalg.SingularSystemError, match="^singular system at column 1$"):
            linalg.solve_square(a, np.ones((2, 3), object), EXACT)


class TestFloatStack:
    def test_each_system_solved_as_alone(self):
        rng = np.random.default_rng(3)
        rows = np.eye(4) - 0.9 * rng.dirichlet(np.ones(4), size=(5, 4)).transpose(0, 2, 1)
        rhs = rng.random((5, 4))
        got = linalg.solve_square(rows, rhs, FLOAT)
        assert got.shape == (5, 4)
        for a, b, x in zip(rows, rhs, got):
            assert x.tolist() == np.linalg.solve(a, b).tolist()

    def test_a_singular_system_in_the_stack_raises(self):
        rows = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
        with pytest.raises(linalg.SingularSystemError):
            linalg.solve_square(rows, np.ones((2, 2)), FLOAT)


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_a_lone_system_is_refused(mode):
    with pytest.raises(ValueError, match="^solve_square expects a stack of square systems$"):
        linalg.solve_square(np.eye(2, dtype=int), np.ones(2, int), mode)
