"""Dense square solves, a stack of systems at a time: the visitations.

The simplex solves no square system: the Farkas multipliers of an
infeasible LP are read off its tableau in both modes (see `lp`).  Exact
solves are fraction-free (Bareiss 1968) on integer systems: each column
step is one object-array update of every system, with exact integer
division, and back substitution gives y = det * x in integers, so an
exact stack returns (y, det) and forms no rational at all.  A float
stack is solved by one numpy call.
"""

from __future__ import annotations

import numpy as np

from .numeric import NumericMode


class SingularSystemError(ValueError):
    pass


def solve_square(rows, rhs, mode: NumericMode):
    """Solve A_i x_i = b_i for the (k, n, n) array `rows` of square
    systems and the (k, n) array `rhs`.

    Float mode defers to numpy, which solves each system as it would
    alone, and returns the (k, n) array of solutions.  Exact systems hold
    Python ints and run Bareiss elimination (pivot = first nonzero entry
    at or below the diagonal, deterministic); the call returns (y, det), a
    (k, n) and a (k,) array of ints with A_i y_i = det_i b_i.  A singular
    system raises `SingularSystemError`.
    """
    if rows.ndim != 3 or rows.shape[1] != rows.shape[2] or rhs.shape != rows.shape[:2]:
        raise ValueError("solve_square expects a stack of square systems")
    if mode.exact:
        m = np.concatenate([rows, rhs[..., None]], axis=2)
        return _bareiss(m.astype(object, copy=False))
    try:
        return np.linalg.solve(rows, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc


def _bareiss(m):
    """(y, det) for the stack m[i] = [A_i | b_i] of integer systems, which
    it overwrites.  After step col, every entry right of the diagonal is a
    minor of A_i, so the division by the previous pivot is exact, and
    entries are zero exactly where the rational elimination has zeros: the
    same pivot rows and singular column."""
    k, n = m.shape[:2]
    prev = np.ones((k, 1, 1), object)
    for col in range(n):
        nonzero = m[:, col:, col] != 0
        if not nonzero.any(axis=1).all():
            raise SingularSystemError(f"singular system at column {col}")
        pivot_row = col + nonzero.argmax(axis=1)
        swap = (pivot_row != col).nonzero()[0]
        if swap.size:
            m[swap, col], m[swap, pivot_row[swap]] = m[swap, pivot_row[swap]], m[swap, col]
        p, f, u = m[:, col, None, None, col], m[:, col + 1:, col, None], m[:, None, col, col + 1:]
        m[:, col + 1:, col + 1:] = (p * m[:, col + 1:, col + 1:] - f * u) // prev
        prev = p
    # Back substitution for y = det * x, integral by Cramer's rule.
    det = prev[:, 0, 0]
    y = np.empty((k, n), object)
    for r in range(n - 1, -1, -1):
        acc = det * m[:, r, n] - (m[:, r, r + 1:n] * y[:, r + 1:]).sum(axis=1)
        y[:, r] = acc // m[:, r, r]
    return y, det
