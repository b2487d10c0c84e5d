"""Dense square solves: every visitation, and the Farkas multipliers of an
infeasible float LP.

Exact solves serve the visitations only; exact Farkas multipliers are read
off the simplex tableau instead, and a feasible LP solves no system (see
`lp`).  Exact solves are fraction-free (Bareiss 1968), run on a stack of
integer systems at once: each column step is one object-array update of
every system, with exact integer division, and back substitution gives
y = det * x in integers, so an exact stack returns
(y, det) and forms no rational at all.  A lone exact system is scaled to
integers row by row, by the lcm of each row's denominators, and solved as
a stack of one; only its returned x_i = y_i / det are rationals.  Float
visitations come as one stack of systems too, solved by one numpy call.
A singular system in a stack raises `SingularSystemError` as a lone one
does.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .numeric import ZERO, NumericMode, over_common_denominator


class SingularSystemError(ValueError):
    pass


def solve_square(rows, rhs, mode: NumericMode):
    """Solve A x = b for square A.

    Exact mode runs Bareiss elimination (pivot = first nonzero entry at or
    below the diagonal, deterministic); float mode defers to numpy.  A lone
    system (`rows` a sequence of rows) returns the list x.  `rows` may also
    be a (k, n, n) array with `rhs` (k, n): numpy solves the k float
    systems in one call, each as it would alone, and returns the (k, n)
    array of solutions; exact systems must then hold Python ints, and the
    call returns (y, det), a (k, n) and a (k,) array of ints with
    A_i y_i = det_i b_i.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 3:
        if rows.shape[1] != rows.shape[2] or rhs.shape != rows.shape[:2]:
            raise ValueError("solve_square expects a stack of square systems")
        if mode.exact:
            m = np.concatenate([rows, rhs[..., None]], axis=2)
            return _bareiss(m.astype(object, copy=False))
        try:
            return np.linalg.solve(rows, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("solve_square expects a square system")
    if not mode.exact:
        a = np.array(rows, dtype=float)
        b = np.array(rhs, dtype=float)
        try:
            return np.linalg.solve(a, b).tolist()
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
    m = np.array([over_common_denominator([*row, b])[0] for row, b in zip(rows, rhs)],
                 object).reshape(1, n, n + 1)
    y, det = _bareiss(m)
    return [Fraction(v, det[0]) if v else ZERO for v in y[0].tolist()]


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
