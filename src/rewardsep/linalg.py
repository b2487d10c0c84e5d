"""Dense square solves: every visitation, and the duals of a float LP.

Exact solves serve the visitations only; exact LP multipliers are read off
the simplex tableau instead (see `lp`).  They are fraction-free (Bareiss
1968): each row of [A | b] is scaled to integers by the lcm of its
denominators, eliminated with exact integer division, and back-substituted
to y / det in integers, so the only rationals formed are the returned
x_i = y_i / det.  Float visitations come as one stack of systems, solved
by one numpy call; a singular system in the stack raises
`SingularSystemError` as a lone one does.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .numeric import ZERO, NumericMode, over_common_denominator


class SingularSystemError(ValueError):
    pass


def solve_square(rows, rhs, mode: NumericMode) -> list:
    """Solve A x = b for square A.

    Exact mode runs Bareiss elimination on the integer-scaled rows (pivot
    = first nonzero entry at or below the diagonal, deterministic); float
    mode defers to numpy.  In float mode `rows` may also be a (k, n, n)
    array with `rhs` (k, n): numpy solves the k systems in one call, each
    as it would alone, and the (k, n) array of solutions is returned.
    """
    if not mode.exact and isinstance(rows, np.ndarray) and rows.ndim == 3:
        if rows.shape[1] != rows.shape[2] or rhs.shape != rows.shape[:2]:
            raise ValueError("solve_square expects a stack of square systems")
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

    # m[r] = [A_r | b_r] in integers.  After step col, every entry right of
    # the diagonal is a minor of the scaled matrix, so the division by the
    # previous pivot is exact, and entries are zero exactly where the
    # rational elimination has zeros: the same pivot rows and singular column.
    m = [over_common_denominator(list(row) + [b])[0] for row, b in zip(rows, rhs)]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col]), None)
        if pivot_row is None:
            raise SingularSystemError(f"singular system at column {col}")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        prow = m[col]
        p = prow[col]
        for r in range(col + 1, n):
            row = m[r]
            f = row[col]
            m[r] = row[:col + 1] + [
                (p * u - f * v) // prev for u, v in zip(row[col + 1:], prow[col + 1:])
            ]
        prev = p
    # Back substitution for y = det * x, integral by Cramer's rule.
    det = prev
    y = [0] * n
    for r in range(n - 1, -1, -1):
        row = m[r]
        acc = det * row[n] - sum(row[c] * y[c] for c in range(r + 1, n))
        y[r] = acc // row[r]
    return [Fraction(v, det) if v else ZERO for v in y]
