"""Dense linear solves shared by the visitation and LP machinery."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .numeric import NumericMode


class SingularSystemError(ValueError):
    pass


def solve_square(rows, rhs, mode: NumericMode) -> list:
    """Solve A x = b for square A.

    Exact mode runs Gaussian elimination over rationals (pivot = first
    nonzero entry, deterministic); float mode defers to numpy.
    """
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("solve_square expects a square system")
    if not mode.exact:
        a = np.array(rows, dtype=float)
        b = np.array(rhs, dtype=float)
        try:
            return list(np.linalg.solve(a, b))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc

    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularSystemError(f"singular system at column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        piv = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / piv
            if factor == 0:
                continue
            b[r] -= factor * b[col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x
