"""Self-contained two-phase simplex with exact-rational and float backends.

The solver is small and dense on purpose: every decision procedure in the
package reduces to LPs with at most a few dozen rows and columns, and the
questions they encode (hull membership, separation, optimality) are exact
set statements.  Bland's rule keeps the pivot sequence finite, and all
tie-breaking is by lowest index, so outputs are deterministic.

The exact backend pivots fraction-free: each tableau row is a list of
integers over one positive row denominator, reduced by a single gcd per
updated row (see `_IntTableau`).  Scaling a row by a positive factor
changes no sign and no ratio, so Bland's rule makes the same pivots as
over rationals, and the vertex and certificates are those of a
`Fraction` tableau.  Rationals appear only at the edges: converting the
input rows, reading out the basic values and rays, and the duals, which
`linalg.solve_square` solves fraction-free against the unpivoted rows.
Every zero in an exact answer is the shared `numeric.ZERO`.  The float
backend pivots dense float rows with a tolerance.

Certificates returned with each solution:
  * optimal    -> per-row duals plus the dual objective (weak-duality check)
  * infeasible -> Farkas multipliers: aggregating the rows with them yields
                  a single inequality unsatisfiable over the variable box
  * unbounded  -> a recession ray along which the objective decreases
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .numeric import (
    EXACT,
    ZERO,
    NumericMode,
    as_exact,
    as_float,
    over_common_denominator,
    share_zero,
)

log = logging.getLogger(__name__)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "le", "eq", "ge"
_SENSES = {
    "le": LE, "<=": LE, "=<": LE,
    "eq": EQ, "=": EQ, "==": EQ,
    "ge": GE, ">=": GE, "=>": GE,
}

_MAX_PIVOTS = 100_000


class LpInputError(ValueError):
    """Malformed linear program: bad dimensions, senses, or coefficients."""


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  matrix x (senses) rhs,  bounds on x.

    ``senses`` holds "le" | "eq" | "ge" per row.  ``bounds`` holds one
    (lower, upper) pair per variable with None meaning unbounded; the
    default bound is (0, None).
    """

    objective: tuple
    matrix: tuple
    rhs: tuple
    senses: tuple
    bounds: tuple

    @staticmethod
    def build(objective, matrix, rhs, senses, bounds=None) -> "LinearProgram":
        objective = tuple(objective)
        matrix = tuple(tuple(row) for row in matrix)
        rhs = tuple(rhs)
        try:
            senses = tuple(_SENSES[s] for s in senses)
        except KeyError as exc:
            raise LpInputError(f"unknown constraint sense {exc.args[0]!r}") from exc
        n = len(objective)
        if bounds is None:
            bounds = tuple((0, None) for _ in range(n))
        else:
            bounds = tuple((lo, hi) for lo, hi in bounds)
        lp = LinearProgram(objective, matrix, rhs, senses, bounds)
        _validate(lp)
        return lp

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.matrix)


def _check_finite(value, where: str):
    if isinstance(value, float) and not math.isfinite(value):
        raise LpInputError(f"non-finite coefficient in {where}: {value!r}")


def _validate(lp: LinearProgram):
    n = lp.n_vars
    if len(lp.rhs) != lp.n_rows or len(lp.senses) != lp.n_rows:
        raise LpInputError("rhs/senses length does not match the constraint count")
    for i, row in enumerate(lp.matrix):
        if len(row) != n:
            raise LpInputError(f"constraint row {i} has {len(row)} coefficients, expected {n}")
        for v in row:
            _check_finite(v, f"row {i}")
    for v in lp.objective:
        _check_finite(v, "objective")
    for v in lp.rhs:
        _check_finite(v, "rhs")
    if len(lp.bounds) != n:
        raise LpInputError("bounds length does not match the variable count")
    for j, (lo, hi) in enumerate(lp.bounds):
        for v in (lo, hi):
            if v is not None:
                _check_finite(v, f"bounds of variable {j}")


@dataclass(frozen=True)
class DualCertificate:
    """Row duals of an optimal solution; dual_objective matches the primal."""

    row_duals: tuple
    dual_objective: object


@dataclass(frozen=True)
class FarkasCertificate:
    """Row multipliers witnessing infeasibility (see `farkas_gap`)."""

    row_multipliers: tuple


@dataclass(frozen=True)
class UnboundedRay:
    """Feasible recession direction with negative objective slope."""

    direction: tuple


@dataclass(frozen=True)
class LpSolution:
    status: str
    primal: Optional[tuple] = None
    objective_value: object = None
    certificate: object = None


class _Cmp:
    """Sign tests: exact or within the mode tolerance."""

    __slots__ = ("exact", "tol")

    def __init__(self, mode: NumericMode):
        self.exact = mode.exact
        self.tol = ZERO if mode.exact else mode.tolerance

    def neg(self, x) -> bool:
        return x < -self.tol

    def pos(self, x) -> bool:
        return x > self.tol

    def zero(self, x) -> bool:
        return -self.tol <= x <= self.tol


def _coerce_lp(lp: LinearProgram, mode: NumericMode):
    conv = as_exact if mode.exact else as_float
    c = [conv(v) for v in lp.objective]
    a = [[conv(v) for v in row] for row in lp.matrix]
    b = [conv(v) for v in lp.rhs]
    bounds = [
        (None if lo is None else conv(lo), None if hi is None else conv(hi))
        for lo, hi in lp.bounds
    ]
    return c, a, b, bounds


class _Std:
    """Standardized form: nonnegative variables, equality rows.

    Free variables split into nonnegative pairs; finite lower/upper bounds
    become shifts/reflections, two-sided bounds add an explicit row.
    """

    __slots__ = ("cols", "shifts", "rows", "rhs", "senses", "origin", "negated")

    def __init__(self):
        self.cols = []      # (orig var index, +1 | -1)
        self.shifts = []    # per orig var
        self.rows = []      # structural coefficients per std row
        self.rhs = []
        self.senses = []
        self.origin = []    # original row index, or None for bound rows
        self.negated = []


def _standardize(c, a, b, senses, bounds, zero):
    std = _Std()
    n = len(c)
    var_cols = [[] for _ in range(n)]
    bound_rows = []  # (col index, width)
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            std.shifts.append(zero)
            for sign in (1, -1):
                var_cols[j].append((len(std.cols), sign))
                std.cols.append((j, sign))
        elif hi is None:
            std.shifts.append(lo)
            var_cols[j].append((len(std.cols), 1))
            std.cols.append((j, 1))
        elif lo is None:
            std.shifts.append(hi)
            var_cols[j].append((len(std.cols), -1))
            std.cols.append((j, -1))
        else:
            std.shifts.append(lo)
            var_cols[j].append((len(std.cols), 1))
            bound_rows.append((len(std.cols), hi - lo))
            std.cols.append((j, 1))

    width = len(std.cols)
    for i, row in enumerate(a):
        coeffs = [zero] * width
        shift_term = zero
        for j, v in enumerate(row):
            if v == zero:
                continue
            shift_term += v * std.shifts[j]
            for col, sign in var_cols[j]:
                coeffs[col] = v if sign == 1 else -v
        std.rows.append(coeffs)
        std.rhs.append(b[i] - shift_term)
        std.senses.append(senses[i])
        std.origin.append(i)
        std.negated.append(False)
    for col, width_val in bound_rows:
        coeffs = [zero] * width
        coeffs[col] = zero + 1
        std.rows.append(coeffs)
        std.rhs.append(width_val)
        std.senses.append(LE)
        std.origin.append(None)
        std.negated.append(False)

    flip = {LE: GE, GE: LE, EQ: EQ}
    for i in range(len(std.rows)):
        if std.rhs[i] < zero:
            std.rows[i] = [-v for v in std.rows[i]]
            std.rhs[i] = -std.rhs[i]
            std.senses[i] = flip[std.senses[i]]
            std.negated[i] = True
    return std, var_cols


def _pivot(tab, rhs, z, basis, row, col):
    piv = tab[row][col]
    prow = tab[row] = [v / piv for v in tab[row]]
    rhs[row] = rhs[row] / piv
    for r, other in enumerate(tab):
        if r == row:
            continue
        factor = other[col]
        if factor == 0:
            continue
        tab[r] = [u - factor * v for u, v in zip(other, prow)]
        tab[r][col] = 0 * factor
        rhs[r] -= factor * rhs[row]
    factor = z[col]
    if factor != 0:
        for j, v in enumerate(prow):
            z[j] -= factor * v
        z[col] = 0 * factor
    basis[row] = col


def _reduced_costs(tab, basis, costs):
    z = list(costs)
    for i, bcol in enumerate(basis):
        cb = costs[bcol]
        if cb == 0:
            continue
        row = tab[i]
        for j in range(len(z)):
            z[j] -= cb * row[j]
    return z


def _run_simplex(tab, rhs, z, basis, barred, cmp):
    """Bland's rule: lowest-index entering column, lowest-index basis
    variable among minimum-ratio rows."""
    ncols = len(z)
    for _ in range(_MAX_PIVOTS):
        enter = None
        for j in range(ncols):
            if j in barred:
                continue
            if cmp.neg(z[j]):
                enter = j
                break
        if enter is None:
            return OPTIMAL, None
        leave = None
        best = None
        for i, row in enumerate(tab):
            t = row[enter]
            if cmp.pos(t):
                ratio = rhs[i] / t
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED, enter
        _pivot(tab, rhs, z, basis, leave, enter)
    raise RuntimeError("simplex pivot limit exceeded")


class _FloatTableau:
    """Float rows with a separate rhs column, pivoted by `_pivot`."""

    def __init__(self, rows, rhs, cmp):
        self.rows = rows
        self.rhs = list(rhs)
        self.cmp = cmp
        self.z = None

    def price(self, basis, costs):
        self.z = _reduced_costs(self.rows, basis, costs)

    def run(self, basis, barred):
        return _run_simplex(self.rows, self.rhs, self.z, basis, barred, self.cmp)

    def pivot(self, basis, row, col):
        _pivot(self.rows, self.rhs, self.z, basis, row, col)

    def nonzero(self, i, j) -> bool:
        return not self.cmp.zero(self.rows[i][j])

    def entry(self, i, j):
        return self.rows[i][j]

    def value(self, i):
        return self.rhs[i]

    def keep(self, alive):
        self.rows = [self.rows[i] for i in alive]
        self.rhs = [self.rhs[i] for i in alive]


def _divide(values, g):
    return values if g == 1 else [v // g for v in values]


class _IntTableau:
    """Fraction-free exact tableau (Edmonds 1967; Bareiss 1968).

    Row i is a list of ints N_i, its rhs last, over a denominator
    d_i > 0: the tableau row it stands for is N_i / d_i.  Each updated row
    is divided by gcd(d_i, *N_i), one C-level gcd instead of one per
    entry.  Positive row scaling changes no sign and no ratio, so Bland's
    rule pivots exactly as it would over Fractions.  The reduced costs z
    are kept up to a positive factor, since only their signs are read.
    """

    def __init__(self, rows, rhs):
        self.rows = []
        self.dens = []
        for row, b in zip(rows, rhs):
            ints, den = over_common_denominator(row + [b])
            self.rows.append(ints)
            self.dens.append(den)
        self.z = None

    def price(self, basis, costs):
        z, _ = over_common_denominator(costs)
        for row, d, col in zip(self.rows, self.dens, basis):
            f = z[col]
            if f:
                z = [d * u - f * v for u, v in zip(z, row)]
        self.z = _divide(z, math.gcd(*z) or 1)

    def run(self, basis, barred):
        """Bland's rule as in `_run_simplex`; the ratio test compares
        N_i[-1] / N_i[enter] by cross-multiplying, d_i cancels."""
        rows = self.rows
        for _ in range(_MAX_PIVOTS):
            enter = next((j for j, v in enumerate(self.z) if v < 0 and j not in barred), None)
            if enter is None:
                return OPTIMAL, None
            leave = None
            for i, row in enumerate(rows):
                t = row[enter]
                if t <= 0:
                    continue
                if leave is None:
                    leave = i
                    continue
                lhs, rhs = row[-1] * rows[leave][enter], rows[leave][-1] * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
            if leave is None:
                return UNBOUNDED, enter
            self.pivot(basis, leave, enter)
        raise RuntimeError("simplex pivot limit exceeded")

    def pivot(self, basis, row, col):
        prow = self.rows[row]
        if prow[col] < 0:  # artificial removal may pivot on a negative entry
            prow = [-v for v in prow]
        prow = _divide(prow, math.gcd(*prow))
        p = prow[col]
        self.rows[row] = prow
        self.dens[row] = p
        for i, other in enumerate(self.rows):
            f = other[col]
            if f == 0 or i == row:
                continue
            new = [p * u - f * v for u, v in zip(other, prow)]
            d = self.dens[i] * p
            g = math.gcd(d, *new)
            self.rows[i] = _divide(new, g)
            self.dens[i] = d // g
        f = self.z[col]
        if f:
            z = [p * u - f * v for u, v in zip(self.z, prow)]
            self.z = _divide(z, math.gcd(*z) or 1)
        basis[row] = col

    def nonzero(self, i, j) -> bool:
        return self.rows[i][j] != 0

    def entry(self, i, j) -> Fraction:
        return Fraction(self.rows[i][j], self.dens[i])

    def value(self, i) -> Fraction:
        return Fraction(self.rows[i][-1], self.dens[i])

    def keep(self, alive):
        self.rows = [self.rows[i] for i in alive]
        self.dens = [self.dens[i] for i in alive]


def solve(lp: LinearProgram, mode: NumericMode = EXACT) -> LpSolution:
    """Two-phase simplex.  Deterministic for identical inputs."""
    _validate(lp)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("solving LP:\n%s", format_lp(lp))
    c, a, b, bounds = _coerce_lp(lp, mode)
    cmp = _Cmp(mode)
    zero = ZERO if mode.exact else 0.0

    for lo, hi in bounds:
        if lo is not None and hi is not None and lo > hi:
            # Empty variable box: infeasibility is self-evident, no row
            # combination is needed.
            return LpSolution(
                status=INFEASIBLE,
                certificate=FarkasCertificate(tuple(zero for _ in lp.matrix)),
            )

    std, var_cols = _standardize(c, a, b, lp.senses, bounds, zero)
    m = len(std.rows)
    n_struct = len(std.cols)

    slack_of_row = {}
    art_of_row = {}
    ncols = n_struct
    for i, sense in enumerate(std.senses):
        if sense in (LE, GE):
            slack_of_row[i] = ncols
            ncols += 1
    art_first = ncols
    for i, sense in enumerate(std.senses):
        if sense in (GE, EQ):
            art_of_row[i] = ncols
            ncols += 1

    rows = []
    for i in range(m):
        row = list(std.rows[i]) + [zero] * (ncols - n_struct)
        if i in slack_of_row:
            row[slack_of_row[i]] = zero + (1 if std.senses[i] == LE else -1)
        if i in art_of_row:
            row[art_of_row[i]] = zero + 1
        rows.append(row)
    basis = [art_of_row.get(i, slack_of_row.get(i)) for i in range(m)]
    pristine = [row[:] for row in rows]
    tab = _IntTableau(rows, std.rhs) if mode.exact else _FloatTableau(rows, std.rhs, cmp)

    # Phase 1: drive the artificial variables to zero.
    art_cols = set(art_of_row.values())
    costs1 = [zero] * ncols
    for jcol in art_cols:
        costs1[jcol] = zero + 1
    tab.price(basis, costs1)
    status, _ = tab.run(basis, barred=frozenset())
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
        raise RuntimeError("phase 1 cannot be unbounded")
    scale = 1 + sum(abs(v) for v in std.rhs)
    phase1_value = sum(tab.value(i) for i in range(m) if basis[i] in art_cols)
    infeasible = phase1_value > 0 if mode.exact else phase1_value > cmp.tol * scale
    if infeasible:
        y_std = _basis_duals(pristine, basis, costs1, mode)
        y = share_zero(_map_duals(y_std, std, len(lp.matrix)), mode)
        return LpSolution(status=INFEASIBLE, certificate=FarkasCertificate(y))

    # Remove artificial variables from the basis.  A tableau row that is
    # zero outside the artificial columns is redundant: drop it, and with
    # it the original row whose artificial is basic there, so the basis
    # left for the duals stays square and nonsingular.
    row_of_art = {col: i for i, col in art_of_row.items()}
    dead = {}  # tableau row -> original row
    for i in range(m):
        if basis[i] not in art_cols:
            continue
        enter = next((j for j in range(art_first) if tab.nonzero(i, j)), None)
        if enter is None:
            dead[i] = row_of_art[basis[i]]
        else:
            tab.pivot(basis, i, enter)
    if dead:
        gone = set(dead.values())
        tab.keep([i for i in range(m) if i not in dead])
        basis = [v for i, v in enumerate(basis) if i not in dead]
        pristine = [row for i, row in enumerate(pristine) if i not in gone]
        std.origin = [v for i, v in enumerate(std.origin) if i not in gone]
        std.negated = [v for i, v in enumerate(std.negated) if i not in gone]
        m = len(basis)

    # Phase 2: the real objective over structural columns.
    costs2 = [zero] * ncols
    for col, (j, sign) in enumerate(std.cols):
        costs2[col] = c[j] if sign == 1 else -c[j]
    tab.price(basis, costs2)
    status, enter = tab.run(basis, barred=frozenset(art_cols))

    if status == UNBOUNDED:
        direction_std = [zero] * n_struct
        if enter < n_struct:
            direction_std[enter] = zero + 1
        for i in range(m):
            bcol = basis[i]
            if bcol < n_struct:
                direction_std[bcol] = -tab.entry(i, enter)
        ray = [zero] * lp.n_vars
        for j in range(lp.n_vars):
            for col, sign in var_cols[j]:
                ray[j] += direction_std[col] if sign == 1 else -direction_std[col]
        return LpSolution(status=UNBOUNDED, certificate=UnboundedRay(tuple(ray)))

    x_std = [zero] * ncols
    for i in range(m):
        x_std[basis[i]] = tab.value(i)
    primal = []
    for j in range(lp.n_vars):
        value = std.shifts[j]
        for col, sign in var_cols[j]:
            value = value + (x_std[col] if sign == 1 else -x_std[col])
        primal.append(value)
    objective = sum((cj * xj for cj, xj in zip(c, primal)), zero)
    y_std = _basis_duals(pristine, basis, costs2, mode)
    duals = share_zero(_map_duals(y_std, std, len(lp.matrix)), mode)
    y = _multipliers(lp, duals, mode)
    dual_obj = _support(c, a, b, bounds, y, cmp, with_objective=True)
    return LpSolution(
        status=OPTIMAL,
        primal=share_zero(primal, mode),
        objective_value=objective,
        certificate=DualCertificate(duals, dual_obj),
    )


def _basis_duals(pristine, basis, costs, mode):
    """Solve Bᵀ y = c_B against the unpivoted column data."""
    m = len(basis)
    rows = [[pristine[i][basis[k]] for i in range(m)] for k in range(m)]
    rhs = [costs[basis[k]] for k in range(m)]
    if m == 0:
        return []
    return linalg.solve_square(rows, rhs, mode)


def _map_duals(y_std, std, n_orig_rows):
    zero = 0 * (y_std[0] if y_std else 0)
    duals = [zero] * n_orig_rows
    for k, y in enumerate(y_std):
        orig = std.origin[k]
        if orig is None:
            continue
        duals[orig] = -y if std.negated[k] else y
    return tuple(duals)


def check_feasible(lp: LinearProgram, mode: NumericMode = EXACT):
    """Feasibility via a zero objective.

    Returns (True, witness point) or (False, Farkas certificate).  An
    unbounded zero-objective solve cannot report a vertex and is treated
    as feasible without a witness.
    """
    zero_obj = LinearProgram(
        objective=tuple(0 for _ in lp.objective),
        matrix=lp.matrix,
        rhs=lp.rhs,
        senses=lp.senses,
        bounds=lp.bounds,
    )
    sol = solve(zero_obj, mode)
    if sol.status == OPTIMAL:
        return True, sol.primal
    if sol.status == UNBOUNDED:  # pragma: no cover - zero objective never is
        return True, None
    return False, sol.certificate


def _multipliers(lp: LinearProgram, multipliers, mode: NumericMode) -> list:
    conv = as_exact if mode.exact else as_float
    y = [conv(v) for v in multipliers]
    if len(y) != lp.n_rows:
        raise LpInputError("multiplier count does not match the row count")
    return y


def _aggregate(a, b, y, n_vars, zero):
    """(yᵀA, yᵀb) over the converted rows, skipping zero multipliers."""
    w = [zero] * n_vars
    beta = zero
    for yi, row, bi in zip(y, a, b):
        if not yi:
            continue
        w = [wj + yi * aij for wj, aij in zip(w, row)]
        beta += yi * bi
    return w, beta


def aggregate_row(lp: LinearProgram, multipliers, mode: NumericMode = EXACT):
    """Combine rows with the given multipliers: returns (w, beta) with
    w = yᵀA and beta = yᵀb."""
    _, a, b, _ = _coerce_lp(lp, mode)
    y = _multipliers(lp, multipliers, mode)
    return _aggregate(a, b, y, lp.n_vars, ZERO if mode.exact else 0.0)


def _support(c, a, b, bounds, y, cmp, with_objective):
    """yᵀb plus the box-infimum of (c − yᵀA)·x over the converted LP; None
    when the infimum diverges."""
    w, beta = _aggregate(a, b, y, len(c), ZERO if cmp.exact else 0.0)
    total = beta
    for j, (cj, wj) in enumerate(zip(c, w)):
        coeff = (cj - wj) if with_objective else -wj
        if cmp.zero(coeff):
            continue
        lo, hi = bounds[j]
        if coeff > 0:
            if lo is None:
                return None
            total += coeff * lo
        else:
            if hi is None:
                return None
            total += coeff * hi
    return total


def _support_value(lp, multipliers, mode, with_objective):
    c, a, b, bounds = _coerce_lp(lp, mode)
    y = _multipliers(lp, multipliers, mode)
    return _support(c, a, b, bounds, y, _Cmp(mode), with_objective)


def dual_objective(lp: LinearProgram, multipliers, mode: NumericMode = EXACT):
    """Lagrangian dual value of the row duals; equals the primal objective
    at optimality (weak duality gives <= everywhere)."""
    return _support_value(lp, multipliers, mode, with_objective=True)


def farkas_gap(lp: LinearProgram, multipliers, mode: NumericMode = EXACT):
    """Positive gap == valid infeasibility witness: every x in the box
    violates the aggregated row by at least this amount."""
    return _support_value(lp, multipliers, mode, with_objective=False)


def farkas_signs_ok(lp: LinearProgram, multipliers) -> bool:
    for y, sense in zip(multipliers, lp.senses):
        if sense == LE and y > 0:
            return False
        if sense == GE and y < 0:
            return False
    return True


def constraint_residuals(lp: LinearProgram, point, mode: NumericMode = EXACT):
    """Per-row a·x − b."""
    _, a, b, _ = _coerce_lp(lp, mode)
    conv = as_exact if mode.exact else as_float
    x = [conv(v) for v in point]
    if len(x) != lp.n_vars:
        raise LpInputError("point length does not match the variable count")
    return tuple(
        sum((a[i][j] * x[j] for j in range(lp.n_vars)), 0 * conv(0)) - b[i]
        for i in range(lp.n_rows)
    )


def satisfies(lp: LinearProgram, point, mode: NumericMode = EXACT) -> bool:
    """Whole-program feasibility of a point (rows and bounds)."""
    cmp = _Cmp(mode)
    res = constraint_residuals(lp, point, mode)
    for r, sense in zip(res, lp.senses):
        if sense == LE and cmp.pos(r):
            return False
        if sense == GE and cmp.neg(r):
            return False
        if sense == EQ and not cmp.zero(r):
            return False
    conv = as_exact if mode.exact else as_float
    for v, (lo, hi) in zip(point, lp.bounds):
        x = conv(v)
        if lo is not None and cmp.neg(x - conv(lo)):
            return False
        if hi is not None and cmp.pos(x - conv(hi)):
            return False
    return True


def format_lp(lp: LinearProgram) -> str:
    """Plain-text standard-form listing (debugging aid)."""
    sense_sym = {LE: "<=", EQ: "=", GE: ">="}
    lines = ["min " + " + ".join(f"{c}*x{j}" for j, c in enumerate(lp.objective))]
    lines.append("s.t.")
    for i, row in enumerate(lp.matrix):
        terms = " + ".join(f"{v}*x{j}" for j, v in enumerate(row))
        lines.append(f"  r{i}: {terms} {sense_sym[lp.senses[i]]} {lp.rhs[i]}")
    lines.append("bounds")
    for j, (lo, hi) in enumerate(lp.bounds):
        lo_s = "-inf" if lo is None else str(lo)
        hi_s = "+inf" if hi is None else str(hi)
        lines.append(f"  x{j} in [{lo_s}, {hi_s}]")
    return "\n".join(lines)
