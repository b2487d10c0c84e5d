"""Self-contained two-phase simplex with exact-rational and float backends.

The solver is small and dense on purpose: every decision procedure in the
package reduces to LPs with at most a few dozen rows and columns, and the
questions they encode (hull membership, separation, optimality) are exact
set statements.  One Bland's-rule driver (`_bland`) runs both phases of
an LP over either of two tableaux, which supply only their arithmetic:
pricing, pivoting, the entering-column scan and the ratio test.  The
scan runs up to a column limit: every column in phase 1, the columns
below the first artificial in phase 2.  Bland's rule keeps the pivot
sequence finite, and all tie-breaking is by lowest index, so outputs are
deterministic.

The exact tableau pivots fraction-free: each row is a list of integers
over one positive row denominator, reduced by a single gcd per updated
row (see `_IntTableau`).  Scaling a row by a positive factor changes no
sign and no ratio, so Bland's rule makes the same pivots as over
rationals, and the vertex and certificates are those of a `Fraction`
tableau.  It has one column per LP variable and one per row, read as the
standard-form columns through a map (`_Std.vmap`): the two halves of a
free variable, and a row's slack and artificial, are negatives of each
other, and pivots keep them so.  A row stores only the nonbasic columns
and the rhs: a basic column is ±d_i in its own row and 0 in the others,
and a pivot swaps the leaving column into the entering one's place.
`_standardize` converts each row and its rhs once into the tableau's own
numbers: in exact mode ints over one row denominator, by
`NumericMode.scaled`; in float mode the whole LP at once into one
float64 array, by the same rules, with the column split, the row
negation and the slack and artificial columns applied to the array, so
that every entry is the one a row-by-row set-up gives, the sign of each
zero included.  Rationals appear only at the edges: the objective and
bounds, and the basic values, rays and multipliers read out.  The exact
reduced costs are integers over one denominator, so the simplex
multipliers are read off the final tableau (Chvátal 1983, ch. 10): at
the optimum they are the duals, at an infeasible phase 1 the Farkas
multipliers, and no basis is solved.  Every zero in an exact answer is
the shared `numeric.ZERO`.

The float tableau is one float64 array with the rhs as its last column,
and its sign tests use a tolerance.  A float pivot is one masked rank-1
update of the rows with a nonzero in the pivot column: the same IEEE
multiply and subtract per entry, in the same order, as a row-by-row
update, so the answers are those of plain float rows, bit for bit.  Its
reduced costs are one float64 vector that each pivot updates in place
with the same operations, and numpy scans it for the entering column.
They carry rounding, so the tableau keeps a copy of its unpivoted array,
and the float multipliers solve Bᵀy = c_B on its basis columns with
`linalg.solve_square`.

`check_feasible_many` decides a batch of LPs.  In float mode, two or
more LPs whose standard forms have one shape run phase 1 in lockstep
(`_lockstep`): their tableaux are one (k, m, w + 1) float64 array and
their reduced costs one (k, w) array.  Each step makes, for every LP
still running, the entering column, ratio ties, leaving row and pivot
that `_bland` makes over its `_FloatTableau`, with the same IEEE
operations per entry, so each LP ends phase 1 bit for bit as it would
alone.  The rest of `solve` (`_finish`: the infeasibility test,
artificial removal, phase 2, the readout and the duals) then runs per
LP, only when its answer is drawn.  A lone float LP keeps the 2D
tableau: a stack of one costs about 2.6 times as much per LP.  Exact
LPs are solved one at a time.

A `LinearProgram` is validated once, when it is constructed.

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

import numpy as np

from . import linalg
from .numeric import (
    EXACT, FLOAT, NumericMode, as_exact, over_common_denominator, parse_rational,
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

# Pivots per phase.  Bland's rule cannot cycle with exact sign tests, but
# float drift can make it run on.  The largest count of any LP that
# finishes in the benchmark's first passes (seeds 1-10, all workloads) is
# 477, on an 81-row float optimality LP.  The limit is ten times that,
# rounded up: room for larger LPs, while a run-away float LP still stops
# in well under a second.
_MAX_PIVOTS = 5_000


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
        return LinearProgram(objective, matrix, rhs, senses, bounds)

    def __post_init__(self):
        _validate(self)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.matrix)


def _check_finite(values, where):
    """Raise LpInputError at the first float NaN or infinity in `values`;
    `where(k)` names the place of entry k.  A finite `fsum`, one C-level
    pass, clears a vector that starts with a float; anything else is tested
    entry by entry (on Fractions `fsum` is slower than this loop)."""
    if isinstance(next(iter(values), None), float):
        try:
            if math.isfinite(math.fsum(values)):
                return
        except (TypeError, OverflowError, ValueError):
            pass
    for k, v in enumerate(values):
        if isinstance(v, float) and not math.isfinite(v):
            raise LpInputError(f"non-finite coefficient in {where(k)}: {v!r}")


def _validate(lp: LinearProgram):
    n = lp.n_vars
    if len(lp.rhs) != lp.n_rows or len(lp.senses) != lp.n_rows:
        raise LpInputError("rhs/senses length does not match the constraint count")
    for i, row in enumerate(lp.matrix):
        if len(row) != n:
            raise LpInputError(f"constraint row {i} has {len(row)} coefficients, expected {n}")
        _check_finite(row, lambda k: f"row {i}")
    _check_finite(lp.objective, lambda k: "objective")
    _check_finite(lp.rhs, lambda k: "rhs")
    if len(lp.bounds) != n:
        raise LpInputError("bounds length does not match the variable count")
    _check_finite([v for box in lp.bounds for v in box],
                  lambda k: f"bounds of variable {k // 2}")
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is not None and hi is not None and _rational(lo) > _rational(hi):
            raise LpInputError(f"empty box for variable {j}: lower bound {lo} > upper bound {hi}")


def _rational(value):
    """A bound as a number that compares exactly: strings are parsed."""
    return parse_rational(value) if isinstance(value, str) else value


@dataclass(frozen=True)
class DualCertificate:
    """Row duals of an optimal solution; dual_objective matches the primal."""

    row_duals: tuple
    dual_objective: object


@dataclass(frozen=True)
class FarkasCertificate:
    """Row multipliers y witnessing infeasibility: y ≤ 0 on le rows, y ≥ 0
    on ge rows, and yᵀb above the supremum of yᵀA·x over the variable box."""

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


class _Std:
    """Standard form in the tableau's own numbers: nonnegative columns, and
    equality rows with their slack and artificial columns.

    Free variables split into nonnegative pairs; finite lower/upper bounds
    become shifts/reflections, two-sided bounds add an explicit row.  Each
    row, rhs last, is negated if that rhs is negative.  In float mode
    `rows` is one float64 array of shape (rows, width + 1), its slack
    entries ±1.0 and its artificial entries 1.0, and `dens` is None.  In
    exact mode row i is a list of ints over dens[i], [a_i1 … a_in | b_i]
    for n LP variables, and standard-form column j is s times stored
    column k for (k, s) = vmap[j]: column (v, ±1) of variable v is
    ±column v, row i's slack is ±column n + i (+ for le, − for ge) and its
    artificial is column n + i, which is basic in row i, dens[i] there and
    0 elsewhere, and so not stored (see `_IntTableau`).  units[i] is the
    (column, ±1) of row i's slack, or of its artificial if it has none,
    and basis[i] starts at its artificial, or at its slack if it has
    none: +1 times column n + i.
    """

    __slots__ = ("cols", "var_cols", "shifts", "rows", "dens", "origin", "negated",
                 "basis", "units", "art_first", "width", "vmap")


def _standardize(lp: LinearProgram, bounds, mode: NumericMode) -> _Std:
    std = _Std()
    zero = mode.zero
    std.cols = []       # (orig var index, +1 | -1)
    std.shifts = []     # per orig var
    var_cols = std.var_cols = [[] for _ in bounds]
    boxes = []  # (var, upper bound) of the two-sided boxes
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
            boxes.append((j, hi))
            std.cols.append((j, 1))

    # Each row, a box x_j <= hi among them, is converted once with its rhs.
    n = len(bounds)
    rows = [*zip(lp.matrix, lp.rhs),
            *(([int(k == j) for k in range(n)], hi) for j, hi in boxes)]
    if mode.exact:
        coeffs, std.dens, std.negated = _exact_rows(rows, std.shifts)
    else:
        coeffs, std.negated = _float_rows(rows, std)
        std.dens = None
    flip = {LE: GE, GE: LE, EQ: EQ}
    senses = [flip[sense] if negated else sense for sense, negated in
              zip([*lp.senses, *[LE] * len(boxes)], std.negated)]

    n_struct = len(std.cols)
    std.art_first = n_struct + sum(sense != EQ for sense in senses)
    std.width = std.art_first + sum(sense != LE for sense in senses)
    std.origin = list(range(lp.n_rows)) + [None] * len(boxes)
    std.basis, std.units, entries = [], [], []
    slack, art = n_struct, std.art_first
    for i, sense in enumerate(senses):
        added = []  # (column, sign) of the slack, then of the artificial
        if sense != EQ:
            added.append((slack, 1 if sense == LE else -1))
            slack += 1
        if sense != LE:
            added.append((art, 1))
            art += 1
        entries += [(i, col, sign) for col, sign in added]
        std.basis.append(added[-1][0])
        std.units.append(added[0])
    std.vmap = std.cols + [None] * (std.width - n_struct)
    for i, col, sign in entries:
        std.vmap[col] = (n + i, sign)
    if mode.exact:
        std.rows = coeffs
    else:
        std.rows = np.zeros((len(senses), std.width + 1))
        std.rows[:, :n_struct] = coeffs[:, :-1]
        std.rows[:, -1] = coeffs[:, -1]
        if entries:
            i, col, sign = zip(*entries)
            std.rows[i, col] = sign
    return std


def _exact_rows(rows, shifts):
    """(rows, dens, negated) of an exact LP: each row as ints over its lcm
    denominator dens[i], one per LP variable and the rhs last, negated
    when that rhs is negative.  The shifts move the rhs first."""
    shifted = [j for j, s in enumerate(shifts) if s]
    out, dens, negated = [], [], []
    for row, b in rows:
        term = sum(v * shifts[j] for j in shifted if (v := as_exact(row[j])))
        nums, den = over_common_denominator([*row, as_exact(b) - term if term else b])
        negated.append(nums[-1] < 0)
        out.append([-v for v in nums] if nums[-1] < 0 else nums)
        dens.append(den)
    return out, dens, negated


def _float_rows(rows, std):
    """(rows, negated) of a float LP: one float64 array of the structural
    rows, rhs last, each row negated whole (its zeros become -0.0) when its
    rhs is negative.  The shifts move the rhs first, summed left to right
    over the shifted columns.  A zero coefficient is +0.0 in both halves
    of a split column, whatever its sign in the LP."""
    a = _float64([(*row, b) for row, b in rows], (len(rows), len(std.var_cols) + 1))
    shifted = [j for j, s in enumerate(std.shifts) if s]
    if shifted:
        # A zero product leaves the sum unchanged: it starts at +0.0 and
        # never becomes -0.0.
        term = np.zeros(len(a))
        for j in shifted:
            term = term + a[:, j] * std.shifts[j]
        a[:, -1] -= term
    split = a[:, [j for j, _ in std.cols]]
    signs = np.array([sign for _, sign in std.cols], dtype=float)
    out = np.empty((len(a), len(std.cols) + 1))
    out[:, :-1] = np.where(split != 0, split * signs, 0.0)
    out[:, -1] = a[:, -1]
    negated = out[:, -1] < 0
    out[negated] = -out[negated]
    return out, negated.tolist()


def _float64(rows, shape):
    """`rows` as a float64 array of `shape`, each entry read as
    `NumericMode.scaled` reads it in float mode: a float as it is, an int
    through `float`, a Fraction as numerator / denominator, and anything
    else (strings) through `as_float`."""
    array = np.array(rows)
    if array.dtype.kind not in "biuf" or array.shape != shape:  # Fractions, strings, huge ints
        array = np.array([FLOAT.scaled(row)[0] for row in rows])
    return array.astype(float, copy=False).reshape(shape)
def _bland(tab, basis, limit):
    """Bland's rule (Bland 1977), the one pivot loop of both phases and
    both tableaux: the lowest-index column below `limit` with a negative
    reduced cost enters, and of the rows at the minimum ratio the one
    whose basic variable has the lowest index leaves.  Returns
    (OPTIMAL, None) or (UNBOUNDED, entering column)."""
    for _ in range(_MAX_PIVOTS):
        enter = tab.entering(limit)
        if enter is None:
            return OPTIMAL, None
        ties = tab.ratio_ties(enter)
        if not ties:
            return UNBOUNDED, enter
        tab.pivot(basis, min(ties, key=basis.__getitem__), enter)
    raise RuntimeError("simplex pivot limit exceeded")


class _FloatTableau:
    """One float64 array, a row per constraint and the rhs last; entries
    within `tol` of zero count as zero.  A pivot divides the pivot row by
    the pivot and applies one masked rank-1 update to the other rows with
    a nonzero in the pivot column.  Each entry gets the same IEEE multiply
    and subtract as in a row-by-row update, and rows with a zero of either
    sign there are not touched, so every -0.0 keeps its sign.  The reduced
    costs z are one float64 vector, updated in place by each pivot.  The
    array is the one `_standardize` built, pivoted in place; a copy of it
    unpivoted is kept for the multipliers (see `duals`)."""

    def __init__(self, rows, tol):
        self.rows = rows
        self.unpivoted = self.rows.copy()
        self.tol = tol
        self.z = None

    def price(self, basis, costs):
        z = np.array(costs, dtype=float)
        for row, col in zip(self.rows, basis):
            cb = costs[col]
            if cb != 0:
                z = z - cb * row[:-1]
        self.z = z

    def entering(self, limit):
        """The lowest column below `limit` whose reduced cost is below
        -tol, or None."""
        neg = (self.z[:limit] < -self.tol).nonzero()[0]
        return int(neg[0]) if len(neg) else None

    def ratio_ties(self, enter):
        """The rows at the minimum ratio rhs / t over entries t > tol, in
        ascending order."""
        column = self.rows[:, enter]
        live = (column > self.tol).nonzero()[0]
        ratios = self.rows[live, -1] / column[live]
        return live[ratios == ratios.min()].tolist() if live.size else []

    def pivot(self, basis, row, col):
        rows = self.rows
        prow = rows[row] = rows[row] / rows[row, col]
        f = rows[:, col].copy()
        f[row] = 0
        idx = f.nonzero()[0]
        f = f[idx]
        rows[idx] -= f[:, None] * prow
        rows[idx, col] = 0 * f
        z = self.z
        f = z[col]
        if f != 0:
            z -= f * prow[:-1]
            z[col] = 0 * f
        basis[row] = col

    def nonzero(self, i, j) -> bool:
        return not -self.tol <= self.rows[i, j] <= self.tol

    def entry(self, i, j) -> float:
        return float(self.rows[i, j])

    def value(self, i) -> float:
        return float(self.rows[i, -1])

    def keep(self, dead):
        """Drop the tableau rows `dead`, and from the unpivoted copy the
        original rows whose artificials were basic there."""
        self.rows = np.delete(self.rows, list(dead), axis=0)
        self.unpivoted = np.delete(self.unpivoted, list(dead.values()), axis=0)

    def duals(self, basis, costs, units):
        """Solve Bᵀy = c_B on the basis columns of the unpivoted rows."""
        if not basis:
            return []
        return linalg.solve_square(self.unpivoted[:, basis].T,
                                   [costs[j] for j in basis], FLOAT)


def _divide(values, g):
    return values if g == 1 else [v // g for v in values]


class _IntTableau:
    """Fraction-free exact tableau (Edmonds 1967; Bareiss 1968) in
    dictionary form (Chvátal 1983, ch. 2–3).

    Row i is a list of ints N_i, its rhs last, over a denominator
    d_i > 0: the tableau row it stands for is N_i / d_i.  Standard-form
    column j is s times stored column k for (k, s) = vmap[j] (see
    `_Std`).  A row stores only the nonbasic stored columns, column k at
    position slot[k], None while k is basic.  basic[i] is the column
    basic in row i, bsign[i]·d_i there and 0 in every other row, where
    bsign[i] is the s of the standard-form column basic there (a basic ge
    slack is −d_i).  A pivot on column k at position q puts the
    leaving column at q and updates the rows with a nonzero there.  The
    implied entries add only d_i to a row's gcd, so each updated row is
    divided by gcd(d_i, *N_i), one C-level gcd, which is the full
    standard-form row's, twins included.  Positive row scaling changes no
    sign and no ratio, so Bland's rule pivots exactly as it would over
    Fractions.  The reduced costs are the ints z over one denominator
    zd > 0, one per standard-form column, reduced by gcd(zd, *z), so the
    simplex multipliers can be read off them (see `duals`).
    """

    def __init__(self, rows, dens, vmap):
        self.rows, self.dens, self.vmap = rows, dens, vmap
        self.std_cols = [[] for _ in range(1 + max((k for k, _ in vmap), default=-1))]
        for j, (k, s) in enumerate(vmap):
            self.std_cols[k].append((j, s))
        n = len(self.std_cols) - len(rows)
        self.basic = list(range(n, len(self.std_cols)))
        self.bsign = [1] * len(rows)
        self.slot = [*range(n), *[None] * len(rows)]
        # (position, sign) per standard-form column; a basic one reads 0·rhs
        self.view = [(k, s) if k < n else (-1, 0) for k, s in vmap]
        self.z, self.zd = None, 1

    def _std(self, i):
        """Row i over the standard-form columns, rhs dropped."""
        row, e = self.rows[i], self.bsign[i] * self.dens[i]
        out = [s * row[q] for q, s in self.view]
        for j, s in self.std_cols[self.basic[i]]:
            out[j] = s * e
        return out

    def _at(self, i, j):
        """The numerator of standard-form column j in row i."""
        k, s = self.vmap[j]
        if self.slot[k] is None:
            return s * self.bsign[i] * self.dens[i] if self.basic[i] == k else 0
        return s * self.rows[i][self.slot[k]]

    def _set_z(self, z, zd):
        g = math.gcd(zd, *z)
        self.z, self.zd = _divide(z, g), zd // g

    def price(self, basis, costs):
        z, zd = EXACT.scaled(costs)
        for i, (d, col) in enumerate(zip(self.dens, basis)):
            f = z[col]
            if f:
                z = [d * u - f * v for u, v in zip(z, self._std(i))]
                zd *= d
        self._set_z(z, zd)

    def entering(self, limit):
        """The lowest column below `limit` with a negative reduced cost, or
        None."""
        return next((j for j, v in enumerate(self.z[:limit]) if v < 0), None)

    def ratio_ties(self, enter):
        """The rows at the minimum ratio N_i[-1] / t_i over positive entries
        t_i of column `enter`, compared by cross-multiplying: d_i cancels.
        `enter` is never basic nor a basic column's twin, whose reduced
        cost is 0, or 1 for a slack and its artificial."""
        k, s = self.vmap[enter]
        q = self.slot[k]
        rows = self.rows
        ties = []
        for i, row in enumerate(rows):
            t = s * row[q]
            if t <= 0:
                continue
            if ties:
                lead = rows[ties[0]]
                lhs, rhs = row[-1] * s * lead[q], lead[-1] * t
                if lhs > rhs:
                    continue
                if lhs == rhs:
                    ties.append(i)
                    continue
            ties = [i]
        return ties

    def pivot(self, basis, row, col):
        k, s = self.vmap[col]
        q, leave = self.slot[k], self.basic[row]
        prow, lead = self.rows[row], self.bsign[row] * self.dens[row]
        if self._at(row, col) < 0:  # artificial removal may pivot on a negative entry
            prow, lead = [-v for v in prow], -lead
        g = math.gcd(lead, *prow)
        prow, lead = _divide(prow, g), lead // g
        if q is None:  # the twin of the row's basic column enters: no other row moves
            p = s * lead
        else:
            p = s * prow[q]
            prow[q] = lead  # the leaving column takes the entering one's place
            for i, other in enumerate(self.rows):
                f = s * other[q]
                if f == 0 or i == row:
                    continue
                new = [p * u - f * v for u, v in zip(other, prow)]
                new[q] = -f * lead
                d = self.dens[i] * p
                g = math.gcd(d, *new)
                self.rows[i] = _divide(new, g)
                self.dens[i] = d // g
            self.slot[k], self.slot[leave] = None, q
            for j, _ in self.std_cols[k]:
                self.view[j] = (-1, 0)
            for j, sj in self.std_cols[leave]:
                self.view[j] = (q, sj)
        self.rows[row], self.dens[row] = prow, p
        self.basic[row], self.bsign[row] = k, s
        f = self.z[col]
        if f:
            self._set_z([p * u - f * v for u, v in zip(self.z, self._std(row))], self.zd * p)
        basis[row] = col

    def nonzero(self, i, j) -> bool:
        return self._at(i, j) != 0

    def entry(self, i, j) -> Fraction:
        return Fraction(self._at(i, j), self.dens[i])

    def value(self, i) -> Fraction:
        return Fraction(self.rows[i][-1], self.dens[i])

    def keep(self, dead):
        """Drop the tableau rows `dead`, whose basic columns are 0 in the rest."""
        live = [i for i in range(len(self.rows)) if i not in dead]
        self.rows, self.dens, self.basic, self.bsign = [
            [v[i] for i in live] for v in (self.rows, self.dens, self.basic, self.bsign)]

    def duals(self, basis, costs, units):
        """The simplex multipliers y = B⁻ᵀ c_B, read off the reduced costs
        (Chvátal 1983, ch. 10): for (j, s) = units[i], column j is s·e_i in
        the unpivoted rows, so its reduced cost is c_j − s·y_i."""
        zd = self.zd
        return [(costs[j] - Fraction(self.z[j], zd)) / s for j, s in units]


def solve(lp: LinearProgram, mode: NumericMode = EXACT) -> LpSolution:
    """Two-phase simplex.  Deterministic for identical inputs."""
    setup = _Phase1(lp, mode)
    status, _ = _bland(setup.tab, setup.std.basis, setup.std.width)
    return _finish(setup, status)


class _Phase1:
    """An LP set up for phase 1: its objective and bounds in the mode's
    numbers, its standard form, and its tableau priced by `costs`, 1 on
    every artificial column and 0 elsewhere.  `row_of_art` maps each
    artificial column to the row it starts basic in."""

    __slots__ = ("lp", "mode", "c", "bounds", "std", "tab", "costs", "row_of_art")

    def __init__(self, lp: LinearProgram, mode: NumericMode):
        if log.isEnabledFor(logging.DEBUG):
            log.debug("solving LP:\n%s", format_lp(lp))
        conv, zero = mode.convert, mode.zero
        self.lp, self.mode = lp, mode
        self.c = [conv(v) for v in lp.objective]
        self.bounds = [tuple(None if v is None else conv(v) for v in box)
                       for box in lp.bounds]
        std = self.std = _standardize(lp, self.bounds, mode)
        if mode.exact:
            self.tab = _IntTableau(std.rows, std.dens, std.vmap)
        else:
            self.tab = _FloatTableau(std.rows, mode.tolerance)
        self.costs = [zero] * std.art_first + [zero + 1] * (std.width - std.art_first)
        self.row_of_art = {col: i for i, col in enumerate(std.basis) if col >= std.art_first}
        self.tab.price(std.basis, self.costs)


def _finish(setup: _Phase1, status) -> LpSolution:
    """What `solve` does once phase 1 has ended with `status`: the
    infeasibility test, artificial removal, phase 2 and the readout."""
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
        raise RuntimeError("phase 1 cannot be unbounded")
    lp, mode, c, bounds, std, tab = (
        setup.lp, setup.mode, setup.c, setup.bounds, setup.std, setup.tab)
    tol, zero = mode.tolerance, mode.zero
    m, n_struct, ncols = len(std.basis), len(std.cols), std.width
    basis, units = std.basis, std.units
    # The float tolerance grows with the rhs; the exact threshold is 0.
    scale = 1 + sum(map(abs, tab.unpivoted[:, -1].tolist())) if tol else 1
    # Phase 1 leaves every basic value >= 0, so an exact LP is infeasible
    # exactly when a basic artificial has a nonzero rhs.
    arts = [i for i in range(m) if basis[i] >= std.art_first]
    if (any(tab.rows[i][-1] for i in arts) if mode.exact
            else sum(tab.value(i) for i in arts) > tol * scale):
        y_std = tab.duals(basis, setup.costs, units)
        y = mode.share_zero(_map_duals(y_std, std, len(lp.matrix)))
        return LpSolution(status=INFEASIBLE, certificate=FarkasCertificate(y))

    # Remove artificial variables from the basis.  A tableau row that is
    # zero outside the artificial columns is redundant: drop it, and with
    # it the original row whose artificial is basic there, so the basis
    # left for the duals stays square and nonsingular.  The rows left are
    # B'⁻¹ times the kept rows, so the multipliers read off them are those
    # of the kept rows.
    dead = {}  # tableau row -> original row
    for i in arts:
        enter = next((j for j in range(std.art_first) if tab.nonzero(i, j)), None)
        if enter is None:
            dead[i] = setup.row_of_art[basis[i]]
        else:
            tab.pivot(basis, i, enter)
    if dead:
        gone = set(dead.values())
        tab.keep(dead)
        basis = [v for i, v in enumerate(basis) if i not in dead]
        units = [v for i, v in enumerate(units) if i not in gone]
        std.origin = [v for i, v in enumerate(std.origin) if i not in gone]
        std.negated = [v for i, v in enumerate(std.negated) if i not in gone]
        m = len(basis)

    # Phase 2: the real objective over structural columns.
    costs2 = [zero] * ncols
    for col, (j, sign) in enumerate(std.cols):
        costs2[col] = c[j] if sign == 1 else -c[j]
    tab.price(basis, costs2)
    status, enter = _bland(tab, basis, std.art_first)

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
            for col, sign in std.var_cols[j]:
                ray[j] += direction_std[col] if sign == 1 else -direction_std[col]
        return LpSolution(status=UNBOUNDED, certificate=UnboundedRay(tuple(ray)))

    x_std = [zero] * ncols
    for i in range(m):
        x_std[basis[i]] = tab.value(i)
    primal = []
    for j in range(lp.n_vars):
        value = std.shifts[j]
        for col, sign in std.var_cols[j]:
            value = value + (x_std[col] if sign == 1 else -x_std[col])
        primal.append(value)
    objective = sum((cj * xj for cj, xj in zip(c, primal)), zero)
    y_std = tab.duals(basis, costs2, units)
    duals = mode.share_zero(_map_duals(y_std, std, len(lp.matrix)))
    dual_obj = _support(lp, c, bounds, duals, mode)
    return LpSolution(
        status=OPTIMAL,
        primal=mode.share_zero(primal),
        objective_value=objective,
        certificate=DualCertificate(duals, dual_obj),
    )


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
    as feasible without a witness.  An LP whose objective is already zero
    is solved as it is.
    """
    return _feasibility(solve(_zero_objective(lp), mode))


def _zero_objective(lp: LinearProgram) -> LinearProgram:
    if any(lp.objective):
        lp = LinearProgram(tuple(0 for _ in lp.objective), lp.matrix, lp.rhs,
                           lp.senses, lp.bounds)
    return lp


def _feasibility(sol: LpSolution):
    if sol.status == OPTIMAL:
        return True, sol.primal
    if sol.status == UNBOUNDED:  # pragma: no cover - zero objective never is
        return True, None
    return False, sol.certificate


def check_feasible_many(programs, mode: NumericMode = EXACT):
    """`check_feasible` of each program, in order, as an iterator.

    In float mode, two or more LPs whose standard forms have one shape run
    phase 1 together (`_lockstep`) before the first answer is drawn.  Each
    LP is finished (`_finish`) only when its answer is drawn, so a caller
    that stops early skips the phase 2, readout and duals of the rest.  An
    LP's error is raised when its answer is drawn, where a loop over
    `check_feasible` would raise it.  Exact LPs and lone float LPs are
    solved one at a time as `check_feasible` solves them: a stack of one
    costs more per LP than the 2D tableau.
    """
    programs = list(programs)
    if mode.exact:
        return (check_feasible(program, mode) for program in programs)
    setups, statuses, shapes = [], [None] * len(programs), {}
    for k, program in enumerate(programs):
        try:
            setup = _Phase1(_zero_objective(program), mode)
        except Exception as exc:  # raised again when its answer is drawn
            setup, statuses[k] = None, exc
        else:
            shapes.setdefault(setup.tab.rows.shape, []).append(k)
        setups.append(setup)
    for group in shapes.values():
        if len(group) > 1:
            for k, status in zip(group, _lockstep([setups[k] for k in group])):
                statuses[k] = status or RuntimeError("simplex pivot limit exceeded")
    return _answers(setups, statuses)


def _answers(setups, statuses):
    """Finish each set-up LP in turn; a status None runs its phase 1."""
    for setup, status in zip(setups, statuses):
        if isinstance(status, Exception):
            raise status
        if status is None:
            status, _ = _bland(setup.tab, setup.std.basis, setup.std.width)
        yield _feasibility(_finish(setup, status))


def _lockstep(setups):
    """Phase 1 of k float LPs of one standard-form shape, in lockstep on
    one (k, m, w + 1) float64 array, with the reduced costs as one (k, w)
    array.  Each step makes, for every LP still running, the choice and
    the pivot that `_bland` makes over its `_FloatTableau`: the lowest
    column with a reduced cost below -tol enters, the ratio ties are the
    same, the tied row with the lowest basic column leaves, and every
    entry gets the same IEEE divide, multiply and subtract.  A row with a
    zero of either sign in the pivot column is not touched.  Each tableau
    then holds its slice of the stack and each basis its final columns.
    Returns each LP's status: OPTIMAL, UNBOUNDED, or None at the pivot
    limit."""
    tol = setups[0].tab.tol
    rows = np.stack([s.tab.rows for s in setups])
    z = np.stack([s.tab.z for s in setups])
    basis = np.array([s.std.basis for s in setups], dtype=np.intp)
    status = [None] * len(setups)
    live = np.arange(len(setups))
    for _ in range(_MAX_PIVOTS):
        neg = z[live] < -tol
        entering = neg.any(axis=1)
        for t in live[~entering]:
            status[t] = OPTIMAL
        live, enter = live[entering], neg[entering].argmax(axis=1)
        if not live.size:
            break
        column = rows[live, :, enter]
        positive = column > tol
        ratios = np.full(column.shape, np.inf)
        np.divide(rows[live, :, -1], column, out=ratios, where=positive)
        ties = positive & (ratios == ratios.min(axis=1, keepdims=True))
        bounded = ties.any(axis=1)
        for t in live[~bounded]:
            status[t] = UNBOUNDED
        live, enter, ties, f = live[bounded], enter[bounded], ties[bounded], column[bounded]
        leave = np.where(ties, basis[live], rows.shape[2]).argmin(axis=1)
        a = np.arange(live.size)
        prow = rows[live, leave] / f[a, leave][:, None]
        rows[live, leave] = prow
        # f is the pivot column read before the pivot row was divided: the
        # other rows' entries are those the update reads.
        f[a, leave] = 0
        k, i = f.nonzero()
        f = f[k, i]
        rows[live[k], i] -= f[:, None] * prow[k]
        rows[live[k], i, enter[k]] = 0 * f
        # The entering reduced cost is below -tol, so never zero.
        f = z[live, enter]
        z[live] -= f[:, None] * prow[:, :-1]
        z[live, enter] = 0 * f
        basis[live, leave] = enter
    for t, s in enumerate(setups):
        s.tab.rows, s.tab.z = rows[t], z[t]
        s.std.basis[:] = basis[t].tolist()
    return status


def _support(lp, c, bounds, y, mode):
    """yᵀb plus the box-infimum of (c − yᵀA)·x, reading and converting only
    the rows with a nonzero multiplier; None when the infimum diverges."""
    conv, tol, zero = mode.convert, mode.tolerance, mode.zero
    w = [zero] * len(c)
    total = zero
    for yi, row, bi in zip(y, lp.matrix, lp.rhs):
        if yi:
            w = [wj + yi * conv(aij) for wj, aij in zip(w, row)]
            total += yi * conv(bi)
    for j, (cj, wj) in enumerate(zip(c, w)):
        coeff = cj - wj
        if -tol <= coeff <= tol:
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
