"""Self-contained phase-1 simplex feasibility solver with exact-rational and
float backends.

The solver is small and dense on purpose: every decision procedure in the
package reduces to LP feasibility questions with at most a few dozen rows
and columns, and the questions they encode (hull membership, separation,
optimality) are exact set statements.  An LP is rows over variables that
are each free or nonnegative, with no objective: phase 1 decides it, and
its answer is a feasible point, read off the basis it ends with, or a
Farkas certificate.  One Bland's-rule driver (`_bland`) runs phase 1
over either of two tableaux, which supply only their arithmetic:
pricing, pivoting, the entering-column scan and the ratio test.  Bland's
rule keeps the pivot sequence finite, and all tie-breaking is by lowest
index, so outputs are deterministic.

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
zero included.  Rationals appear only at the edges: the basic values and
multipliers read out.  The exact reduced costs are integers over one
denominator, so the Farkas multipliers of an infeasible phase 1 are read
off the final tableau (Chvátal 1983, ch. 10), and no basis is solved.
Every zero in an exact answer is the shared `numeric.ZERO`.

The float tableau is one float64 array with the rhs as its last column,
and its sign tests use a tolerance.  A float pivot is one masked rank-1
update of the rows with a nonzero in the pivot column: the same IEEE
multiply and subtract per entry, in the same order, as a row-by-row
update, so the answers are those of plain float rows, bit for bit.  Its
reduced costs are one float64 vector that each pivot updates in place
with the same operations, and numpy scans it for the entering column.
They carry rounding, so the tableau keeps a copy of its unpivoted array,
and the Farkas multipliers of an infeasible float LP solve Bᵀy = c_B on
its basis columns with `linalg.solve_square`.  A feasible LP solves no
square system.

A `LinearProgram` is validated once, when it is constructed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .numeric import EXACT, FLOAT, NumericMode, over_common_denominator

log = logging.getLogger(__name__)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

LE, EQ, GE = "le", "eq", "ge"

# Pivots per phase 1.  Bland's rule cannot cycle with exact sign tests,
# but float drift can make it run on.  The largest count of any LP that
# finishes in the benchmark's first passes (seeds 1-10, all workloads) is
# 477, on an 81-row float optimality LP.  The limit is ten times that,
# rounded up: room for larger LPs, while a run-away float LP still stops
# in well under a second.
_MAX_PIVOTS = 5_000
_PIVOT_LIMIT = "simplex pivot limit exceeded"
# Float drift can leave a column that prices negative with no entry above
# the tolerance; exact phase 1 is always bounded.
_UNBOUNDED = "phase 1 cannot be unbounded"


class LpInputError(ValueError):
    """Malformed linear program: bad dimensions, senses, or coefficients."""


@dataclass(frozen=True)
class LinearProgram:
    """Find x with  matrix x (senses) rhs,  x_j free where free[j] and
    x_j >= 0 otherwise.  ``senses`` holds "le" | "eq" | "ge" per row."""

    matrix: tuple
    rhs: tuple
    senses: tuple
    free: tuple

    @staticmethod
    def build(matrix, rhs, senses, free) -> "LinearProgram":
        """An LP from sequences; rows that are tuples already are kept."""
        matrix = tuple(row if type(row) is tuple else tuple(row) for row in matrix)
        return LinearProgram(matrix, tuple(rhs), tuple(senses), tuple(free))

    def __post_init__(self):
        _validate(self)

    @property
    def n_vars(self) -> int:
        return len(self.free)

    @property
    def n_rows(self) -> int:
        return len(self.matrix)


def _check_finite(values, where):
    """Raise LpInputError at the first float NaN or infinity in `values`,
    which are in `where`.  A finite `fsum`, one C-level pass, clears a
    vector that starts with a float; anything else is tested entry by
    entry (on Fractions `fsum` is slower than this loop)."""
    if isinstance(next(iter(values), None), float):
        try:
            if math.isfinite(math.fsum(values)):
                return
        except (TypeError, OverflowError, ValueError):
            pass
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise LpInputError(f"non-finite coefficient in {where}: {v!r}")


def _validate(lp: LinearProgram):
    n = lp.n_vars
    if len(lp.rhs) != lp.n_rows or len(lp.senses) != lp.n_rows:
        raise LpInputError("rhs/senses length does not match the constraint count")
    for sense in lp.senses:
        if sense not in (LE, EQ, GE):
            raise LpInputError(f"unknown constraint sense {sense!r}")
    for i, row in enumerate(lp.matrix):
        if len(row) != n:
            raise LpInputError(f"constraint row {i} has {len(row)} coefficients, expected {n}")
        _check_finite(row, f"row {i}")
    _check_finite(lp.rhs, "rhs")


@dataclass(frozen=True)
class FarkasCertificate:
    """Row multipliers y witnessing infeasibility: y ≤ 0 on le rows, y ≥ 0
    on ge rows, yᵀA zero on the free columns and at most zero on the
    nonnegative ones, and yᵀb > 0."""

    row_multipliers: tuple


@dataclass(frozen=True)
class LpSolution:
    """A feasible point (`primal`) or a `FarkasCertificate`."""

    status: str
    primal: Optional[tuple] = None
    certificate: Optional[FarkasCertificate] = None


class _Std:
    """Standard form in the tableau's own numbers: nonnegative columns, and
    equality rows with their slack and artificial columns.

    A free variable splits into a nonnegative pair.  Each row, rhs last,
    is negated if that rhs is negative.  In float mode `rows` is one
    float64 array of shape (rows, width + 1), its slack entries ±1.0 and
    its artificial entries 1.0, and `dens` is None.  In exact mode row i
    is a list of ints over dens[i], [a_i1 … a_in | b_i] for n LP
    variables, and standard-form column j is s times stored column k for
    (k, s) = vmap[j]: column (v, ±1) of variable v is ±column v, row i's
    slack is ±column n + i (+ for le, − for ge) and its artificial is
    column n + i, which is basic in row i, dens[i] there and 0 elsewhere,
    and so not stored (see `_IntTableau`).  units[i] is the (column, ±1)
    of row i's slack, or of its artificial if it has none, and basis[i]
    starts at its artificial, or at its slack if it has none: +1 times
    column n + i.
    """

    __slots__ = ("cols", "rows", "dens", "negated", "basis", "units", "art_first", "width",
                 "vmap")


def _standardize(lp: LinearProgram, mode: NumericMode) -> _Std:
    std = _Std()
    std.cols = []  # (LP variable, +1 | -1) per structural column
    for j, free in enumerate(lp.free):
        std.cols += [(j, 1), (j, -1)] if free else [(j, 1)]

    # Each row is converted once with its rhs.
    rows = list(zip(lp.matrix, lp.rhs))
    if mode.exact:
        coeffs, std.dens, std.negated = _exact_rows(rows)
    else:
        coeffs, std.negated = _float_rows(rows, lp.n_vars, std.cols)
        std.dens = None
    flip = {LE: GE, GE: LE, EQ: EQ}
    senses = [flip[sense] if negated else sense
              for sense, negated in zip(lp.senses, std.negated)]

    n, n_struct = lp.n_vars, len(std.cols)
    std.art_first = n_struct + sum(sense != EQ for sense in senses)
    std.width = std.art_first + sum(sense != LE for sense in senses)
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


def _exact_rows(rows):
    """(rows, dens, negated) of an exact LP: each row as ints over its lcm
    denominator dens[i], one per LP variable and the rhs last, negated
    when that rhs is negative."""
    out, dens, negated = [], [], []
    for row, b in rows:
        nums, den = over_common_denominator([*row, b])
        negated.append(nums[-1] < 0)
        out.append([-v for v in nums] if nums[-1] < 0 else nums)
        dens.append(den)
    return out, dens, negated


def _float_rows(rows, n, cols):
    """(rows, negated) of a float LP: one float64 array of the structural
    rows, rhs last, each row negated whole (its zeros become -0.0) when its
    rhs is negative.  A zero coefficient is +0.0 in every structural
    column, whatever its sign in the LP."""
    a = _float64([(*row, b) for row, b in rows], (len(rows), n + 1))
    split = a[:, [j for j, _ in cols]]
    signs = np.array([sign for _, sign in cols], dtype=float)
    out = np.empty((len(a), len(cols) + 1))
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


def _bland(tab, basis):
    """Phase 1 by Bland's rule (Bland 1977) over either tableau: the
    lowest-index column with a negative reduced cost enters, and of the
    rows at the minimum ratio the one whose basic variable has the lowest
    index leaves.  Raises RuntimeError when a column enters with no row to
    leave (float drift) or at the pivot limit."""
    for _ in range(_MAX_PIVOTS):
        enter = tab.entering()
        if enter is None:
            return
        ties = tab.ratio_ties(enter)
        if not ties:
            raise RuntimeError(_UNBOUNDED)
        tab.pivot(basis, min(ties, key=basis.__getitem__), enter)
    raise RuntimeError(_PIVOT_LIMIT)


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

    def entering(self):
        """The lowest column whose reduced cost is below -tol, or None."""
        neg = (self.z < -self.tol).nonzero()[0]
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

    def value(self, i) -> float:
        return float(self.rows[i, -1])

    def duals(self, basis, costs, units):
        """Solve Bᵀy = c_B on the basis columns of the unpivoted rows."""
        y = linalg.solve_square(self.unpivoted[:, basis].T[None],
                                np.array([[costs[j] for j in basis]], float), FLOAT)
        return y[0].tolist()


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

    def entering(self):
        """The lowest column with a negative reduced cost, or None."""
        return next((j for j, v in enumerate(self.z) if v < 0), None)

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
        """Bland's ratio test pivots only on a positive entry of a column
        that is neither basic nor a basic column's twin (see `ratio_ties`),
        so that column is stored, at q, and every d_i stays positive.  The
        pivot row is reduced already: gcd(d_i, *N_i) is 1 for every row."""
        k, s = self.vmap[col]
        q, leave = self.slot[k], self.basic[row]
        prow, lead = self.rows[row], self.bsign[row] * self.dens[row]
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

    def value(self, i) -> Fraction:
        return Fraction(self.rows[i][-1], self.dens[i])

    def duals(self, basis, costs, units):
        """The simplex multipliers y = B⁻ᵀ c_B, read off the reduced costs
        (Chvátal 1983, ch. 10): for (j, s) = units[i], column j is s·e_i in
        the unpivoted rows, so its reduced cost is c_j − s·y_i."""
        zd = self.zd
        return [(costs[j] - Fraction(self.z[j], zd)) / s for j, s in units]


def solve(lp: LinearProgram, mode: NumericMode = EXACT) -> LpSolution:
    """Phase-1 simplex: a feasible point or a Farkas certificate.
    Deterministic for identical inputs.  The tableau is priced by `costs`,
    1 on every artificial column and 0 elsewhere.  An artificial left
    basic at the end is dropped from the point: 0 in exact mode, it may
    leave its row short in float mode by as much as the infeasibility test
    allows."""
    if log.isEnabledFor(logging.DEBUG):
        log.debug("solving LP:\n%s", format_lp(lp))
    tol, zero = mode.tolerance, mode.zero
    std = _standardize(lp, mode)
    basis = std.basis
    if mode.exact:
        tab = _IntTableau(std.rows, std.dens, std.vmap)
    else:
        tab = _FloatTableau(std.rows, tol)
    costs = [zero] * std.art_first + [zero + 1] * (std.width - std.art_first)
    tab.price(basis, costs)
    _bland(tab, basis)

    # The float tolerance grows with the rhs; the exact threshold is 0.
    scale = 1 + sum(map(abs, tab.unpivoted[:, -1].tolist())) if tol else 1
    # Phase 1 leaves every basic value >= 0, so an exact LP is infeasible
    # exactly when a basic artificial has a nonzero rhs.
    arts = [i for i, col in enumerate(basis) if col >= std.art_first]
    if (any(tab.rows[i][-1] for i in arts) if mode.exact
            else sum(tab.value(i) for i in arts) > tol * scale):
        y = tab.duals(basis, costs, std.units)
        y = mode.share_zero(-v if negated else v for v, negated in zip(y, std.negated))
        return LpSolution(status=INFEASIBLE, certificate=FarkasCertificate(y))

    primal = [zero] * lp.n_vars
    for i, col in enumerate(basis):
        if col < len(std.cols):  # a basic slack or artificial is no LP variable
            j, sign = std.cols[col]
            primal[j] = primal[j] + (tab.value(i) if sign == 1 else -tab.value(i))
    return LpSolution(status=FEASIBLE, primal=mode.share_zero(primal))


def check_feasible(lp: LinearProgram, mode: NumericMode = EXACT):
    """(True, witness point) or (False, Farkas certificate)."""
    sol = solve(lp, mode)
    if sol.status == FEASIBLE:
        return True, sol.primal
    return False, sol.certificate


def format_lp(lp: LinearProgram) -> str:
    """Plain-text listing of the rows and the free variables (debugging
    aid)."""
    sense_sym = {LE: "<=", EQ: "=", GE: ">="}
    lines = ["find x >= 0 except the free x_j, s.t."]
    for i, row in enumerate(lp.matrix):
        terms = " + ".join(f"{v}*x{j}" for j, v in enumerate(row))
        lines.append(f"  r{i}: {terms} {sense_sym[lp.senses[i]]} {lp.rhs[i]}")
    lines.append("free: " + " ".join(f"x{j}" for j, free in enumerate(lp.free) if free))
    return "\n".join(lines)
