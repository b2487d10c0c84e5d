"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's solution paths: the LP oracle
enumerates candidate vertices from constraint subsets with its own
rational Gaussian elimination, the LP certificate checks read only a
`LinearProgram`'s own fields, the visitation oracles propagate the
state distribution forward for a truncated horizon or sample
trajectories, and the feasible-set oracle enumerates every deterministic
policy.  The greedy-merge references solve every merge trial, refused
ones again and again, or one trial at a time with no chain probe, on
the library's own margin LP, the first-pass reference solves one
margin LP per bad point in bad order, the hull oracles solve the primal
membership and intersection LPs, whose dual is that margin LP, the visitation
references solve one policy at a time, the float one in list arithmetic
and the exact one by rational elimination, the standard-form reference
builds each row entry by entry in Python lists, a column for each half
of a free variable and for each slack and artificial, and the
split-column integer tableau pivots those rows in exact mode.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional

import numpy as np

from rewardsep import lp
from rewardsep.linalg import SingularSystemError
from rewardsep.mdp import (
    MarkovEnv,
    Policy,
    RewardSpec,
    VisitationTable,
    enumerate_deterministic_policies,
    require_valid_env,
    value_of_visitation,
)
from rewardsep.numeric import EXACT, NumericMode, as_exact, as_float
from rewardsep.separability import (
    DesignOutcome, HullObstruction, _consistent_points, _greedy_groups, _realized, _separate,
)
from rewardsep.soap import ConsistencyReport

LE, EQ, GE = lp.LE, lp.EQ, lp.GE


def _feasible_point(rows, senses, rhs, point) -> bool:
    for row, sense, b in zip(rows, senses, rhs):
        value = sum(r * x for r, x in zip(row, point))
        if sense == LE and value > b:
            return False
        if sense == GE and value < b:
            return False
        if sense == EQ and value != b:
            return False
    return True


def gaussian_solve(rows, rhs):
    """Solve A x = b over rationals (pivot = first nonzero entry at or
    below the diagonal); raises SingularSystemError naming the column
    without a pivot, as `linalg.solve_square` does."""
    n = len(rows)
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


def _vertices(rows, senses, rhs, n):
    """All basic feasible points of the row system (exact arithmetic)."""
    vertices = []
    m = len(rows)
    for subset in itertools.combinations(range(m), n):
        a = [rows[i] for i in subset]
        b = [rhs[i] for i in subset]
        try:
            point = gaussian_solve(a, b)
        except SingularSystemError:
            continue
        if _feasible_point(rows, senses, rhs, point):
            vertices.append(tuple(point))
    return vertices


def brute_force_lp(program: lp.LinearProgram) -> str:
    """FEASIBLE or INFEASIBLE by exhaustive vertex enumeration.

    Requires every variable to be nonnegative, so that the feasible region
    is pointed: a nonempty pointed polyhedron has a vertex.
    """
    assert not any(program.free), "oracle requires nonnegative variables"
    n = program.n_vars
    rows = [[as_exact(v) for v in row] for row in program.matrix]
    senses = list(program.senses)
    rhs = [as_exact(v) for v in program.rhs]
    for j in range(n):
        rows.append([Fraction(int(k == j)) for k in range(n)])
        senses.append(GE)
        rhs.append(Fraction(0))
    return lp.FEASIBLE if _vertices(rows, senses, rhs, n) else lp.INFEASIBLE


def bounds_as_rows(matrix, rhs, senses, bounds) -> lp.LinearProgram:
    """The LP whose variable j lies in bounds[j] = (lower, upper), None
    meaning unbounded: a variable with lower bound 0 is nonnegative and
    any other is free, and every other finite bound is one more row."""
    n = len(bounds)
    matrix, rhs, senses = list(matrix), list(rhs), list(senses)
    for j, (lo, hi) in enumerate(bounds):
        for b, sense in ((lo, GE), (hi, LE)):
            if b is not None and not (sense == GE and b == 0):
                matrix.append([int(k == j) for k in range(n)])
                rhs.append(b)
                senses.append(sense)
    return lp.LinearProgram.build(matrix, rhs, senses, [lo != 0 for lo, _ in bounds])


def random_lp(rng: random.Random) -> lp.LinearProgram:
    """Small integer LP over nonnegative variables, about a third of them
    bounded above by a row."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)
    for _ in range(n):  # objective draws, unused: each seed keeps its rows
        rng.randint(-4, 4)
    matrix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(-6, 6) for _ in range(m)]
    senses = [rng.choice([LE, GE, EQ]) for _ in range(m)]
    bounds = [(0, rng.randint(1, 6) if rng.random() < 0.3 else None) for _ in range(n)]
    return bounds_as_rows(matrix, rhs, senses, bounds)


def farkas_signs_ok(program: lp.LinearProgram, multipliers, mode: NumericMode = EXACT) -> bool:
    """Multipliers of le rows are at most 0 and of ge rows at least 0,
    within the tolerance."""
    tol = mode.tolerance
    return not any((sense == LE and y > tol) or (sense == GE and y < -tol)
                   for y, sense in zip(multipliers, program.senses))


def farkas_gap(program: lp.LinearProgram, multipliers, mode: NumericMode = EXACT):
    """yᵀb minus the supremum of yᵀA·x over the variables (free, or x >= 0),
    or None when that supremum is infinite; columns of yᵀA within the
    tolerance of zero are skipped.  When `farkas_signs_ok` holds, every x
    that meets the rows has yᵀA·x >= yᵀb, so a positive gap proves the
    rows infeasible."""
    conv, tol = mode.convert, mode.tolerance
    y = [conv(v) for v in multipliers]
    if len(y) != program.n_rows:
        raise ValueError("multiplier count does not match the row count")
    for j, free in enumerate(program.free):
        w = sum((yi * conv(row[j]) for yi, row in zip(y, program.matrix)), mode.zero)
        if (free and not -tol <= w <= tol) or w > tol:
            return None
    return sum((yi * conv(b) for yi, b in zip(y, program.rhs)), mode.zero)


def satisfies(program: lp.LinearProgram, point, mode: NumericMode = EXACT) -> bool:
    """Whether a point meets every row and is nonnegative where the
    variable is, within the tolerance."""
    conv, tol = mode.convert, mode.tolerance
    x = [conv(v) for v in point]
    if len(x) != program.n_vars:
        raise ValueError("point length does not match the variable count")
    for row, b, sense in zip(program.matrix, program.rhs, program.senses):
        r = sum((conv(a) * xj for a, xj in zip(row, x)), mode.zero) - conv(b)
        if (sense != GE and r > tol) or (sense != LE and r < -tol):
            return False
    return all(free or xj >= -tol for xj, free in zip(x, program.free))


def pairwise_consistency(good, bad, tolerance) -> ConsistencyReport:
    """The float consistency report of (name, entries) pairs, one pair of
    policies at a time: two visitations are equal when the largest entry
    difference is at most `tolerance`.  Pairs come good-major, and within
    a set as (earlier, later)."""

    def equal(x, y):
        return max(abs(a - b) for a, b in zip(x, y)) <= tolerance

    def within(rows):
        return tuple((rows[i][0], rows[j][0])
                     for i in range(len(rows)) for j in range(i + 1, len(rows))
                     if equal(rows[i][1], rows[j][1]))

    witnesses = tuple((gn, bn) for gn, gr in good for bn, br in bad if equal(gr, br))
    return ConsistencyReport(consistent=not witnesses, witnesses=witnesses,
                             duplicate_good=within(good), duplicate_bad=within(bad))


def resolving_greedy_groups(good, bad, planes, mode: NumericMode):
    """The greedy merge of `separability._greedy_groups` with no trial
    skipped: at every step of a group's growth it solves the trial LP of
    every candidate, in order of distance to the group's centroid, the
    ones this group already refused included.  The reference for the
    merge's specs and LP counts."""
    conv = mode.convert
    dim = len(good[0])

    def squared_distance(p, q):
        return sum(((conv(a) - conv(b)) ** 2 for a, b in zip(p, q)), conv(0))

    remaining = list(range(len(bad)))
    merged = []
    while remaining:
        seed = remaining[0]
        group = [seed]
        group_sep = planes[seed]
        candidates = [i for i in remaining if i != seed]
        while candidates:
            centroid = [sum((conv(bad[i][k]) for i in group), mode.zero) / len(group)
                        for k in range(dim)]
            candidates.sort(key=lambda i: (squared_distance(bad[i], centroid), i))
            accepted = None
            for pos, i in enumerate(candidates):
                trial = [bad[g] for g in group + [i]]
                separator, _ = _separate(good, trial, dim, mode)
                if separator is not None:
                    accepted = (pos, separator)
                    break
            if accepted is None:
                break
            pos, group_sep = accepted
            group.append(candidates.pop(pos))
        r, c = group_sep.normal, group_sep.offset
        covered = set(group)
        for i in remaining:
            if i in covered:
                continue
            score = sum((conv(rk) * conv(pk) for rk, pk in zip(r, bad[i])), mode.zero)
            if score <= conv(c) - 1:
                covered.add(i)
        merged.append(group_sep)
        remaining = [i for i in remaining if i not in covered]
    return merged


def sequential_greedy_groups(good, bad, planes, mode: NumericMode):
    """The greedy merge of `separability._greedy_groups` as one trial at a
    time: at every step of a group's growth it solves the trial LP of each
    candidate in order of distance to the group's centroid, until one is
    accepted, and drops the candidates refused before it.  The reference
    for the chain probe and its bisection, which must reach the same last
    accepted trial of each group."""
    zero = mode.zero
    dim = len(good[0])
    remaining = list(range(len(bad)))
    merged = []
    while remaining:
        seed = remaining[0]
        group = [seed]
        group_sep = planes[seed]
        candidates = [i for i in remaining if i != seed]
        while candidates:
            centroid = [sum((bad[i][k] for i in group), zero) / len(group) for k in range(dim)]
            candidates.sort(key=lambda i: (sum(
                ((a - b) ** 2 for a, b in zip(bad[i], centroid)), zero), i))
            for pos, i in enumerate(candidates):
                trial = [bad[g] for g in group + [i]]
                separator, _ = _separate(good, trial, dim, mode)
                if separator is not None:
                    break
            else:
                break
            group_sep = separator
            group.append(i)
            candidates = candidates[pos + 1:]
        r, c = group_sep.normal, group_sep.offset
        covered = set(group)
        for i in remaining:
            if i in covered:
                continue
            score = sum((rk * pk for rk, pk in zip(r, bad[i])), zero)
            if score <= c - 1:
                covered.add(i)
        merged.append(group_sep)
        remaining = [i for i in remaining if i not in covered]
    return merged


def sequential_design_multi(env: MarkovEnv, soap, mode: NumericMode, reduce: bool = False):
    """`separability.design_multi` with its first pass as one loop in bad
    order: one `_separate` margin LP per bad point, each solved alone, the
    first member the obstruction.  The reference for the stochastic-first
    order, and in exact mode for the spec."""
    rhos, good, bad = _consistent_points(env, soap, mode)
    planes = []
    for policy, point in zip(soap.bad, bad):
        separator, coefficients = _separate(good, [point], len(point), mode)
        if separator is None:
            return DesignOutcome(realizable=False, obstruction=HullObstruction(
                policy=policy.name, point=point, coefficients=coefficients))
        planes.append(separator)
    if reduce:
        planes = _greedy_groups(good, bad, planes, mode)
    return _realized(soap, rhos, mode, [p.normal for p in planes], [p.offset for p in planes])


def in_hull(point, hull, mode: NumericMode = EXACT) -> bool:
    """Is `point` in the convex hull of the `hull` points?  Decided by the
    primal LP sum lambda_g p_g = point with lambda on the simplex, solved
    by `lp.solve`; the library's margin LP is its dual."""
    k = len(hull)
    matrix = [tuple(p[row] for p in hull) for row in range(len(point))] + [(1,) * k]
    program = lp.LinearProgram.build(matrix, [*point, 1], [EQ] * len(matrix), [False] * k)
    return lp.solve(program, mode).status == lp.FEASIBLE


def hulls_meet(a, b, mode: NumericMode = EXACT) -> bool:
    """Do the convex hulls of the point lists `a` and `b` meet?  Decided by
    the primal LP sum lambda_i p_i = sum mu_j q_j with lambda and mu each on
    the simplex, solved by `lp.solve`; the library's margin LP is its
    dual."""
    ka, kb = len(a), len(b)
    matrix = [(*(p[row] for p in a), *(-q[row] for q in b)) for row in range(len(a[0]))]
    matrix += [(1,) * ka + (0,) * kb, (0,) * ka + (1,) * kb]
    program = lp.LinearProgram.build(matrix, [0] * (len(matrix) - 2) + [1, 1],
                                     [EQ] * len(matrix), [False] * (ka + kb))
    return lp.solve(program, mode).status == lp.FEASIBLE


def one_float_visitation(env: MarkovEnv, policy: Policy, mode: NumericMode) -> tuple:
    """The float visitation of one policy, solved alone in list arithmetic:
    P_pi summed over actions in order (zero terms skipped), one
    `np.linalg.solve` of (I - gamma P_pi^T) d = e_start, then
    rho = d * pi.  The one-policy path that the batched solve replaced;
    the batch must match it bit for bit."""
    require_valid_env(env, mode)
    policy.validate_for(env, mode)
    n_s, n_a = env.n_states, env.n_actions
    gamma = as_float(env.gamma)
    kernel = [[as_float(t) for t in row] for row in env.kernel]
    pol = [[as_float(p) for p in policy.distribution_row(env, s)] for s in env.states]
    p_pi = [[0] * n_s for _ in range(n_s)]
    for s in range(n_s):
        for a, p in enumerate(pol[s]):
            if p:
                for s2, t in enumerate(kernel[s * n_a + a]):
                    if t:
                        p_pi[s][s2] += p * t
    system = [[(1 if s == s2 else 0) - gamma * p_pi[s2][s] for s2 in range(n_s)]
              for s in range(n_s)]
    start = env.state_index(env.start)
    d = np.linalg.solve(np.array(system, float),
                        np.array([1 if s == start else 0 for s in range(n_s)], float)).tolist()
    return tuple(ds * p for ds, row in zip(d, pol) for p in row)


def one_exact_visitation(env: MarkovEnv, policy: Policy) -> tuple:
    """The exact visitation of one policy, solved alone in rational
    arithmetic: (I - gamma P_pi^T) d = e_start by `gaussian_solve`, then
    rho = d * pi, a Fraction per entry."""
    n_s, n_a = env.n_states, env.n_actions
    gamma = as_exact(env.gamma)
    kernel = [[as_exact(t) for t in row] for row in env.kernel]
    pol = [[as_exact(p) for p in policy.distribution_row(env, s)] for s in env.states]
    system = [[(s == s2) - gamma * sum(pol[s2][a] * kernel[s2 * n_a + a][s]
                                       for a in range(n_a))
               for s2 in range(n_s)] for s in range(n_s)]
    start = env.state_index(env.start)
    d = gaussian_solve(system, [int(s == start) for s in range(n_s)])
    return tuple(ds * p for ds, row in zip(d, pol) for p in row)


def truncated_visitation(env, policy, horizon: int):
    """Forward propagation of the start distribution for `horizon` steps:
    rho[s, a] ~= sum_t gamma^t Pr(S_t = s) pi(a | s), exact arithmetic."""
    n_s = len(env.states)
    n_a = len(env.actions)
    gamma = as_exact(env.gamma)
    pol = [
        [as_exact(p) for p in policy.distribution_row(env, s)]
        for s in env.states
    ]
    kernel = [[as_exact(p) for p in row] for row in env.kernel]
    dist = [Fraction(0)] * n_s
    dist[env.states.index(env.start)] = Fraction(1)
    rho = [Fraction(0)] * (n_s * n_a)
    weight = Fraction(1)
    for _ in range(horizon):
        nxt = [Fraction(0)] * n_s
        for s in range(n_s):
            if dist[s] == 0:
                continue
            for a in range(n_a):
                p_sa = dist[s] * pol[s][a]
                if p_sa == 0:
                    continue
                rho[s * n_a + a] += weight * p_sa
                row = kernel[s * n_a + a]
                for s2 in range(n_s):
                    if row[s2]:
                        nxt[s2] += p_sa * row[s2]
        dist = nxt
        weight *= gamma
    return rho


def estimate_visitation_monte_carlo(env: MarkovEnv, policy: Policy,
                                    n_rollouts: int = 100_000,
                                    rng: Optional[np.random.Generator] = None,
                                    cutoff: float = 1e-8):
    """Trajectory-sampling estimate of rho with per-entry standard errors.

    Rollouts are truncated at the horizon where the discounted tail drops
    below `cutoff`; the induced bias is below cutoff/(1-gamma) per entry.
    Float-only; used to cross-check the linear solve.
    """
    require_valid_env(env, NumericMode.floating())
    policy.validate_for(env, NumericMode.floating())
    if rng is None:
        rng = np.random.default_rng(0)
    gamma = as_float(env.gamma)
    n_s, n_a = env.n_states, env.n_actions
    horizon = 1 if gamma == 0 else max(1, math.ceil(math.log(cutoff) / math.log(gamma)))

    pol = np.array(
        [[as_float(p) for p in policy.distribution_row(env, s)] for s in env.states]
    )
    kernel = np.array([[as_float(p) for p in row] for row in env.kernel])
    pol_cdf = np.cumsum(pol, axis=1)
    ker_cdf = np.cumsum(kernel, axis=1)

    acc = np.zeros((n_rollouts, n_s * n_a))
    states = np.full(n_rollouts, env.state_index(env.start), dtype=np.int64)
    rows = np.arange(n_rollouts)
    weight = 1.0
    for _ in range(horizon):
        u = rng.random(n_rollouts)
        actions = (u[:, None] < pol_cdf[states]).argmax(axis=1)
        sa = states * n_a + actions
        acc[rows, sa] += weight
        u2 = rng.random(n_rollouts)
        states = (u2[:, None] < ker_cdf[sa]).argmax(axis=1)
        weight *= gamma
    mean = acc.mean(axis=0)
    stderr = acc.std(axis=0, ddof=1) / math.sqrt(n_rollouts)
    return mean, stderr


def brute_force_feasible_set(env: MarkovEnv, spec: RewardSpec,
                             limit: int = 4096,
                             mode: NumericMode = EXACT) -> tuple:
    """All deterministic policies that are feasible under the spec: every
    value component at or above its lower bound (less the tolerance in
    float mode).

    The exhaustive oracle against which synthesized rewards are checked;
    refuses when |A|^|S| exceeds `limit`.
    """
    if any(len(row) != env.n_sa for row in spec.rows):
        raise ValueError(f"reward rows do not have the environment's width {env.n_sa}")
    bounds = [mode.convert(c) - mode.tolerance for c in spec.lower_bounds]
    policies = enumerate_deterministic_policies(env, limit)
    feasible = []
    for policy, rho in zip(policies, VisitationTable(env, mode).many(policies)):
        values = value_of_visitation(rho, spec, mode)
        if all(v >= c for v, c in zip(values, bounds)):
            feasible.append(policy)
    return tuple(feasible)


def list_standard_form(program: lp.LinearProgram, mode: NumericMode) -> lp._Std:
    """Standard form built entry by entry in Python lists, one column for
    each half of a free variable and for each slack and artificial: the
    split-column set-up that `lp._standardize` replaced, in float mode with
    one float64 array, which must match these rows bit for bit, the sign
    of every zero included, and in exact mode with the int rows of the
    nonbasic-column tableau, which must pivot as `SplitIntTableau` pivots
    these.  `vmap` is None: column j is stored as column j."""
    std = lp._Std()
    cols = std.cols = []
    var_cols = [[] for _ in program.free]
    for j, free in enumerate(program.free):
        for sign in (1, -1) if free else (1,):
            var_cols[j].append((len(cols), sign))
            cols.append((j, sign))
    n_struct = len(cols)
    flip = {LE: GE, GE: LE, EQ: EQ}
    staged = []
    for row, b, sense in zip(program.matrix, program.rhs, program.senses):
        nums, den = mode.scaled([*row, b])
        b = nums.pop()
        coeffs = [0 if mode.exact else 0.0] * n_struct  # negated, a float zero is -0.0
        for j, v in enumerate(nums):
            if v:
                for col, sign in var_cols[j]:
                    coeffs[col] = v if sign == 1 else -v
        negated = b < 0
        if negated:
            coeffs, b, sense = [-v for v in coeffs], -b, flip[sense]
        staged.append((coeffs, b, den, sense, negated))
    std.art_first = n_struct + sum(sense != EQ for *_, sense, _ in staged)
    std.width = std.art_first + sum(sense != LE for *_, sense, _ in staged)
    std.rows, std.negated, std.basis, std.units = [], [], [], []
    std.dens = [den for _, _, den, _, _ in staged] if mode.exact else None
    std.vmap = None
    slack, art = n_struct, std.art_first
    for coeffs, b, den, sense, negated in staged:
        added = []
        if sense != EQ:
            added.append((slack, 1 if sense == LE else -1))
            slack += 1
        if sense != LE:
            added.append((art, 1))
            art += 1
        row = coeffs + [0] * (std.width - n_struct) + [b]
        for col, sign in added:
            row[col] = sign * den
        std.rows.append(row if mode.exact else [float(v) for v in row])
        std.negated.append(negated)
        std.basis.append(added[-1][0])
        std.units.append(added[0])
    return std


def _divide(values, g):
    return values if g == 1 else [v // g for v in values]


class SplitIntTableau:
    """The fraction-free exact tableau over the split columns of
    `list_standard_form`, every standard-form column stored as it is,
    basic ones included: the reference that `lp._IntTableau`, which stores
    one column per LP variable and one per row, and of those only the
    nonbasic ones, must match pivot for pivot.  Row i is a list
    of ints N_i, its rhs last, over a denominator d_i > 0; each updated
    row is divided by gcd(d_i, *N_i).  The reduced costs are the ints z
    over one denominator zd > 0, reduced by gcd(zd, *z)."""

    def __init__(self, rows, dens):
        self.rows = rows
        self.dens = dens
        self.z = None
        self.zd = 1

    def _set_z(self, z, zd):
        g = math.gcd(zd, *z)
        self.z, self.zd = _divide(z, g), zd // g

    def price(self, basis, costs):
        z, zd = EXACT.scaled(costs)
        for row, d, col in zip(self.rows, self.dens, basis):
            f = z[col]
            if f:
                z = [d * u - f * v for u, v in zip(z, row)]
                zd *= d
        self._set_z(z, zd)

    def entering(self):
        return next((j for j, v in enumerate(self.z) if v < 0), None)

    def ratio_ties(self, enter):
        rows = self.rows
        ties = []
        for i, row in enumerate(rows):
            t = row[enter]
            if t <= 0:
                continue
            if ties:
                lead = rows[ties[0]]
                lhs, rhs = row[-1] * lead[enter], lead[-1] * t
                if lhs > rhs:
                    continue
                if lhs == rhs:
                    ties.append(i)
                    continue
            ties = [i]
        return ties

    def pivot(self, basis, row, col):
        prow = self.rows[row]
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
            self._set_z([p * u - f * v for u, v in zip(self.z, prow)], self.zd * p)
        basis[row] = col

    def value(self, i) -> Fraction:
        return Fraction(self.rows[i][-1], self.dens[i])

    def reduced_cost(self, j) -> Fraction:
        return Fraction(self.z[j], self.zd)
