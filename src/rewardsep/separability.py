"""Reward realizability as polyhedral separation of visitation points.

A d-dimensional reward with lower bounds carves the polyhedron
{x : R x >= c} out of visitation space, so realizing a SOAP means finding
d hyperplanes whose intersection contains every good visitation and
excludes every bad one.  The decisions here are:

  * scalar (d = 1): possible iff the convex hulls of the good and bad
    visitations are disjoint;
  * multidimensional: possible iff no bad visitation lies inside the
    convex hull of the good ones (then d <= |bad| always suffices);
  * optimality-based scalar: every good policy optimal, every bad policy
    not, decided by one LP over all deterministic policies.

Strict separation of finite point sets always admits a positive gap, so
"strictly worse" is encoded as a unit margin; the margin is free because
(R, c) can be rescaled.  Each synthesized spec is re-checked through the
verifier before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import lp
from .mdp import (
    MarkovEnv,
    RewardSpec,
    Visitation,
    VisitationTable,
    enumerate_deterministic_policies,
)
from .numeric import EXACT, NumericMode, as_exact, as_float
from .soap import ConsistencyReport, Soap, _consistency
from .verify import RealizationReport, _verify


class InconsistentSoapError(ValueError):
    """Design refused: some good policy shares its visitation with a bad
    one, so no feasibility region can split the SOAP."""

    def __init__(self, report: ConsistencyReport):
        self.report = report
        pairs = ", ".join(f"({g}, {b})" for g, b in report.witnesses)
        super().__init__(f"SOAP is inconsistent; coinciding visitations: {pairs}")


class DeterministicSoapRequired(ValueError):
    """Optimality-based design is only defined here for deterministic SOAPs."""


@dataclass(frozen=True)
class PointSet:
    """Visitation vectors tagged with their policy names."""

    names: tuple
    points: tuple

    @staticmethod
    def from_policies(env: MarkovEnv, policies, mode: NumericMode = EXACT) -> "PointSet":
        return PointSet._of(VisitationTable(env, mode), policies)

    @staticmethod
    def _of(table: VisitationTable, policies) -> "PointSet":
        return PointSet(tuple(p.name for p in policies), tuple(map(table, policies)))

    def __len__(self):
        return len(self.points)

    @property
    def dimension(self) -> Optional[int]:
        return len(self.points[0]) if self.points else None


@dataclass(frozen=True)
class SeparatingHyperplane:
    """normal . kept >= offset for every kept point, while
    normal . excluded <= offset - 1."""

    normal: tuple
    offset: object


@dataclass(frozen=True)
class HullMembership:
    member: bool
    coefficients: Optional[tuple] = None
    separator: Optional[SeparatingHyperplane] = None


@dataclass(frozen=True)
class HullIntersection:
    intersects: bool
    point: Optional[tuple] = None
    coefficients_a: Optional[tuple] = None
    coefficients_b: Optional[tuple] = None
    separator: Optional[SeparatingHyperplane] = None


@dataclass(frozen=True)
class HullObstruction:
    """A bad visitation caught inside the hull of the good ones."""

    policy: str
    point: tuple
    coefficients: tuple


@dataclass(frozen=True)
class OverlapObstruction:
    """A common point of the good and bad hulls, with both coefficient
    vectors reproducing it."""

    point: tuple
    good_coefficients: tuple
    bad_coefficients: tuple


@dataclass(frozen=True)
class OptimalityObstruction:
    """Farkas certificate of the optimality LP: no scalar reward makes all
    good policies optimal while every bad one is strictly worse."""

    certificate: lp.FarkasCertificate


@dataclass(frozen=True)
class DesignOutcome:
    realizable: bool
    spec: Optional[RewardSpec] = None
    obstruction: object = None
    verification: Optional[RealizationReport] = None  # the verifier's report on spec

    @property
    def dimension(self) -> Optional[int]:
        return self.spec.dimension if self.spec else None


def _entries(point) -> tuple:
    return point.entries if isinstance(point, Visitation) else tuple(point)


def in_convex_hull(target, hull: PointSet, mode: NumericMode = EXACT) -> HullMembership:
    """LP membership query: exists lambda >= 0, sum lambda = 1 with
    sum lambda_i p_i = target.  A negative answer carries a separating
    hyperplane recovered from the Farkas dual."""
    t = _entries(target)
    if not hull.points:
        one = as_exact(1) if mode.exact else 1.0
        zero = 0 * one
        return HullMembership(
            member=False,
            separator=SeparatingHyperplane(normal=tuple(zero for _ in t), offset=one),
        )
    dim = len(t)
    if any(len(p) != dim for p in hull.points):
        raise ValueError("hull points and target differ in dimension")
    k = len(hull.points)
    matrix = [
        [_entries(p)[row] for p in hull.points]
        for row in range(dim)
    ]
    matrix.append([1] * k)
    rhs = list(t) + [1]
    senses = ["eq"] * (dim + 1)
    program = lp.LinearProgram.build(
        objective=[0] * k, matrix=matrix, rhs=rhs, senses=senses
    )
    feasible, witness = lp.check_feasible(program, mode)
    if feasible:
        return HullMembership(member=True, coefficients=tuple(witness))
    y = witness.row_multipliers
    w = y[:dim]
    conv = as_exact if mode.exact else as_float
    hull_scores = [
        sum((conv(wk) * conv(pk) for wk, pk in zip(w, _entries(p))), conv(0))
        for p in hull.points
    ]
    target_score = sum((conv(wk) * conv(tk) for wk, tk in zip(w, t)), conv(0))
    top = max(hull_scores)
    gap = target_score - top
    normal = tuple(-conv(wk) / gap for wk in w)
    offset = -top / gap
    return HullMembership(
        member=False,
        separator=SeparatingHyperplane(normal=normal, offset=offset),
    )


def hulls_intersect(a: PointSet, b: PointSet, mode: NumericMode = EXACT) -> HullIntersection:
    """LP: sum lambda_i p_i = sum mu_j q_j with both coefficient vectors on
    the simplex.  Disjoint hulls yield a hyperplane keeping `a` above and
    pushing `b` a unit margin below."""
    if not a.points or not b.points:
        raise ValueError("hull intersection needs two nonempty point sets")
    dim = a.dimension
    if b.dimension != dim:
        raise ValueError("point sets differ in dimension")
    ka, kb = len(a.points), len(b.points)
    matrix = [
        [_entries(p)[row] for p in a.points] + [-_entries(q)[row] for q in b.points]
        for row in range(dim)
    ]
    matrix.append([1] * ka + [0] * kb)
    matrix.append([0] * ka + [1] * kb)
    rhs = [0] * dim + [1, 1]
    senses = ["eq"] * (dim + 2)
    program = lp.LinearProgram.build(
        objective=[0] * (ka + kb), matrix=matrix, rhs=rhs, senses=senses
    )
    feasible, witness = lp.check_feasible(program, mode)
    conv = as_exact if mode.exact else as_float
    if feasible:
        lam = witness[:ka]
        mu = witness[ka:]
        point = tuple(
            sum((conv(l) * conv(_entries(p)[row]) for l, p in zip(lam, a.points)), conv(0))
            for row in range(dim)
        )
        return HullIntersection(
            intersects=True,
            point=point,
            coefficients_a=tuple(lam),
            coefficients_b=tuple(mu),
        )
    y = witness.row_multipliers
    w = y[:dim]
    score_a = [
        sum((conv(wk) * conv(pk) for wk, pk in zip(w, _entries(p))), conv(0))
        for p in a.points
    ]
    score_b = [
        sum((conv(wk) * conv(qk) for wk, qk in zip(w, _entries(q))), conv(0))
        for q in b.points
    ]
    top_a = max(score_a)
    bottom_b = min(score_b)
    gap = bottom_b - top_a
    # Farkas on the combined system guarantees a positive gap between the
    # b-side minimum and the a-side maximum along -w; rescale to margin 1.
    normal = tuple(-conv(wk) / gap for wk in w)
    offset = -top_a / gap
    return HullIntersection(
        intersects=False,
        separator=SeparatingHyperplane(normal=normal, offset=offset),
    )


def _margin_lp(keep_points, exclude_points, dim):
    """Variables (r, c), free: r.p >= c on keep rows, r.q <= c - 1 on
    exclude rows."""
    matrix = []
    senses = []
    rhs = []
    for p in keep_points:
        matrix.append(list(_entries(p)) + [-1])
        senses.append("ge")
        rhs.append(0)
    for q in exclude_points:
        matrix.append(list(_entries(q)) + [-1])
        senses.append("le")
        rhs.append(-1)
    bounds = [(None, None)] * (dim + 1)
    return lp.LinearProgram.build(
        objective=[0] * (dim + 1), matrix=matrix, rhs=rhs, senses=senses, bounds=bounds
    )


def _consistent_points(env, soap, mode):
    """The query's visitation table and its good and bad point sets, once
    the SOAP is known to be consistent."""
    soap.require_nonempty()
    table = VisitationTable(env, mode)
    report = _consistency(table, soap)
    if not report.consistent:
        raise InconsistentSoapError(report)
    return table, PointSet._of(table, soap.good), PointSet._of(table, soap.bad)


def _realized(table, soap, rows, lower_bounds) -> DesignOutcome:
    spec = RewardSpec.build(rows=rows, lower_bounds=lower_bounds)
    report = _verify(table, soap, spec)
    if not report.realized:  # pragma: no cover - guarded by construction
        raise RuntimeError("synthesized reward failed verification")
    return DesignOutcome(realizable=True, spec=spec, verification=report)


def design_scalar(env: MarkovEnv, soap: Soap, mode: NumericMode = EXACT) -> DesignOutcome:
    """Scalar feasibility-based design.

    Decides through the margin LP (r, c with good >= c and bad <= c - 1);
    when that is infeasible the hulls meet, and the intersection LP
    produces the common point as the obstruction.
    """
    table, good, bad = _consistent_points(env, soap, mode)
    dim = good.dimension
    program = _margin_lp(good.points, bad.points, dim)
    feasible, witness = lp.check_feasible(program, mode)
    if feasible:
        return _realized(table, soap, [tuple(witness[:dim])], [witness[dim]])
    crossing = hulls_intersect(good, bad, mode)
    if not crossing.intersects:  # pragma: no cover - LP duality excludes this
        raise RuntimeError("margin LP and hull-intersection LP disagree")
    return DesignOutcome(
        realizable=False,
        obstruction=OverlapObstruction(
            point=crossing.point,
            good_coefficients=crossing.coefficients_a,
            bad_coefficients=crossing.coefficients_b,
        ),
    )


def _squared_distance(p, q, conv):
    return sum(((conv(a) - conv(b)) ** 2 for a, b in zip(p, q)), conv(0))


def _greedy_groups(good: PointSet, bad: PointSet, mode: NumericMode):
    """Cover the bad points with as few separating hyperplanes as the
    greedy merge finds: grow each candidate group outward from its
    centroid in visitation distance, keeping additions whose single
    hyperplane still excludes the whole group."""
    conv = as_exact if mode.exact else as_float
    dim = good.dimension
    remaining = list(range(len(bad.points)))
    planes = []
    while remaining:
        seed = remaining[0]
        group = [seed]
        program = _margin_lp(good.points, [bad.points[seed]], dim)
        feasible, witness = lp.check_feasible(program, mode)
        if not feasible:  # pragma: no cover - caller pre-checks membership
            raise RuntimeError("bad point unexpectedly inseparable")
        group_sep = witness
        candidates = [i for i in remaining if i != seed]
        while candidates:
            centroid = [
                sum((conv(_entries(bad.points[i])[k]) for i in group), conv(0))
                / len(group)
                for k in range(dim)
            ]
            candidates.sort(
                key=lambda i: (
                    _squared_distance(_entries(bad.points[i]), centroid, conv),
                    i,
                )
            )
            accepted = None
            for pos, i in enumerate(candidates):
                trial = group + [i]
                program = _margin_lp(
                    good.points, [bad.points[g] for g in trial], dim
                )
                feasible, witness = lp.check_feasible(program, mode)
                if feasible:
                    accepted = (pos, witness)
                    break
            if accepted is None:
                break
            pos, witness = accepted
            group.append(candidates.pop(pos))
            group_sep = witness
        r = tuple(group_sep[:dim])
        c = group_sep[dim]
        # The hyperplane may exclude stragglers beyond the group it was
        # grown for; count anything a full margin below as covered.
        covered = set(group)
        for i in remaining:
            if i in covered:
                continue
            score = sum(
                (conv(rk) * conv(pk) for rk, pk in zip(r, _entries(bad.points[i]))),
                conv(0),
            )
            if score <= conv(c) - 1:
                covered.add(i)
        planes.append((r, c))
        remaining = [i for i in remaining if i not in covered]
    return planes


def design_multi(env: MarkovEnv, soap: Soap, mode: NumericMode = EXACT,
                 reduce: bool = False) -> DesignOutcome:
    """Multidimensional design: one margin LP per bad visitation against
    all good ones.  All feasible -> stack the hyperplanes (d <= |bad|);
    any infeasible -> that visitation is inside the good hull, and the
    membership LP supplies its convex coefficients as the obstruction.
    With `reduce`, a greedy merge reuses hyperplanes across bad points."""
    table, good, bad = _consistent_points(env, soap, mode)
    dim = good.dimension

    planes = []
    for name, point in zip(bad.names, bad.points):
        program = _margin_lp(good.points, [point], dim)
        feasible, witness = lp.check_feasible(program, mode)
        if not feasible:
            membership = in_convex_hull(point, good, mode)
            if not membership.member:  # pragma: no cover - LP duality excludes this
                raise RuntimeError("margin LP and membership LP disagree")
            return DesignOutcome(
                realizable=False,
                obstruction=HullObstruction(
                    policy=name,
                    point=tuple(point.entries),
                    coefficients=membership.coefficients,
                ),
            )
        planes.append((tuple(witness[:dim]), witness[dim]))

    if reduce:
        planes = _greedy_groups(good, bad, mode)

    return _realized(table, soap, [r for r, _ in planes], [c for _, c in planes])


def check_scalar_optimality(env: MarkovEnv, soap: Soap, mode: NumericMode = EXACT,
                            limit: int = 4096) -> DesignOutcome:
    """Optimality-based scalar design over deterministic SOAPs.

    One LP over (r, v): every good policy's value pinned to the shared
    optimum v, every other deterministic policy at most v, every bad
    policy at most v - 1.  Deterministic visitations are the extreme
    points of the visitation polytope, so bounding them bounds all
    stationary policies.  On success the reward realizes the SOAP in
    the feasibility sense with c = v.
    """
    for policy in soap.policies:
        if not policy.is_deterministic:
            raise DeterministicSoapRequired(
                f"policy {policy.name!r} is stochastic; optimality-based design "
                "is restricted to deterministic SOAPs"
            )
    soap.require_nonempty()
    table = VisitationTable(env, mode)
    dim = env.n_sa
    everyone = enumerate_deterministic_policies(env, limit)

    def action_key(policy):
        return tuple(policy.action_map[s] for s in env.states)

    soap_keys = {action_key(p) for p in soap.policies}

    matrix = []
    senses = []
    rhs = []

    def add_row(policy, sense, offset):
        matrix.append(list(table(policy).entries) + [-1])
        senses.append(sense)
        rhs.append(offset)

    for policy in soap.good:
        add_row(policy, "eq", 0)
    for policy in soap.bad:
        add_row(policy, "le", -1)
    for policy in everyone:
        if action_key(policy) not in soap_keys:
            add_row(policy, "le", 0)

    program = lp.LinearProgram.build(
        objective=[0] * (dim + 1),
        matrix=matrix,
        rhs=rhs,
        senses=senses,
        bounds=[(None, None)] * (dim + 1),
    )
    feasible, witness = lp.check_feasible(program, mode)
    if not feasible:
        return DesignOutcome(
            realizable=False, obstruction=OptimalityObstruction(certificate=witness)
        )
    return _realized(table, soap, [tuple(witness[:dim])], [witness[dim]])
