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
(R, c) can be rescaled.  One margin LP decides each hull query: its
witness is the separating hyperplane as it stands, and when it is
infeasible its Farkas multipliers, normalised, are the convex coefficients
of a common point.  Scalar negatives alone still solve the intersection
LP after it, because that LP's vertex is the common point reported; the
Farkas coefficients would name another, equally valid one.  Each
synthesized spec is re-checked through the verifier before it is returned.

The multidimensional design decides its stochastic bad points first, in
bad order, and then its deterministic ones.  For a deterministic bad
policy pi_b, the reward r_b(s, a) = [a != pi_b(s)] scores pi_b's
visitation at 0 and every other visitation above 0, since a policy that
puts no mass off pi_b's actions has pi_b's visitation (the paper's
construction).  So pi_b's visitation lies in the good hull only if it
equals a good visitation, which the consistency check refuses, and in
exact arithmetic the first member in bad order is the first stochastic
member.  Float mode takes r_b, scaled, as the plane of each
deterministic bad point and solves no LP for it; exact mode solves one
margin LP per point, in bad order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp, mdp
from .mdp import (
    MarkovEnv,
    RewardSpec,
    Visitation,
    VisitationTable,
    enumerate_deterministic_policies,
)
from .numeric import EXACT, NumericMode
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
        return PointSet(tuple(p.name for p in policies), tuple(table.many(policies)))

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


def _margin_lp(keep_points, exclude_points, dim):
    """Variables (r, c), free: r.p >= c on keep rows, r.q <= c - 1 on
    exclude rows."""
    return lp.LinearProgram.build(
        matrix=[(*_entries(p), -1) for p in (*keep_points, *exclude_points)],
        rhs=[0] * len(keep_points) + [-1] * len(exclude_points),
        senses=[lp.GE] * len(keep_points) + [lp.LE] * len(exclude_points),
        free=[True] * (dim + 1),
    )


def _separate(keep, exclude, dim, mode):
    """Decide one hull query with one margin LP.

    Feasible: the witness (r, c) already keeps `keep` at or above c and
    `exclude` at or below c - 1, so it is returned as the separator:
    (separator, None).  Infeasible: the Farkas multipliers y aggregate the
    free r- and c-columns to zero and the right-hand side to a positive
    gap, i.e. sum y_p p = sum (-y_q) q and sum y_p = sum (-y_q) > 0 over
    the `ge` (keep) and `le` (exclude) rows.  Normalised, the `ge` rows
    give lambda and the `le` rows mu, convex coefficients of one common
    point; the callers need lambda only: (None, lambda).
    """
    feasible, witness = lp.check_feasible(_margin_lp(keep, exclude, dim), mode)
    if feasible:
        separator = SeparatingHyperplane(normal=tuple(witness[:dim]), offset=witness[dim])
        return separator, None
    lam = witness.row_multipliers[:len(keep)]
    total = sum(lam)
    return None, mode.share_zero(v / total for v in lam)


def _indicator_plane(env, policy, goods, tol):
    """The plane of a deterministic bad policy pi_b without an LP, from
    the indicator reward r_b(s, a) = [a != pi_b(s)]: r_b scores pi_b's
    visitation at 0 and each good one at least m, the least row sum of
    `goods` (the float good visitations, one per row) off pi_b's actions.
    With k = ceil(1 / m), normal k r_b and offset k m keep every good
    point, and pi_b's scores 0 <= k m - 1.  None when m is within `tol`
    of 0 (or so small that 1 / m overflows): that point needs its LP."""
    indicator = [float(a != policy.action_map[s]) for s in env.states for a in env.actions]
    m = float((goods @ indicator).min())
    if m <= tol or math.isinf(1 / m):
        return None
    k = math.ceil(1 / m)
    if k * m < 1:  # 1 / m rounded down onto an integer
        k += 1
    return SeparatingHyperplane(normal=tuple(k * r for r in indicator), offset=k * m)


def in_convex_hull(target, hull: PointSet, mode: NumericMode = EXACT) -> HullMembership:
    """Is `target` a convex combination of the hull points?  Decided by one
    margin LP keeping the hull and excluding the target: a negative answer
    carries its witness as the separating hyperplane, a positive one the
    convex coefficients read from its Farkas multipliers."""
    t = _entries(target)
    dim = len(t)
    if any(len(p) != dim for p in hull.points):
        raise ValueError("hull points and target differ in dimension")
    separator, lam = _separate(hull.points, [t], dim, mode)
    if separator is None:
        return HullMembership(member=True, coefficients=lam)
    return HullMembership(member=False, separator=separator)


def hulls_intersect(a: PointSet, b: PointSet, mode: NumericMode = EXACT) -> HullIntersection:
    """Decided by one margin LP keeping `a` and excluding `b`: disjoint
    hulls yield its witness, a hyperplane keeping `a` above and pushing
    `b` a unit margin below.  Meeting hulls solve the intersection LP,
    sum lambda_i p_i = sum mu_j q_j with both coefficient vectors on the
    simplex, for the common point: its vertex is the witness reported,
    where the margin LP's Farkas multipliers would give another, equally
    valid one."""
    if not a.points or not b.points:
        raise ValueError("hull intersection needs two nonempty point sets")
    dim = a.dimension
    if b.dimension != dim:
        raise ValueError("point sets differ in dimension")
    separator, _ = _separate(a.points, b.points, dim, mode)
    if separator is not None:
        return HullIntersection(intersects=False, separator=separator)
    ka, kb = len(a.points), len(b.points)
    matrix = [
        (*(_entries(p)[row] for p in a.points), *(-_entries(q)[row] for q in b.points))
        for row in range(dim)
    ]
    matrix += [(1,) * ka + (0,) * kb, (0,) * ka + (1,) * kb]
    program = lp.LinearProgram.build(
        matrix=matrix, rhs=[0] * dim + [1, 1], senses=[lp.EQ] * (dim + 2),
        free=[False] * (ka + kb),
    )
    feasible, witness = lp.check_feasible(program, mode)
    if not feasible:  # pragma: no cover - LP duality excludes this
        raise RuntimeError("margin LP and hull-intersection LP disagree")
    conv = mode.convert
    lam = witness[:ka]
    mu = witness[ka:]
    point = mode.share_zero(
        sum((conv(l) * conv(_entries(p)[row]) for l, p in zip(lam, a.points)), mode.zero)
        for row in range(dim)
    )
    return HullIntersection(
        intersects=True,
        point=point,
        coefficients_a=tuple(lam),
        coefficients_b=tuple(mu),
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
    """Scalar feasibility-based design: `hulls_intersect(good, bad)`.

    One margin LP (r, c with good >= c and bad <= c - 1) decides; its
    witness is the reward.  When it is infeasible the hulls meet, and the
    intersection LP's vertex is the common point given as the obstruction.
    """
    table, good, bad = _consistent_points(env, soap, mode)
    crossing = hulls_intersect(good, bad, mode)
    if not crossing.intersects:
        separator = crossing.separator
        return _realized(table, soap, [separator.normal], [separator.offset])
    return DesignOutcome(
        realizable=False,
        obstruction=OverlapObstruction(
            point=crossing.point,
            good_coefficients=crossing.coefficients_a,
            bad_coefficients=crossing.coefficients_b,
        ),
    )


def _squared_distance(p, q, zero):
    return sum(((a - b) ** 2 for a, b in zip(p, q)), zero)


def _nearest_first(points, group, candidates, zero):
    """`candidates` sorted by squared distance to the centroid of `group`,
    ties broken by index."""
    dim = len(points[group[0]])
    centroid = [sum((points[i][k] for i in group), zero) / len(group) for k in range(dim)]
    return sorted(candidates, key=lambda i: (_squared_distance(points[i], centroid, zero), i))


def _chain(points, group, candidates, zero):
    """The order in which the merge would add `candidates` to `group` if
    every trial were accepted: each step takes the candidate nearest to
    the centroid of the group grown so far."""
    group, rest, chain = list(group), list(candidates), []
    while rest:
        nearest = _nearest_first(points, group, rest, zero)[0]
        rest.remove(nearest)
        group.append(nearest)
        chain.append(nearest)
    return chain


def _greedy_groups(good: PointSet, bad: PointSet, planes, mode: NumericMode):
    """Cover the bad points with as few separating hyperplanes as the
    greedy merge finds: grow each candidate group outward from its
    centroid in visitation distance, keeping additions whose single
    hyperplane still excludes the whole group.  `planes[i]` is the first
    pass's hyperplane for bad point i, which starts the group seeded there.

    Acceptance is monotone: if no hyperplane keeps the good hull and
    excludes G + {i}, none excludes any superset of G + {i}, whose margin
    rows include those of G + {i}.  The merge uses this twice.

    * From each group state it computes the chain, the order in which the
      candidates would join if every trial were accepted (`_chain`), and
      solves the trial of the whole chain first.  Only if that is refused
      does it bisect on the prefix length for the longest accepted prefix;
      the prefixes of a chain are nested, so those accepted form an
      initial run.  The chain's next member is then known to be refused
      with the grown group, and the other candidates are tried one at a
      time, nearest first.
    * A candidate refused once is not tried again for the same group:
      with a larger group it could only be refused again.

    In exact mode the last accepted trial of each group is the same LP,
    rows in the same order, as that of the loop that tries each candidate
    in turn, so the hyperplanes and the spec are the same.  In float mode
    they can differ only where drift breaks monotonicity, accepting a
    trial that contains a refused one.  A refused point stays in
    `remaining` and may seed or join a later group: it was refused with a
    subset of the group, so by monotonicity the group's hyperplane does
    not exclude it too, and a group covers its members only."""
    zero = mode.zero
    dim = good.dimension
    points = [_entries(p) for p in bad.points]

    def trial(members):
        separator, _ = _separate(good.points, [bad.points[g] for g in members], dim, mode)
        return separator

    remaining = list(range(len(bad.points)))
    merged = []
    while remaining:
        seed = remaining[0]
        group = [seed]
        group_sep = planes[seed]
        candidates = [i for i in remaining if i != seed]
        while candidates:
            chain = _chain(points, group, candidates, zero)
            # The prefixes up to `accepted` are accepted, from `refused` on
            # refused; the whole chain is probed first.
            accepted, refused, probe = 0, len(chain) + 1, len(chain)
            while refused - accepted > 1:
                separator = trial(group + chain[:probe])
                if separator is None:
                    refused = probe
                else:
                    accepted, group_sep = probe, separator
                probe = (accepted + refused) // 2
            group += chain[:accepted]
            if accepted == len(chain):
                break
            # chain[accepted] heads the candidates and was refused.
            candidates = _nearest_first(points, group, chain[accepted:], zero)
            for pos, i in enumerate(candidates[1:], 1):
                separator = trial(group + [i])
                if separator is not None:
                    break
            else:
                break
            group_sep = separator
            group.append(i)
            # candidates[:pos] were refused with a subset of the new group.
            candidates = candidates[pos + 1:]
        merged.append(group_sep)
        remaining = [i for i in remaining if i not in group]
    return merged


def design_multi(env: MarkovEnv, soap: Soap, mode: NumericMode = EXACT,
                 reduce: bool = False) -> DesignOutcome:
    """Multidimensional design: `in_convex_hull` of each bad visitation
    against all good ones, i.e. one separating plane per bad point (a
    margin LP, or in float mode the indicator plane of a deterministic
    one; see below).  All outside
    -> stack their hyperplanes (d <= |bad|); one inside -> the convex
    coefficients read from that LP's Farkas multipliers are the
    obstruction.  With `reduce`, a greedy merge starts from these
    hyperplanes and reuses them across bad points (`_greedy_groups`).
    From each group state it solves the margin LP of the whole chain,
    the candidates in the order they would join if every trial were
    accepted, and bisects on the prefix length only if that LP is
    refused.  A prefix's exclude rows are a subset of a longer prefix's,
    so acceptance is monotone along the chain, and in exact mode the
    spec is the one that trying each candidate in turn gives; in float
    mode it can differ only where drift breaks that monotonicity.

    The stochastic bad points are decided first, one LP each in bad
    order, and the first inside the hull is the obstruction.  Only then
    are the deterministic bad points decided, in bad order: in float mode
    each by its indicator plane (`_indicator_plane`), with no LP, unless
    the good points come within the tolerance of pi_b's actions; in exact
    mode, and in float mode there, by its margin LP.  By the vertex
    argument a deterministic bad point is never inside the good hull of a
    consistent SOAP, so in exact arithmetic the obstruction is the one
    the bad order gives, and a negative with a stochastic member pays for
    no deterministic LP."""
    table, good, bad = _consistent_points(env, soap, mode)
    dim = good.dimension
    goods = None if mode.exact else np.array([p.entries for p in good.points])

    planes = [None] * len(bad)
    # Stochastic bad points first; each kind in bad order.
    for i in sorted(range(len(bad)), key=lambda i: soap.bad[i].is_deterministic):
        policy = soap.bad[i]
        if goods is not None and policy.is_deterministic:
            planes[i] = _indicator_plane(env, policy, goods, mode.tolerance)
        if planes[i] is None:
            planes[i], coefficients = _separate(good.points, [bad.points[i]], dim, mode)
            if coefficients is not None:
                return DesignOutcome(realizable=False, obstruction=HullObstruction(
                    policy=bad.names[i], point=tuple(bad.points[i].entries),
                    coefficients=coefficients))

    if reduce:
        planes = _greedy_groups(good, bad, planes, mode)

    return _realized(
        table, soap, [p.normal for p in planes], [p.offset for p in planes]
    )


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
    others = [p for p in everyone if action_key(p) not in soap_keys]
    # The enumerated policies are valid by construction; the SOAP's are validated.
    rhos = table.many(soap.policies) + mdp._visitations(table, others)
    program = lp.LinearProgram.build(
        matrix=[(*rho.entries, -1) for rho in rhos],
        rhs=[0] * len(soap.good) + [-1] * len(soap.bad) + [0] * len(others),
        senses=[lp.EQ] * len(soap.good) + [lp.LE] * (len(soap.bad) + len(others)),
        free=[True] * (dim + 1),
    )
    feasible, witness = lp.check_feasible(program, mode)
    if not feasible:
        return DesignOutcome(
            realizable=False, obstruction=OptimalityObstruction(certificate=witness)
        )
    return _realized(table, soap, [tuple(witness[:dim])], [witness[dim]])
