"""Check a candidate reward/lower-bound pair against a SOAP.

Feasibility is CMDP-style: a policy passes iff every value component
clears its lower bound.  A spec realizes a SOAP when all good policies
are feasible and all bad policies are not.  Boundary ties (value exactly
at the bound) count as feasible; in float mode near-boundary dimensions
are additionally flagged so callers can fall back to exact mode, which is
authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mdp import (
    MarkovEnv,
    RewardSpec,
    VisitationTable,
    value_of_visitation,
)
from .numeric import EXACT, NumericMode, as_float
from .soap import Soap


@dataclass(frozen=True)
class PolicyVerdict:
    name: str
    label: str
    values: tuple
    feasible: bool
    violated_dims: tuple
    boundary_dims: tuple = ()


@dataclass(frozen=True)
class RealizationReport:
    realized: bool
    verdicts: tuple

    def verdict_for(self, name: str) -> PolicyVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


def _judge(values, bounds, mode: NumericMode):
    """Dimensions short of their bound by more than the tolerance, and in
    float mode those within it (exact ties are not flagged)."""
    tol, near = mode.tolerance, not mode.exact
    violated, boundary = [], []
    for i, (v, c) in enumerate(zip(values, bounds)):
        c = as_float(c) if near else c
        if v < c - tol:
            violated.append(i)
        if near and abs(v - c) <= tol:
            boundary.append(i)
    return tuple(violated), tuple(boundary)


def verify_realization(env: MarkovEnv, soap: Soap, spec: RewardSpec,
                       mode: NumericMode = EXACT) -> RealizationReport:
    """Per-policy values and verdicts; realized iff the good/bad pattern
    holds exactly."""
    return _verify(VisitationTable(env, mode), soap, spec)


def _verify(table: VisitationTable, soap: Soap, spec: RewardSpec) -> RealizationReport:
    mode = table.mode
    spec.require_width(table.env)
    verdicts = []
    realized = True
    rhos = iter(table.many(soap.policies))
    for label, policies in (("good", soap.good), ("bad", soap.bad)):
        for policy in policies:
            values = value_of_visitation(next(rhos), spec, mode)
            violated, boundary = _judge(values, spec.lower_bounds, mode)
            feasible = not violated
            if (label == "good") != feasible:
                realized = False
            verdicts.append(
                PolicyVerdict(
                    name=policy.name,
                    label=label,
                    values=values,
                    feasible=feasible,
                    violated_dims=violated,
                    boundary_dims=boundary,
                )
            )
    return RealizationReport(realized=realized, verdicts=tuple(verdicts))

