"""SOAP instances (disjoint good/bad policy sets) and their consistency.

A SOAP is consistent when no good policy shares its visitation vector with
a bad one; only then can any feasibility region tell the two sets apart.
Duplicate visitations *within* one set are harmless and reported only as
information.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mdp import MarkovEnv, VisitationTable
from .numeric import EXACT, NumericMode


class SoapError(ValueError):
    """Structurally invalid SOAP (shared names or identical policies
    across the two sets)."""


@dataclass(frozen=True)
class Soap:
    good: tuple
    bad: tuple

    @staticmethod
    def build(good, bad) -> "Soap":
        good = tuple(good)
        bad = tuple(bad)
        names = [p.name for p in good] + [p.name for p in bad]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise SoapError(f"duplicate policy names across the SOAP: {dup}")
        for g in good:
            for b in bad:
                if g.canonical_table() == b.canonical_table():
                    raise SoapError(
                        f"policies {g.name!r} (good) and {b.name!r} (bad) are "
                        "the same function; the two sets must be disjoint"
                    )
        return Soap(good=good, bad=bad)

    @property
    def policies(self) -> tuple:
        return self.good + self.bad

    def require_nonempty(self):
        if not self.good or not self.bad:
            raise SoapError("design queries need nonempty good and bad sets")


@dataclass(frozen=True)
class ConsistencyReport:
    """`witnesses` lists every (good, bad) name pair with equal
    visitations; the SOAP is consistent iff it is empty."""

    consistent: bool
    witnesses: tuple
    duplicate_good: tuple = ()
    duplicate_bad: tuple = ()


def _equal(a, b, mode: NumericMode) -> bool:
    if mode.exact:
        return a.entries == b.entries
    return max(abs(x - y) for x, y in zip(a.entries, b.entries)) <= mode.tolerance


def check_consistency(env: MarkovEnv, soap: Soap,
                      mode: NumericMode = EXACT) -> ConsistencyReport:
    """Compare every good/bad visitation pair (exact equality, or
    infinity-norm within the mode tolerance)."""
    return _consistency(VisitationTable(env, mode), soap)


def _consistency(table: VisitationTable, soap: Soap) -> ConsistencyReport:
    mode = table.mode
    good_rho = [(p.name, table(p)) for p in soap.good]
    bad_rho = [(p.name, table(p)) for p in soap.bad]
    witnesses = tuple(
        (gn, bn)
        for gn, gr in good_rho
        for bn, br in bad_rho
        if _equal(gr, br, mode)
    )

    def within(pairs):
        return tuple(
            (pairs[i][0], pairs[j][0])
            for i in range(len(pairs))
            for j in range(i + 1, len(pairs))
            if _equal(pairs[i][1], pairs[j][1], mode)
        )

    return ConsistencyReport(
        consistent=not witnesses,
        witnesses=witnesses,
        duplicate_good=within(good_rho),
        duplicate_bad=within(bad_rho),
    )
