"""SOAP instances (disjoint good/bad policy sets) and their consistency.

A SOAP is consistent when no good policy shares its visitation vector with
a bad one; only then can any feasibility region tell the two sets apart.
Duplicate visitations *within* one set are harmless and reported only as
information.  Exact mode compares visitations as tuples; float mode
decides all pairs of two sets with one array comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        # Each table is built once, in the order the pairs first need it,
        # so a policy whose table raises is the one the pairs reach first.
        bad_tables = []
        for g in (good if bad else ()):
            table = g.canonical_table()
            for j, b in enumerate(bad):
                if j == len(bad_tables):
                    bad_tables.append(b.canonical_table())
                if table == bad_tables[j]:
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


def _matches(a, b, mode: NumericMode, upper=False):
    """Index pairs (i, j), i-major, with visitation a[i] equal to b[j]; only
    j > i when `upper`.  Float mode stacks the visitations as float64 rows,
    so every pair's infinity-norm test is one broadcast subtraction."""
    if mode.exact:
        return [(i, j) for i in range(len(a))
                for j in range(i + 1 if upper else 0, len(b)) if a[i] == b[j]]
    close = np.abs(a[:, None] - b[None]).max(-1) <= mode.tolerance
    return zip(*np.nonzero(np.triu(close, 1) if upper else close))


def check_consistency(env: MarkovEnv, soap: Soap,
                      mode: NumericMode = EXACT) -> ConsistencyReport:
    """Compare every good/bad visitation pair (exact equality, or
    infinity-norm within the mode tolerance)."""
    return _consistency(soap, VisitationTable(env, mode).many(soap.policies), mode)


def _consistency(soap: Soap, rhos, mode: NumericMode) -> ConsistencyReport:
    """`rhos` are the visitations of `soap.policies`, in order.  Exact mode
    compares visitation tuples.  Float mode makes the same IEEE
    subtractions and tests as max(|x - y|) <= tolerance over each pair's
    entries, on one float64 row per policy."""
    rhos = [rho.entries for rho in rhos]
    good, bad = rhos[:len(soap.good)], rhos[len(soap.good):]
    if not mode.exact:  # rows of width 1 when there are no policies at all
        width = len(rhos[0]) if rhos else 1
        good, bad = (np.array(v, float).reshape(-1, width) for v in (good, bad))

    def names(a, b, pairs):
        return tuple((a[i].name, b[j].name) for i, j in pairs)

    witnesses = names(soap.good, soap.bad, _matches(good, bad, mode))
    return ConsistencyReport(
        consistent=not witnesses,
        witnesses=witnesses,
        duplicate_good=names(soap.good, soap.good, _matches(good, good, mode, True)),
        duplicate_bad=names(soap.bad, soap.bad, _matches(bad, bad, mode, True)),
    )
