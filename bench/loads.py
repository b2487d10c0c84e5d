"""The three workloads: their instances, their queries and their warm-up.

A workload is a fixed, interleaved list of strata (instance family, size,
|good|, |bad|, numeric mode).  `setup` draws one instance per stratum from
the seed, turns it into rewardsep objects (and, for the CLI, bundle files),
and returns the query list.  Each query's `run` is the only code that
executes inside the timed region; turning its raw result into an
`answers.Answer` happens afterwards.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import answers
import gen

FLOAT_TOL = 1e-9
HALF, NINE_TENTHS = gen.GAMMAS


@dataclass(frozen=True)
class Stratum:
    family: str
    n_s: int
    n_a: int
    n_good: int
    n_bad: int
    gamma: Fraction = HALF
    exact: bool = True
    kinds: tuple = ()       # queries per instance; the workload's kinds if empty


def interleave(strata, copies):
    """`copies` rounds of the strata, each round in one fixed shuffled
    order, so that any prefix of the query list has about the same mix."""
    order = list(strata)
    random.Random("bench/strata-order").shuffle(order)
    return order * copies


@dataclass
class Query:
    qid: int
    kind: str
    inst: gen.Instance
    run: Callable           # () -> raw result, the timed call
    answer: Callable        # raw result -> answers.Answer

    @property
    def exact(self):
        return self.inst.exact

    @property
    def tol(self):
        return 0 if self.exact else FLOAT_TOL


# ----------------------------------------------------------------- rewardsep objects

def to_library(inst: gen.Instance):
    """MarkovEnv and Soap for one generated instance."""
    from rewardsep import MarkovEnv, Policy, Soap

    env = inst.env
    st, ac = env.states, env.actions
    transitions = {
        (st[s], ac[a]): {st[t]: p for t, p in enumerate(env.kernel[s * env.n_a + a]) if p}
        for s in range(env.n_s) for a in range(env.n_a)
    }
    menv = MarkovEnv.from_tables(st, ac, transitions, env.gamma, st[env.start])

    def policy(p):
        if p.det is not None:
            return Policy.deterministic(p.name, {st[s]: ac[a] for s, a in enumerate(p.det)})
        return Policy.stochastic(
            p.name, {st[s]: {ac[a]: p.dist[s][a] for a in range(env.n_a)} for s in range(env.n_s)}
        )

    soap = Soap.build([policy(p) for p in inst.good], [policy(p) for p in inst.bad])
    return menv, soap


def _num(x) -> str:
    return str(x) if x.denominator != 1 else str(x.numerator)


def bundle_json(inst: gen.Instance) -> str:
    """The documented bundle format, written without rewardsep."""
    env = inst.env
    st, ac = env.states, env.actions
    policies = []
    for p in inst.policies:
        if p.det is not None:
            policies.append({"name": p.name, "deterministic": {st[s]: ac[a] for s, a in enumerate(p.det)}})
        else:
            policies.append({"name": p.name, "stochastic": {
                st[s]: {ac[a]: _num(p.dist[s][a]) for a in range(env.n_a)} for s in range(env.n_s)}})
    row, bound = inst.reward
    doc = {
        "env": {
            "states": list(st), "actions": list(ac), "gamma": _num(env.gamma),
            "start": st[env.start],
            "transitions": [
                {"from": st[s], "action": ac[a],
                 "to": {st[t]: _num(p) for t, p in enumerate(env.kernel[s * env.n_a + a]) if p}}
                for s in range(env.n_s) for a in range(env.n_a)
            ],
        },
        "policies": policies,
        "soap": {"good": [p.name for p in inst.good], "bad": [p.name for p in inst.bad]},
        "reward": {
            "rows": [{st[s]: {ac[a]: _num(row[s * env.n_a + a]) for a in range(env.n_a)}
                      for s in range(env.n_s)}],
            "lower_bounds": [_num(bound)],
        },
    }
    return json.dumps(doc)


# ----------------------------------------------------------------- workloads

class Workload:
    name = ""
    kinds = ()
    # Per query, in seconds: at least five times the slowest query that
    # finishes (about 1 s for the exact workloads, 0.5 s for the CLI), so
    # that only a run-away query times out, not a slow moment of the
    # machine.  A float CLI query that ends at the simplex pivot limit
    # takes about 16 s; it times out in every run alike.
    budget_s = 5.0
    copies = 1              # rounds of the strata in the query list

    def strata(self, smoke: bool) -> list:
        raise NotImplementedError

    def make_instance(self, rng, ident, stratum):
        return gen.design_instance(rng, ident, stratum.family, stratum.n_s, stratum.n_a,
                                   stratum.gamma, stratum.n_good, stratum.n_bad)

    def instances(self, seed, strata, prefix="i") -> list:
        out = []
        for i, stratum in enumerate(strata):
            inst = self.make_instance(random.Random(f"{self.name}/{seed}/{prefix}{i}"),
                                      f"{prefix}{i}", stratum)
            inst.exact = stratum.exact
            inst.kinds = stratum.kinds or self.kinds
            out.append(inst)
        return out

    def setup(self, seed: int, workdir: str, smoke: bool = False):
        """Instances, library objects and files, then a warm-up query of
        every kind.  Returns the query list."""
        queries = self.queries(self.instances(seed, self.strata(smoke)), workdir)
        for q in self.queries(self.instances("warm-up", self.warmup_strata(), "w"), workdir):
            q.answer(q.run())
        return queries

    def queries(self, instances, workdir, first_qid=0) -> list:
        out = []
        for inst in instances:
            for kind in inst.kinds:
                out.append(self.query(first_qid + len(out), kind, inst, workdir))
        return out


class DesignExact(Workload):
    """Exact design queries; exact lp.solve dominates their time."""

    name = "design-exact"
    kinds = ("scalar", "multi", "reduce")
    copies = 8

    def strata(self, smoke):
        if smoke:
            return [Stratum(f, 4, 3, 5, 5) for f in ("threshold", "xor", "mixture")]
        # One query per instance: costs of the three kinds on one instance
        # are correlated, and distinct instances average out faster.  The
        # discount alternates between copies, so each round has both.
        # reduce runs an LP per candidate group; at |bad| = 5 its cost has
        # a tail long enough to make p90 swing from seed to seed, so it
        # stays at 4.
        combos = [(n, f, size, k)
                  for k in self.kinds for n in ((4,) if k == "reduce" else (4, 5))
                  for f in ("threshold", "xor", "mixture") for size in ((4, 3), (5, 3))]
        order = interleave([Stratum(f, s, a, n, n, kinds=(k,)) for n, f, (s, a), k in combos], 1)
        return [dataclasses.replace(st, gamma=gen.GAMMAS[(i + c) % 2])
                for c in range(self.copies) for i, st in enumerate(order)]

    def warmup_strata(self):
        return [Stratum(f, 3, 2, 2, 2) for f in ("threshold", "xor", "mixture")]

    def query(self, qid, kind, inst, workdir):
        import rewardsep.separability as sep
        from rewardsep import EXACT

        env, soap = to_library(inst)
        if kind == "scalar":
            def run():
                return sep.design_scalar(env, soap, EXACT)
        else:
            reduce = kind == "reduce"

            def run():
                return sep.design_multi(env, soap, EXACT, reduce=reduce)
        return Query(qid, kind, inst, run, answers.from_outcome)


class CliFloat(Workload):
    """Float CLI subcommands through run_command on bundle files; visitation
    and validation take about as long as the LPs."""

    name = "cli-float"
    kinds = ("consistency", "design-scalar", "design-multi", "design-multi-reduce", "verify")
    budget_s = 3.0
    copies = 7
    families = ("threshold", "xor", "threshold", "mixture")

    def strata(self, smoke):
        if smoke:
            return [Stratum(f, 8, 3, 12, 12, g, False)
                    for f, g in (("threshold", HALF), ("mixture", NINE_TENTHS))]
        return interleave([Stratum(f, 8, 3, 12, 12, g, False)
                           for f in self.families for g in gen.GAMMAS], self.copies)

    def warmup_strata(self):
        return [Stratum(f, 3, 2, 2, 2, exact=False) for f in ("threshold", "xor", "mixture")]

    def query(self, qid, kind, inst, workdir):
        from rewardsep import cli

        path = os.path.join(workdir, f"{inst.ident}.json")
        if not os.path.exists(path):
            with open(path, "w") as handle:
                handle.write(bundle_json(inst))
        command = kind.replace("-reduce", "")
        argv = [command, path, "--tol", repr(FLOAT_TOL), "--json"]
        if kind.endswith("-reduce"):
            argv.append("--reduce")

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run_command(argv)
            return code, out.getvalue(), err.getvalue()

        def answer(raw):
            code, out, err = raw
            if code not in (0, 1):
                raise answers.CheckFailed(f"exit {code}: {err.strip()}")
            payload = json.loads(out)
            result = answers.from_payload(inst.env, payload)
            if (code == 0) != result.decision:
                raise answers.CheckFailed(f"exit {code} disagrees with the report")
            return result

        return Query(qid, kind, inst, run, answer)


class Optimality(Workload):
    """Optimality-based design: enumerates |A|^|S| deterministic policies
    into one tall LP."""

    name = "optimality"
    kinds = ("optimality",)
    combos = (("opt-yes", 1), ("opt-no", 2), ("opt-yes", 2), ("opt-no", 3), ("opt-yes", 3))
    # (size, exact mode, weight).  The two cheap sizes count twice, so that
    # the median falls inside a group of similar queries rather than in
    # the gap between the cheap half and the dear half.
    sizes = (((5, 2), True, 1), ((3, 3), True, 1), ((4, 2), True, 2), ((4, 3), False, 2))
    copies = 4

    def strata(self, smoke):
        if smoke:
            return [Stratum("opt-yes", 4, 2, 2, 3), Stratum("opt-no", 3, 3, 2, 3, NINE_TENTHS),
                    Stratum("opt-yes", 4, 3, 2, 3, exact=False)]
        return interleave([Stratum(f, n_s, n_a, g, 3, gamma, exact)
                           for (n_s, n_a), exact, weight in self.sizes for _ in range(weight)
                           for f, g in self.combos for gamma in gen.GAMMAS], self.copies)

    def warmup_strata(self):
        return [Stratum("opt-yes", 3, 2, 1, 2), Stratum("opt-no", 3, 2, 2, 2),
                Stratum("opt-yes", 3, 2, 1, 2, exact=False)]

    def make_instance(self, rng, ident, stratum):
        return gen.optimality_instance(rng, ident, stratum.family, stratum.n_s, stratum.n_a,
                                       stratum.gamma, stratum.n_good, stratum.n_bad)

    def query(self, qid, kind, inst, workdir):
        import rewardsep.separability as sep
        from rewardsep import EXACT, NumericMode

        env, soap = to_library(inst)
        mode = EXACT if inst.exact else NumericMode.floating(FLOAT_TOL)
        label = "optimality-exact" if inst.exact else "optimality-float"

        def run():
            return sep.check_scalar_optimality(env, soap, mode)
        return Query(qid, label, inst, run, answers.from_outcome)


WORKLOADS = {w.name: w for w in (DesignExact(), CliFloat(), Optimality())}
