"""Answer normalisation and independent answer checks.

Answers come either as library result objects or as the JSON the CLI
prints; `from_outcome` and `from_payload` turn both into one `Answer`.
`check` then judges it against the instance alone: the exact visitations
the generator computed with its own arithmetic, and the decision each
instance was constructed to have.  Nothing here calls rewardsep.

Float answers are judged at the run's tolerance, scaled by the size of
the terms being compared.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

import gen


@dataclass(frozen=True)
class Answer:
    decision: bool
    rows: tuple = None          # reward rows in (state, action) order
    bounds: tuple = None
    obstruction: dict = None
    extra: dict = None          # consistency witnesses, verify verdicts


class CheckFailed(Exception):
    """The answer does not hold up: a certificate or spec fails its check."""


class WrongDecision(CheckFailed):
    """The yes/no answer differs from the decision the instance was built
    to have."""


# ----------------------------------------------------------------- normalise

def from_outcome(outcome) -> Answer:
    """A rewardsep `DesignOutcome`."""
    if outcome.realizable:
        spec = outcome.spec
        return Answer(True, tuple(map(tuple, spec.rows)), tuple(spec.lower_bounds))
    ob = outcome.obstruction
    kind = type(ob).__name__
    if kind == "OverlapObstruction":
        data = {"kind": "hull_overlap", "point": tuple(ob.point),
                "good": tuple(ob.good_coefficients), "bad": tuple(ob.bad_coefficients)}
    elif kind == "HullObstruction":
        data = {"kind": "bad_point_in_good_hull", "policy": ob.policy,
                "point": tuple(ob.point), "coefficients": tuple(ob.coefficients)}
    elif kind == "OptimalityObstruction":
        data = {"kind": "optimality_farkas",
                "row_multipliers": tuple(ob.certificate.row_multipliers)}
    else:
        data = {"kind": kind}
    return Answer(False, obstruction=data)


def _by_sa(env: gen.Env, table):
    return tuple(table[s][a] for s in env.states for a in env.actions)


def from_payload(env: gen.Env, payload: dict) -> Answer:
    """The `--json` report of a CLI subcommand."""
    command = payload["command"]
    if command == "consistency":
        return Answer(payload["consistent"], extra={"witnesses": payload["witnesses"]})
    if command == "verify":
        return Answer(payload["realized"], extra={"policies": payload["policies"]})
    if payload["realizable"]:
        reward = payload["reward"]
        rows = tuple(_by_sa(env, row) for row in reward["rows"])
        return Answer(True, rows, tuple(reward["lower_bounds"]),
                      extra={"verified": payload["verified"]})
    ob = dict(payload["obstruction"])
    if "point" in ob:
        ob["point"] = _by_sa(env, ob["point"])
    if ob["kind"] == "hull_overlap":
        ob["good"] = tuple(ob.pop("good_coefficients"))
        ob["bad"] = tuple(ob.pop("bad_coefficients"))
    return Answer(False, obstruction=ob)


# ----------------------------------------------------------------- checks

DECISION = {
    "scalar": "scalar", "design-scalar": "scalar",
    "multi": "multi", "reduce": "multi", "design-multi": "multi", "design-multi-reduce": "multi",
    "consistency": "consistent", "verify": "verify",
    "optimality-exact": "optimality", "optimality-float": "optimality",
}


class _Num:
    """Numbers and comparisons of one mode: exact rationals at tol == 0,
    otherwise floats compared with slack tol * (1 + scale + |a| + |b|)."""

    def __init__(self, tol):
        self.tol = tol

    def of(self, v):
        return float(v) if self.tol else Fraction(v)

    def vec(self, values):
        return [self.of(v) for v in values]

    def _slack(self, a, b, scale):
        return self.tol * (1 + scale + abs(a) + abs(b))

    def eq(self, a, b, scale=0):
        return a == b if not self.tol else abs(a - b) <= self._slack(a, b, scale)

    def ge(self, a, b, scale=0):
        return a >= b if not self.tol else a >= b - self._slack(a, b, scale)

    def lt(self, a, b, scale=0):
        return a < b if not self.tol else a < b - self._slack(a, b, scale)

    def dot(self, u, v):
        """(u . v, sum of |u_i v_i|), the second as the comparison scale."""
        terms = [a * b for a, b in zip(self.vec(u), self.vec(v))]
        return sum(terms), sum(abs(t) for t in terms)


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _combo(num, coeffs, points, target, what):
    """Coefficients on the simplex whose combination of points is target."""
    lam = num.vec(coeffs)
    _require(len(lam) == len(points), f"{what}: {len(lam)} coefficients for {len(points)} points")
    _require(all(num.ge(c, 0) for c in lam), f"{what}: negative coefficient")
    _require(num.eq(sum(lam), 1, len(lam)), f"{what}: coefficients sum to {sum(lam)}")
    for k, t in enumerate(target):
        value, scale = num.dot(lam, [p[k] for p in points])
        _require(num.eq(value, t, scale), f"{what}: combination misses the point at entry {k}")


def _check_spec(inst, answer, num):
    """Every good policy clears every bound, every bad one misses one."""
    _require(answer.rows and len(answer.rows) == len(answer.bounds), "malformed reward spec")
    for p in inst.policies:
        misses = False
        for row, c in zip(answer.rows, answer.bounds):
            value, scale = num.dot(row, inst.visit(p))
            if p in inst.good:
                _require(num.ge(value, num.of(c), scale), f"good policy {p.name} below a bound")
            misses = misses or num.lt(value, num.of(c), scale)
        _require(p in inst.good or misses, f"bad policy {p.name} clears every bound")


def _check_optimal_spec(inst, answer, num):
    """Good policies are Bellman-optimal for the reward (every state is
    visited under them, so this is optimality from the start state), and
    bad ones fall below the good value."""
    _require(len(answer.rows) == 1, "optimality spec must be scalar")
    env = inst.env
    reward = [Fraction(x) for x in num.vec(answer.rows[0])]
    top = None
    for p in inst.good:
        v = gen.state_values(env, p, reward)
        for s in range(env.n_s):
            for a in range(env.n_a):
                sa = s * env.n_a + a
                q = reward[sa] + env.gamma * gen.dot(env.kernel[sa], v)
                _require(num.ge(v[s], q), f"good policy {p.name} is not optimal at state {s}")
        top = v[env.start] if top is None else top
    for p in inst.bad:
        v = gen.state_values(env, p, reward)[env.start]
        _require(num.lt(v, top), f"bad policy {p.name} is optimal")


def _check_farkas(inst, multipliers, num):
    """Multipliers of the optimality LP over (r, v), whose rows are, in
    order: good (r.rho - v = 0), bad (r.rho - v <= -1), then every other
    deterministic policy (r.rho - v <= 0) in lexicographic order.  They
    must be nonpositive on <= rows, cancel every column, and aggregate
    to 0 <= (negative number)."""
    rows = [(inst.visit(p), "eq", 0) for p in inst.good]
    rows += [(inst.visit(p), "le", -1) for p in inst.bad]
    named = {p.det for p in inst.policies}
    rows += [(inst.visit(p), "le", 0)
             for p in gen.all_deterministic(inst.env) if p.det not in named]
    y = num.vec(multipliers)
    _require(len(y) == len(rows), f"{len(y)} multipliers for {len(rows)} rows")
    top = max(abs(v) for v in y)
    _require(top > 0, "zero certificate")
    y = [v / top for v in y]
    _require(all(sense != "le" or num.ge(0, v) for v, (_, sense, _) in zip(y, rows)),
             "multiplier of a <= row is positive")
    columns = list(zip(*[list(rho) + [-1] for rho, _, _ in rows]))
    for j, column in enumerate(columns):
        value, scale = num.dot(y, column)
        _require(num.eq(value, 0, scale), f"aggregated row is nonzero in column {j}")
    rhs, scale = num.dot(y, [b for _, _, b in rows])
    _require(num.lt(0, rhs, scale), "aggregated right-hand side is not positive")


def _check_obstruction(inst, answer, num):
    ob = answer.obstruction or {}
    kind = ob.get("kind")
    good = [num.vec(inst.visit(p)) for p in inst.good]
    if kind == "hull_overlap":
        point = num.vec(ob["point"])
        _combo(num, ob["good"], good, point, "good side")
        _combo(num, ob["bad"], [num.vec(inst.visit(p)) for p in inst.bad], point, "bad side")
    elif kind == "bad_point_in_good_hull":
        named = {p.name: p for p in inst.bad}
        _require(ob["policy"] in named, f"unknown bad policy {ob['policy']!r}")
        point = num.vec(ob["point"])
        fresh = num.vec(inst.visit(named[ob["policy"]]))
        _require(all(num.eq(a, b) for a, b in zip(point, fresh)),
                 "obstruction point is not the bad policy's visitation")
        _combo(num, ob["coefficients"], good, point, "good hull")
    elif kind == "optimality_farkas":
        _check_farkas(inst, ob["row_multipliers"], num)
    else:
        raise CheckFailed(f"unexpected obstruction {kind!r}")


def check(inst, kind: str, answer: Answer, tol: float):
    """Raise CheckFailed unless the answer is right for this instance."""
    expected = inst.decisions[DECISION[kind]]
    if answer.decision != expected:
        raise WrongDecision(f"decision {answer.decision}, constructed as {expected}")
    num = _Num(tol)
    if kind == "consistency":
        _require(not answer.extra["witnesses"], "witnesses on a consistent SOAP")
    elif kind == "verify":
        row, _ = inst.reward
        verdicts = {v["name"]: v for v in answer.extra["policies"]}
        for p in inst.policies:
            value, scale = num.dot(row, inst.visit(p))
            got = num.of(verdicts[p.name]["values"][0])
            _require(num.eq(got, value, scale), f"value of {p.name} is {got}, expected {value}")
    elif not answer.decision:
        _check_obstruction(inst, answer, num)
    else:
        _check_spec(inst, answer, num)
        _require((answer.extra or {}).get("verified", True), "report says the verifier failed")
        if DECISION[kind] == "optimality":
            _check_optimal_spec(inst, answer, num)


def fingerprint(answer: Answer, exact: bool) -> str:
    """Decision and shape of the answer; in exact mode also a hash of
    every number in it, so a change of witness shows."""
    shape = "yes" if answer.decision else "no"
    if answer.rows is not None:
        shape += f":d={len(answer.rows)}"
    if answer.obstruction is not None:
        shape += f":{answer.obstruction['kind']}"
    if not exact:
        return shape
    body = repr((answer.rows, answer.bounds, sorted((answer.obstruction or {}).items())))
    return shape + ":" + hashlib.sha256(body.encode()).hexdigest()[:16]
