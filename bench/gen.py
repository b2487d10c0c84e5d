"""Seeded instance generator with its own exact MDP arithmetic.

Nothing here imports rewardsep: the generator builds plain data (rational
transition kernels, per-state action distributions) and computes every
visitation and value itself, exactly by fraction-free elimination or in
floating point with numpy, so the answer checks never reuse the code path
that produced an answer.

Every instance carries the decisions it was built to have:

* ``threshold`` (scalar yes, multi yes): good and bad are the top and
  bottom halves of a random deterministic sample ranked by a random
  reward, so that reward and a midpoint threshold separate them;
* ``xor`` (scalar no, multi yes): two good and two bad deterministic
  policies form the four corners of a two-state action swap.  Their
  visitations span a quadrilateral face whose diagonals, one good and one
  bad, cross, so the hulls meet; deterministic bad points are vertices of
  the visitation polytope and so never lie in the good hull;
* ``mixture`` (scalar no, multi no): one bad policy is the 1/3 : 2/3
  mixture, at one state, of two good policies that differ only there.
  Its visitation lies on the segment between theirs, inside the good hull;
* ``opt-yes`` (optimality yes): good policies are optimal for a random
  reward (ties are planted to get two or three of them), bad ones are
  strictly worse from the start state;
* ``opt-no`` (optimality no): good policies g1, g2 differ at two states
  and a bad policy takes g1's action at one and g2's at the other.  With
  every state visited by g1 and g2, optimality of both forces the hybrid
  to be optimal too, so no reward works.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

F = Fraction
GAMMAS = (F(1, 2), F(9, 10))
FLOAT_MARGIN = 1e-6


@dataclass(frozen=True)
class Env:
    n_s: int
    n_a: int
    kernel: tuple      # row s*n_a + a -> successor probabilities
    gamma: Fraction
    start: int = 0

    @property
    def states(self):
        return tuple(f"s{i}" for i in range(self.n_s))

    @property
    def actions(self):
        return tuple(f"a{i}" for i in range(self.n_a))


@dataclass(frozen=True)
class Pol:
    """A stationary policy: ``dist[s][a]`` is the probability of action a
    at state s; ``det`` holds the action indices of a deterministic one."""

    name: str
    dist: tuple
    det: tuple = None


@dataclass
class Instance:
    ident: str
    family: str
    env: Env
    good: tuple
    bad: tuple
    decisions: dict                      # query kind -> expected decision
    reward: tuple = None                 # (row, bound) embedded for `verify`
    exact: bool = True                   # numeric mode the queries use
    kinds: tuple = ()                    # the queries asked of this instance
    _rho: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> str:
        return f"{self.env.n_s}x{self.env.n_a}"

    @property
    def policies(self):
        return self.good + self.bad

    def visit(self, pol: Pol) -> tuple:
        """The policy's visitation, computed on first use: exact for
        exact-mode instances, in floating point for float-mode ones."""
        if pol.name not in self._rho:
            solve = visitation if self.exact else visitation_float
            self._rho[pol.name] = solve(self.env, pol)
        return self._rho[pol.name]


# ----------------------------------------------------------------- arithmetic

def solve_exact(rows, rhs):
    """Fraction-free (Bareiss) elimination on the system scaled to
    integers, then rational back substitution."""
    n = len(rows)
    a = []
    for row, b in zip(rows, rhs):
        den = math.lcm(*(v.denominator for v in row), b.denominator)
        a.append([int(v * den) for v in row] + [int(b * den)])
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        a[k], a[piv] = a[piv], a[k]
        top, p = a[k], a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(p * u - f * v) // prev for u, v in zip(a[i], top)]
        prev = p
    x = [F(0)] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = F(acc) / a[i][i]
    return x


def _p_pi(env: Env, pol: Pol):
    n_a = env.n_a
    if pol.det is not None:
        return [env.kernel[s * n_a + a] for s, a in enumerate(pol.det)]
    return [
        [sum(pol.dist[s][a] * env.kernel[s * n_a + a][t] for a in range(n_a))
         for t in range(env.n_s)]
        for s in range(env.n_s)
    ]


def state_visitation(env: Env, pol: Pol):
    """d = e_start + gamma P_pi^T d."""
    p = _p_pi(env, pol)
    n = env.n_s
    rows = [[F(int(s == t)) - env.gamma * p[t][s] for t in range(n)] for s in range(n)]
    return solve_exact(rows, [F(int(s == env.start)) for s in range(n)])


def visitation(env: Env, pol: Pol) -> tuple:
    d = state_visitation(env, pol)
    return tuple(d[s] * pol.dist[s][a] for s in range(env.n_s) for a in range(env.n_a))


def visitation_float(env: Env, pol: Pol) -> tuple:
    """The same flow solve in floating point, for float-mode instances."""
    import numpy as np

    p = np.array(_p_pi(env, pol), dtype=float)
    system = np.eye(env.n_s) - float(env.gamma) * p.T
    d = np.linalg.solve(system, np.eye(env.n_s)[env.start])
    dist = np.array(pol.dist, dtype=float)
    return tuple(float(x) for x in (d[:, None] * dist).ravel())


def state_values(env: Env, pol: Pol, reward) -> list:
    """V = r_pi + gamma P_pi V for a reward indexed like visitations."""
    p = _p_pi(env, pol)
    n = env.n_s
    r_pi = [sum(pol.dist[s][a] * reward[s * env.n_a + a] for a in range(env.n_a))
            for s in range(n)]
    rows = [[F(int(s == t)) - env.gamma * p[s][t] for t in range(n)] for s in range(n)]
    return solve_exact(rows, r_pi)


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


# ----------------------------------------------------------------- building

def random_env(rng: random.Random, n_s: int, n_a: int, gamma: Fraction) -> Env:
    """Dense random kernel with small integer weights, as in
    scripts/random_realizability.py."""
    kernel = []
    for _ in range(n_s * n_a):
        w = [rng.randint(0, 4) for _ in range(n_s)]
        if sum(w) == 0:
            w[rng.randrange(n_s)] = 1
        kernel.append(tuple(F(x, sum(w)) for x in w))
    return Env(n_s, n_a, tuple(kernel), gamma)


def det_policy(env: Env, choice, name=None) -> Pol:
    choice = tuple(choice)
    dist = tuple(
        tuple(F(int(a == c)) for a in range(env.n_a)) for c in choice
    )
    return Pol(name or "d" + "".join(map(str, choice)), dist, choice)


def _random_choice(rng, env):
    return tuple(rng.randrange(env.n_a) for _ in range(env.n_s))


def _fill(rng, env, taken, count):
    """`count` deterministic policies whose action tuples avoid `taken`."""
    out = []
    while len(out) < count:
        c = _random_choice(rng, env)
        if c not in taken:
            taken.add(c)
            out.append(det_policy(env, c))
    return out


def _all_positive(d) -> bool:
    return all(x > 0 for x in d)


def _swap(choice, s, a):
    c = list(choice)
    c[s] = a
    return tuple(c)


def _other_action(rng, env, a):
    return rng.choice([x for x in range(env.n_a) if x != a])


def design_instance(rng, ident, family, n_s, n_a, gamma, n_good, n_bad) -> Instance:
    """A separation instance of the given family (see the module doc).

    The construction ranks and compares floating-point visitations and
    demands a relative margin of FLOAT_MARGIN wherever the argument needs
    a strict inequality, far above rounding error, so the decisions hold
    exactly."""
    while True:
        env = random_env(rng, n_s, n_a, gamma)
        inst = _try_design(rng, ident, family, env, n_good, n_bad)
        if inst is not None:
            return inst


def _apart(x, y) -> bool:
    """x > y by a relative margin."""
    return x - y > FLOAT_MARGIN * (1 + abs(x) + abs(y))


def _try_design(rng, ident, family, env, n_good, n_bad):
    vis = visitation_float
    taken = set()
    reward = None
    rho = {}
    if family == "threshold":
        pool = _fill(rng, env, taken, n_good + n_bad)
        r = tuple(F(rng.randint(-9, 9)) for _ in range(env.n_s * env.n_a))
        rho.update((p.name, vis(env, p)) for p in pool)
        ranked = sorted(pool, key=lambda p: dot(r, rho[p.name]), reverse=True)
        good, bad = ranked[:n_good], ranked[n_good:]
        lo, hi = dot(r, rho[good[-1].name]), dot(r, rho[bad[0].name])
        if not _apart(lo, hi):
            return None
        reward = (r, F((lo + hi) / 2))
        decisions = {"scalar": True, "multi": True}
    elif family == "xor":
        s, t = rng.sample(range(env.n_s), 2)
        base = _random_choice(rng, env)
        a2, b2 = _other_action(rng, env, base[s]), _other_action(rng, env, base[t])
        corners = {
            (i, j): _swap(_swap(base, s, (base[s], a2)[i]), t, (base[t], b2)[j])
            for i in (0, 1) for j in (0, 1)
        }
        taken.update(corners.values())
        good = [det_policy(env, corners[0, 0]), det_policy(env, corners[1, 1])]
        bad = [det_policy(env, corners[0, 1]), det_policy(env, corners[1, 0])]
        good += _fill(rng, env, taken, n_good - 2)
        bad += _fill(rng, env, taken, n_bad - 2)
        decisions = {"scalar": False, "multi": True}
    elif family == "mixture":
        s = rng.randrange(env.n_s)
        g1 = _random_choice(rng, env)
        g2 = _swap(g1, s, _other_action(rng, env, g1[s]))
        taken.update((g1, g2))
        dist = [list(row) for row in det_policy(env, g1).dist]
        dist[s] = [F(0)] * env.n_a
        dist[s][g1[s]] += F(1, 3)
        dist[s][g2[s]] += F(2, 3)
        mix = Pol("mix", tuple(tuple(row) for row in dist))
        good = [det_policy(env, g1), det_policy(env, g2)] + _fill(rng, env, taken, n_good - 2)
        bad = [mix] + _fill(rng, env, taken, n_bad - 1)
        rng.shuffle(bad)
        decisions = {"scalar": False, "multi": False}
    else:
        raise ValueError(f"unknown design family {family!r}")
    for p in good + bad:
        if p.name not in rho:
            rho[p.name] = vis(env, p)
    for g in good:
        for b in bad:
            if not any(_apart(abs(x - y), 0) for x, y in zip(rho[g.name], rho[b.name])):
                return None
    if reward is None:
        # Any scalar reward fails on these families: their hulls meet.
        reward = (tuple(F(rng.randint(-9, 9)) for _ in range(env.n_s * env.n_a)), F(0))
    decisions.update(consistent=True, verify=decisions["scalar"])
    return Instance(ident, family, env, tuple(good), tuple(bad), decisions, reward)


def optimality_instance(rng, ident, family, n_s, n_a, gamma, n_good, n_bad) -> Instance:
    while True:
        env = random_env(rng, n_s, n_a, gamma)
        inst = _try_optimality(rng, ident, family, env, n_good, n_bad)
        if inst is not None:
            return inst


def _optimal_values(env: Env, reward):
    """Policy iteration from action 0 everywhere; returns (V*, Q*)."""
    choice = (0,) * env.n_s
    while True:
        v = state_values(env, det_policy(env, choice), reward)
        q = [[reward[s * env.n_a + a] + env.gamma * dot(env.kernel[s * env.n_a + a], v)
              for a in range(env.n_a)] for s in range(env.n_s)]
        better = tuple(
            choice[s] if q[s][choice[s]] == max(q[s]) else q[s].index(max(q[s]))
            for s in range(env.n_s)
        )
        if better == choice:
            return v, q
        choice = better


def _try_optimality(rng, ident, family, env, n_good, n_bad):
    taken = set()
    if family == "opt-yes":
        reward = [F(rng.randint(-9, 9)) for _ in range(env.n_s * env.n_a)]
        v, q = _optimal_values(env, reward)
        best = [q[s].index(max(q[s])) for s in range(env.n_s)]
        # Plant ties so that several deterministic policies are optimal.
        tied = rng.sample(range(env.n_s), min(2, env.n_s))
        options = [[a] for a in best]
        for s in tied:
            a = _other_action(rng, env, best[s])
            row = env.kernel[s * env.n_a + a]
            reward[s * env.n_a + a] = q[s][best[s]] - env.gamma * dot(row, v)
            options[s].append(a)
        optimal = list(itertools.product(*options))
        rng.shuffle(optimal)
        good = [det_policy(env, c) for c in optimal[:n_good]]
        taken.update(optimal)
        bad = _fill(rng, env, taken, n_bad)
        if any(not _all_positive(state_visitation(env, p)) for p in good):
            return None
        start = v[env.start]
        if any(state_values(env, p, reward)[env.start] >= start for p in bad):
            return None
        decisions = {"optimality": True}
    elif family == "opt-no":
        s, t = rng.sample(range(env.n_s), 2)
        g1 = _random_choice(rng, env)
        g2 = _swap(_swap(g1, s, _other_action(rng, env, g1[s])), t,
                   _other_action(rng, env, g1[t]))
        hybrid = _swap(g1, s, g2[s])
        taken.update((g1, g2, hybrid))
        good = [det_policy(env, g1), det_policy(env, g2)]
        good += _fill(rng, env, taken, n_good - 2)
        bad = [det_policy(env, hybrid)] + _fill(rng, env, taken, n_bad - 1)
        rng.shuffle(bad)
        if any(not _all_positive(state_visitation(env, p)) for p in good[:2]):
            return None
        decisions = {"optimality": False}
    else:
        raise ValueError(f"unknown optimality family {family!r}")
    return Instance(ident, family, env, tuple(good), tuple(bad), decisions)


def all_deterministic(env: Env):
    """Every deterministic policy, in lexicographic action order."""
    return [det_policy(env, c) for c in itertools.product(range(env.n_a), repeat=env.n_s)]
