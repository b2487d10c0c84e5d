"""Reward-free Markov environments, stationary policies, and visitations.

The central quantity is the discounted expected state-action visitation

    rho(s, a) = E[ sum_t gamma^t Pr(S_t = s, A_t = a) ]   from the start state,

whose state marginal d solves the flow system d = e_start + gamma * P_pi^T d.
For gamma < 1 the matrix I - gamma * P_pi^T is strictly column diagonally
dominant (column slack exactly 1 - gamma), hence invertible, so rho is
computed by direct elimination, never iteratively.  Both backends build
one flow system and one residual over the kernel, gamma and policy over
common denominators: exact mode over integers, solved fraction-free, and
float mode over the float values with unit denominators.  Gamma and the
kernel are converted once per `VisitationTable` (see `_ScaledEnv`).  The
self-check every visitation passes (normalisation and per-state flow) is
computed independently of the solve, from the converted inputs alone; in
exact mode it is an integer identity.
Every value question reduces to inner products with rho: V_i = r_i . rho.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .numeric import EXACT, ONE, ZERO, Number, NumericMode, as_exact, as_float

# Float-mode validation tolerance: fixed, so that a looser comparison
# tolerance accepts no other environments and policies.
_VALIDATION_TOL = 1e-9


class EnvError(ValueError):
    """Environment is structurally unusable for computation."""


class PolicyError(ValueError):
    """Policy does not fit the environment it is evaluated on."""


class LimitExceededError(ValueError):
    """Deterministic-policy enumeration would exceed the caller's cap."""


@dataclass(frozen=True)
class MarkovEnv:
    """Finite reward-free environment <S, A, T, gamma, start>.

    ``kernel`` is dense: one row per (state, action) in canonical row-major
    order (states outermost), one column per successor state.  The same
    canonical order indexes every vector and matrix in the package.
    """

    states: tuple
    actions: tuple
    kernel: tuple
    gamma: Number
    start: str

    @staticmethod
    def from_tables(states, actions, transitions, gamma, start) -> "MarkovEnv":
        """Build from a {(state, action): {successor: prob}} table.

        Every (state, action) pair must be present; omitted rows are an
        error rather than an implicit self-loop.
        """
        states = tuple(states)
        actions = tuple(actions)
        rows = []
        for s in states:
            for a in actions:
                if (s, a) not in transitions:
                    raise EnvError(f"missing transition row for ({s}, {a})")
                dist = transitions[(s, a)]
                unknown = set(dist) - set(states)
                if unknown:
                    raise EnvError(
                        f"transition from ({s}, {a}) targets unknown states {sorted(unknown)}"
                    )
                rows.append(tuple(dist.get(s2, 0) for s2 in states))
        return MarkovEnv(states, actions, tuple(rows), gamma, start)

    @cached_property
    def _state_index(self):
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def _action_index(self):
        return {a: i for i, a in enumerate(self.actions)}

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_sa(self) -> int:
        return len(self.states) * len(self.actions)

    def state_index(self, state) -> int:
        try:
            return self._state_index[state]
        except KeyError:
            raise EnvError(f"unknown state {state!r}") from None

    def action_index(self, action) -> int:
        try:
            return self._action_index[action]
        except KeyError:
            raise EnvError(f"unknown action {action!r}") from None

    def sa_index(self, state, action) -> int:
        return self.state_index(state) * self.n_actions + self.action_index(action)

    def sa_pairs(self):
        return tuple((s, a) for s in self.states for a in self.actions)


@dataclass(frozen=True)
class EnvReport:
    ok: bool
    violations: tuple


def validate_env(env: MarkovEnv, mode: NumericMode = EXACT) -> EnvReport:
    """Check stochasticity, discount range, and start membership.

    Report-based: callers that need a hard failure use `require_valid_env`.
    """
    violations = []
    if not env.states:
        violations.append("no states declared")
    if not env.actions:
        violations.append("no actions declared")
    if len(set(env.states)) != len(env.states):
        violations.append("duplicate state names")
    if len(set(env.actions)) != len(env.actions):
        violations.append("duplicate action names")
    if env.start not in env.states:
        violations.append(f"start state {env.start!r} is not a declared state")

    try:
        gamma = mode.convert(env.gamma)
        if not (0 <= gamma < 1):
            violations.append("gamma out of range [0, 1)")
    except ValueError as exc:
        violations.append(f"gamma unusable: {exc}")

    expected_rows = env.n_sa
    if len(env.kernel) != expected_rows:
        violations.append(
            f"kernel has {len(env.kernel)} rows, expected {expected_rows}"
        )
    else:
        tol = 0 if mode.exact else _VALIDATION_TOL
        for (s, a), row in zip(env.sa_pairs(), env.kernel):
            if len(row) != env.n_states:
                violations.append(f"transition row for ({s}, {a}) has wrong width")
                continue
            try:
                probs = [mode.convert(p) for p in row]
            except ValueError as exc:
                violations.append(f"transition row for ({s}, {a}) unusable: {exc}")
                continue
            if any(p < -tol for p in probs):
                violations.append(f"negative probability in row ({s}, {a})")
            total = sum(probs)
            if abs(total - 1) > tol:
                violations.append(f"transition row for ({s}, {a}) sums to {total}")
    return EnvReport(ok=not violations, violations=tuple(violations))


def require_valid_env(env: MarkovEnv, mode: NumericMode = EXACT):
    report = validate_env(env, mode)
    if not report.ok:
        raise EnvError("; ".join(report.violations))


@dataclass(frozen=True)
class Policy:
    """Stationary policy: deterministic state->action map or a
    row-stochastic table state -> {action: prob}.  The two kinds are kept
    distinct so determinism is checkable syntactically."""

    name: str
    action_map: Optional[dict] = None
    table: Optional[dict] = None

    def __post_init__(self):
        if (self.action_map is None) == (self.table is None):
            raise PolicyError(
                f"policy {self.name!r} must be deterministic or stochastic, not both"
            )

    @staticmethod
    def deterministic(name, mapping) -> "Policy":
        return Policy(name=name, action_map=dict(mapping))

    @staticmethod
    def stochastic(name, table) -> "Policy":
        return Policy(name=name, table={s: dict(row) for s, row in table.items()})

    @property
    def is_deterministic(self) -> bool:
        return self.action_map is not None

    def validate_for(self, env: MarkovEnv, mode: NumericMode = EXACT):
        tol = 0 if mode.exact else _VALIDATION_TOL
        if self.is_deterministic:
            for s in env.states:
                if s not in self.action_map:
                    raise PolicyError(f"policy {self.name!r} undefined at state {s!r}")
                if self.action_map[s] not in env.actions:
                    raise PolicyError(
                        f"policy {self.name!r} picks unknown action "
                        f"{self.action_map[s]!r} at state {s!r}"
                    )
            extra = set(self.action_map) - set(env.states)
            if extra:
                raise PolicyError(
                    f"policy {self.name!r} mentions unknown states {sorted(extra)}"
                )
            return
        for s in env.states:
            if s not in self.table:
                raise PolicyError(f"policy {self.name!r} undefined at state {s!r}")
            row = self.table[s]
            extra = set(row) - set(env.actions)
            if extra:
                raise PolicyError(
                    f"policy {self.name!r} mentions unknown actions {sorted(extra)}"
                )
            probs = [mode.convert(row.get(a, 0)) for a in env.actions]
            if any(p < -tol for p in probs):
                raise PolicyError(f"policy {self.name!r} has a negative probability at {s!r}")
            total = sum(probs)
            if abs(total - 1) > tol:
                raise PolicyError(
                    f"policy {self.name!r} row at {s!r} sums to {total}, expected 1"
                )
        extra = set(self.table) - set(env.states)
        if extra:
            raise PolicyError(
                f"policy {self.name!r} mentions unknown states {sorted(extra)}"
            )

    def distribution_row(self, env: MarkovEnv, state):
        """Action distribution at `state` in the env's action order
        (one-hot for deterministic policies)."""
        if self.is_deterministic:
            chosen = self.action_map[state]
            return tuple(1 if a == chosen else 0 for a in env.actions)
        row = self.table[state]
        return tuple(row.get(a, 0) for a in env.actions)

    def canonical_table(self):
        """Kind-independent functional form, for duplicate detection.  A
        float probability stands for its exact binary value."""
        if self.is_deterministic:
            return {s: {a: ONE} for s, a in self.action_map.items()}
        table = {}
        for s, row in self.table.items():
            exact = {a: self._exact_probability(p) for a, p in row.items()}
            table[s] = {a: p for a, p in exact.items() if p}
        return table

    def _exact_probability(self, p) -> Fraction:
        if not isinstance(p, float):
            return as_exact(p)
        if not math.isfinite(p):
            raise PolicyError(f"policy {self.name!r} has a non-finite probability {p!r}")
        return Fraction(p)


@dataclass(frozen=True)
class Visitation:
    """rho vector in canonical (state, action) order; entries are
    nonnegative and sum to 1/(1-gamma)."""

    entries: tuple

    def __getitem__(self, index):
        return self.entries[index]

    def __len__(self):
        return len(self.entries)

    def as_floats(self) -> np.ndarray:
        return np.array([as_float(v) for v in self.entries], dtype=float)


@dataclass(frozen=True)
class RewardSpec:
    """d-dimensional reward with lower bounds: a policy is feasible iff
    rows @ rho >= lower_bounds componentwise."""

    rows: tuple
    lower_bounds: tuple

    @staticmethod
    def build(rows, lower_bounds) -> "RewardSpec":
        rows = tuple(tuple(r) for r in rows)
        lower_bounds = tuple(lower_bounds)
        if not rows or len(rows) != len(lower_bounds):
            raise ValueError("reward rows and lower bounds must pair up, d >= 1")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("reward rows differ in width")
        for r in rows:
            for v in r:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError("non-finite reward entry")
        for v in lower_bounds:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError("non-finite lower bound")
        return RewardSpec(rows, lower_bounds)

    @property
    def dimension(self) -> int:
        return len(self.rows)


def compute_visitation(env: MarkovEnv, policy: Policy, mode: NumericMode = EXACT) -> Visitation:
    """Solve the state flow system and multiply in the action choices.

    d = e_start + gamma * P_pi^T d,   rho(s, a) = pi(a | s) * d(s).

    The result is checked against the flow identities before returning, so
    every visitation the package ever produces satisfies them.
    """
    require_valid_env(env, mode)
    return _visitation(env, policy, mode)


def _visitation(env: MarkovEnv, policy: Policy, mode: NumericMode) -> Visitation:
    """`compute_visitation` on an environment already validated.

    With gamma = g_n / g_d, T = K / D_T and pi = Q_pi / Q (see
    `NumericMode.scaled`), d solves (g_d D I - g_n (D P_pi)^T) d =
    g_d D e_start for D = D_T Q, where D P_pi = Q_pi K row by row."""
    policy.validate_for(env, mode)
    env = _scaled(env, mode)
    n_s, n_a = env.n_states, env.n_actions
    g_n, g_d, kernel, d_t = env.g_n, env.g_d, env.scaled_kernel, env.d_t
    flat, q = mode.scaled([p for s in env.states for p in policy.distribution_row(env, s)])
    pol = [flat[s * n_a:(s + 1) * n_a] for s in range(n_s)]
    p_pi = [[0] * n_s for _ in range(n_s)]  # D P_pi, summed over actions in order
    for s in range(n_s):
        for a, p in enumerate(pol[s]):
            if p:
                for s2, t in enumerate(kernel[s * n_a + a]):
                    if t:
                        p_pi[s][s2] += p * t
    scale = g_d * d_t * q
    system = [
        [(scale if s == s2 else 0) - g_n * p_pi[s2][s] for s2 in range(n_s)]
        for s in range(n_s)
    ]
    start = env.state_index(env.start)
    rhs = [scale if s == start else 0 for s in range(n_s)]
    d = linalg.solve_square(system, rhs, mode)

    # rho(s, a) = d(s) * Q_pi(s, a) / Q
    if mode.exact:
        entries = [
            ZERO if not p or not ds
            else ds if p == q
            else Fraction(ds.numerator * p, ds.denominator * q)
            for ds, row in zip(d, pol) for p in row
        ]
    else:
        entries = [ds * p for ds, row in zip(d, pol) for p in row]
    rho = Visitation(tuple(entries))
    _self_check(env, rho, mode)
    return rho


def _scaled_kernel(env: MarkovEnv, mode: NumericMode):
    """(K, D_T): T(k, s2) == K[k][s2] / D_T, k in (s, a) order."""
    flat, den = mode.scaled([p for row in env.kernel for p in row])
    n_s = env.n_states
    return [flat[k * n_s:(k + 1) * n_s] for k in range(env.n_sa)], den


@dataclass(frozen=True, eq=False)
class _ScaledEnv(MarkovEnv):
    """An environment with gamma and its kernel converted for the one mode
    it is solved in: gamma == g_n / g_d and T(k, s2) ==
    scaled_kernel[k][s2] / d_t (see `NumericMode.scaled`).  The visitation
    solve, its self-check and `flow_residuals` read these instead of
    converting again."""

    g_n: Number
    g_d: Number
    scaled_kernel: list
    d_t: Number


def _scaled(env: MarkovEnv, mode: NumericMode) -> _ScaledEnv:
    """`env` converted for `mode`, unless it already is."""
    if isinstance(env, _ScaledEnv):
        return env
    (g_n,), g_d = mode.scaled([env.gamma])
    kernel, d_t = _scaled_kernel(env, mode)
    return _ScaledEnv(env.states, env.actions, env.kernel, env.gamma, env.start,
                      g_n, g_d, kernel, d_t)


class VisitationTable:
    """The visitations of one query's policies, keyed by policy name: each
    is solved the first time it is asked for (a different policy under a
    known name is solved afresh, not stored).  Before the first solve the
    environment is validated, and gamma and the kernel are converted, once
    per table.  Build one per query; it is never shared across calls."""

    def __init__(self, env: MarkovEnv, mode: NumericMode = EXACT):
        self.env = env
        self.mode = mode
        self._rows = {}
        self._scaled = None

    def __call__(self, policy: Policy) -> Visitation:
        known = self._rows.get(policy.name)
        if known is not None and known[0] == policy:
            return known[1]
        if not self._rows:  # nothing solved yet: this is the first solve
            require_valid_env(self.env, self.mode)
            self._scaled = _scaled(self.env, self.mode)
        rho = _visitation(self._scaled, policy, self.mode)
        self._rows.setdefault(policy.name, (policy, rho))
        return rho


def _self_check(env, rho, mode):
    """Refuse a visitation that breaks normalisation or flow conservation.

    sum(rho) == 1 / (1 - gamma) reads sum(R) * (g_d - g_n) == g_d * q for
    rho = R / q, gamma = g_n / g_d; exact mode tests it in integers."""
    env = _scaled(env, mode)
    g_n, g_d = env.g_n, env.g_d
    nums, q = mode.scaled(rho.entries)
    total = sum(nums)
    if mode.exact:
        tol = scale = 0
        broken = total * (g_d - g_n) != g_d * q
    else:
        tol = max(_VALIDATION_TOL, 10 * mode.tolerance)
        scale = abs(g_d / (g_d - g_n))
        broken = abs(total - scale) > tol * scale
    if broken:
        raise RuntimeError(
            f"visitation normalization violated: sum={mode.ratio(total, q)}, "
            f"expected={mode.ratio(g_d, g_d - g_n)}"
        )
    residuals = flow_residuals(env, rho, mode)
    for s, r in zip(env.states, residuals):
        if abs(r) > tol * scale:
            raise RuntimeError(f"Bellman flow violated at state {s}: residual {r}")


def flow_residuals(env: MarkovEnv, rho: Visitation, mode: NumericMode = EXACT):
    """Per-state residual of
    sum_a rho(s, a) - 1[s = start] - gamma * sum_{s', a'} T(s', a', s) rho(s', a').

    It is computed independently of the solve: with rho = R / q, T = K / D_T
    and gamma = g_n / g_d (see `NumericMode.scaled`), the residual times
    g_d D_T q is g_d D_T (sum_a R(s, a) - q 1[s = start]) - g_n sum K R."""
    env = _scaled(env, mode)
    n_s, n_a = env.n_states, env.n_actions
    g_n, g_d, kernel, d_t = env.g_n, env.g_d, env.scaled_kernel, env.d_t
    nums, q = mode.scaled(rho.entries)
    inflow = [0] * n_s
    for row, r in zip(kernel, nums):
        if r:
            for s2, t in enumerate(row):
                if t:
                    inflow[s2] += t * r
    start = env.state_index(env.start)
    scale = g_d * d_t
    out = []
    for s in range(n_s):
        outflow = sum(nums[s * n_a:(s + 1) * n_a]) - (q if s == start else 0)
        out.append(mode.ratio(scale * outflow - g_n * inflow[s], scale * q))
    return tuple(out)


def policy_value(env: MarkovEnv, policy: Policy, reward: RewardSpec,
                 mode: NumericMode = EXACT) -> tuple:
    """V_i(start) = r_i . rho, one entry per reward dimension."""
    if any(len(row) != env.n_sa for row in reward.rows):
        raise ValueError(
            f"reward rows have width {len(reward.rows[0])}, environment needs {env.n_sa}"
        )
    rho = compute_visitation(env, policy, mode)
    return value_of_visitation(rho, reward, mode)


def value_of_visitation(rho: Visitation, reward: RewardSpec,
                        mode: NumericMode = EXACT) -> tuple:
    """r_i . rho per reward row: over integers in exact mode, with one
    division per row.  Only the terms where rho is nonzero are summed, from
    0; in float mode that adds as +0.0, so the sum never becomes -0.0 and
    its bits are those of the full sum."""
    entries, den = mode.scaled(rho.entries)
    support = [(k, e) for k, e in enumerate(entries) if e]
    out = []
    for row in reward.rows:
        if len(row) != len(entries):
            raise ValueError("reward row width does not match the visitation")
        nums, row_den = mode.scaled(row)
        total = sum(nums[k] * e for k, e in support)
        out.append(mode.ratio(total, den * row_den))
    return tuple(out)


def enumerate_deterministic_policies(env: MarkovEnv, limit: int = 4096):
    """All |A|^|S| deterministic policies in lexicographic action order,
    deterministically named.  Refuses (without enumerating) past `limit`."""
    count = env.n_actions ** env.n_states
    if count > limit:
        raise LimitExceededError(
            f"{count} deterministic policies exceed the limit of {limit}"
        )
    out = []
    for choice in itertools.product(env.actions, repeat=env.n_states):
        name = "pi[" + ",".join(str(a) for a in choice) + "]"
        out.append(Policy.deterministic(name, dict(zip(env.states, choice))))
    return out
