"""Reward-free Markov environments, stationary policies, and visitations.

The central quantity is the discounted expected state-action visitation

    rho(s, a) = E[ sum_t gamma^t Pr(S_t = s, A_t = a) ]   from the start state,

whose state marginal d solves the flow system d = e_start + gamma * P_pi^T d.
For gamma < 1 the matrix I - gamma * P_pi^T is strictly column diagonally
dominant (column slack exactly 1 - gamma), hence invertible, so rho is
computed by direct elimination, never iteratively.  Both backends build
the flow systems and the residuals of a query's policies as one stack of
arrays over the kernel, gamma and policies on common denominators: exact
mode over integers (object arrays), the whole stack solved by one
batched fraction-free elimination that returns integer solutions y and
determinants det, and float mode over the float values with unit
denominators, the whole stack solved by one numpy call.  Every route
from an environment to its visitations, `compute_visitation` and
`flow_residuals` included, goes through a `VisitationTable`: it validates
the environment once and keeps the kernel as validation converted it.
The self-check every visitation passes (normalisation and per-state
flow) is one vectorised test of the stack, computed independently of the
solve from the converted inputs alone, through the residual routine
`flow_residuals` uses; in exact mode it is an integer identity on the
numerators y * Q_pi over det * Q, and a Fraction is formed only for each
nonzero entry returned.
Every value question reduces to inner products with rho: V_i = r_i . rho.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .numeric import (
    EXACT, ONE, ZERO, Number, NumericMode, as_exact, as_float, format_number,
    over_common_denominator,
)

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
    """`kernel` is the transition kernel as the check read it (see
    `_converted_kernel`), kept for the solve that follows; None when the
    kernel has the wrong number of rows."""

    ok: bool
    violations: tuple
    kernel: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def validate_env(env: MarkovEnv, mode: NumericMode = EXACT) -> EnvReport:
    """Check stochasticity, discount range, and start membership.

    Report-based: callers that need a hard failure use `require_valid_env`.
    The kernel is converted once, by `_converted_kernel`; the sign and
    row-sum tests then run on that array, each row sum added in column
    order.
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
        return EnvReport(ok=False, violations=tuple(violations))
    kernel, unusable = _converted_kernel(env, mode)
    tol = 0 if mode.exact else _VALIDATION_TOL
    negative = (kernel < -tol).any(axis=1).tolist()
    totals = np.zeros(len(kernel), kernel.dtype)
    for column in kernel.T:
        totals += column
    rows = iter(zip(negative, totals.tolist()))
    for k, (s, a) in enumerate(env.sa_pairs()):
        if k in unusable:
            violations.append(f"transition row for ({s}, {a}) {unusable[k]}")
            continue
        has_negative, total = next(rows)
        if has_negative:
            violations.append(f"negative probability in row ({s}, {a})")
        if abs(total - 1) > tol:
            violations.append(
                f"transition row for ({s}, {a}) sums to {format_number(total)}")
    return EnvReport(ok=not violations, violations=tuple(violations), kernel=kernel)


def require_valid_env(env: MarkovEnv, mode: NumericMode = EXACT) -> np.ndarray:
    """Raise `EnvError` with every violation, or return the kernel as
    `validate_env` read it."""
    report = validate_env(env, mode)
    if not report.ok:
        raise EnvError("; ".join(report.violations))
    return report.kernel


def _converted_kernel(env: MarkovEnv, mode: NumericMode):
    """(kernel, unusable): the transition rows that convert, read once by
    `mode` into one (rows, |S|) array (float64 in float mode, Fractions in
    exact mode), and by row index why each other row does not.  A float
    row holding NaN or an infinity does not: NaN passes every sign and
    sum test."""
    rows, kept, unusable = [], [], {}
    exact = mode.exact
    for k, row in enumerate(env.kernel):
        if len(row) != env.n_states:
            unusable[k] = "has wrong width"
            continue
        try:
            rows.append([as_exact(p) for p in row] if exact else mode.scaled(row)[0])
            kept.append(k)
        except ValueError as exc:
            unusable[k] = f"unusable: {exc}"
    kernel = np.array(rows, dtype=object if exact else float).reshape(len(rows), env.n_states)
    if not exact:
        finite = np.isfinite(kernel).all(axis=1)
        if not finite.all():
            for i in (~finite).nonzero()[0].tolist():
                unusable[kept[i]] = "has a non-finite probability"
            unusable = dict(sorted(unusable.items()))
            kernel = kernel[finite]
    return kernel, unusable


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
            if any(p != p for p in probs):  # NaN passes the sign and sum tests
                raise PolicyError(f"policy {self.name!r} has a non-finite probability at {s!r}")
            total = sum(probs)
            if abs(total - 1) > tol:
                raise PolicyError(
                    f"policy {self.name!r} row at {s!r} sums to {format_number(total)}, "
                    "expected 1"
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

    def require_width(self, env: MarkovEnv):
        """Refuse rows that are not one entry per (state, action) of `env`."""
        if any(len(row) != env.n_sa for row in self.rows):
            raise ValueError(
                f"reward rows have width {len(self.rows[0])}, environment needs {env.n_sa}"
            )


def compute_visitation(env: MarkovEnv, policy: Policy, mode: NumericMode = EXACT) -> Visitation:
    """Solve the state flow system and multiply in the action choices.

    d = e_start + gamma * P_pi^T d,   rho(s, a) = pi(a | s) * d(s).

    The result is checked against the flow identities before returning, so
    every visitation the package ever produces satisfies them.
    """
    return VisitationTable(env, mode)(policy)


class VisitationTable:
    """The visitations of one query's policies, keyed by policy name: each
    is solved the first time it is asked for (a different policy under a
    known name is solved afresh, not stored).  Before the first solve the
    environment is validated, and gamma and the kernel converted, once per
    table: gamma == g_n / g_d and T(k, s2) == scaled_kernel[k, s2] / d_t
    (see `NumericMode.scaled`), an (|S||A|, |S|) array of floats, or of
    ints in exact mode.  Build one per query; it is never shared across
    calls."""

    def __init__(self, env: MarkovEnv, mode: NumericMode = EXACT):
        self.env = env
        self.mode = mode
        self._rows = {}
        self.scaled_kernel = None

    def __call__(self, policy: Policy) -> Visitation:
        return self.many([policy])[0]

    def many(self, policies) -> list:
        """The visitations of `policies`, in order.  Those not known yet
        are validated in order, after the environment, and then solved
        together, in one `_visitations` call."""
        policies = list(policies)
        out = []
        for policy in policies:
            known = self._rows.get(policy.name)
            out.append(known[1] if known is not None and known[0] == policy else None)
        fresh = [p for p, rho in zip(policies, out) if rho is None]
        if not fresh:
            return out
        self._convert()
        for policy in fresh:
            policy.validate_for(self.env, self.mode)
        solved = iter(_visitations(self, fresh))
        for i, (policy, rho) in enumerate(zip(policies, out)):
            if rho is None:
                out[i] = next(solved)
                self._rows.setdefault(policy.name, (policy, out[i]))
        return out

    def _convert(self):
        """Validate the environment and convert gamma and the kernel, the
        first time only."""
        if self.scaled_kernel is not None:
            return
        kernel = require_valid_env(self.env, self.mode)
        (self.g_n,), self.g_d = self.mode.scaled([self.env.gamma])
        self.d_t = 1
        if self.mode.exact:
            flat, self.d_t = over_common_denominator(kernel.ravel().tolist())
            kernel = np.array(flat, object).reshape(kernel.shape)
        self.scaled_kernel = kernel


def _visitations(table: VisitationTable, policies) -> list:
    """The visitations of `policies`, in order, on the table's converted
    environment; the policies are valid for it.

    With gamma = g_n / g_d, T = K / D_T and pi = Q_pi / Q (see
    `NumericMode.scaled`), d solves (g_d D I - g_n (D P_pi)^T) d =
    g_d D e_start for D = D_T Q, where D P_pi = Q_pi K row by row.  The
    systems are built as one stack and solved in one call: float mode by
    numpy, exact mode fraction-free, to integer y and det with d = y / det,
    whose numerators y Q_pi over det Q go to the self-check as they are."""
    if not policies:
        return []
    env, mode = table.env, table.mode
    k, n_s, n_a = len(policies), env.n_states, env.n_actions
    pol, q = _policy_rows(env, policies, mode)
    kernel = table.scaled_kernel.reshape(n_s, n_a, n_s)
    p_pi = np.zeros((k, n_s, n_s), pol.dtype)  # D P_pi, summed over actions in order
    for a in range(n_a):
        p_pi += pol[:, :, a, None] * kernel[:, a]
    scale = table.g_d * table.d_t * q
    system = (scale[:, None, None] * np.eye(n_s, dtype=pol.dtype)
              - table.g_n * p_pi.transpose(0, 2, 1))
    rhs = np.zeros((k, n_s), pol.dtype)
    rhs[:, env.state_index(env.start)] = scale

    if mode.exact:  # d = y / det, so rho(s, a) = y(s) Q_pi(s, a) / (det Q)
        d, det = linalg.solve_square(system, rhs, mode)
        q = det * q
    else:
        d = linalg.solve_square(system, rhs, mode)
    nums = (d[:, :, None] * pol).reshape(k, env.n_sa)
    if mode.exact:
        rhos = [tuple(Fraction(v, den) if v else ZERO for v in row)
                for row, den in zip(nums.tolist(), q.tolist())]
    else:
        rhos = [tuple(row) for row in nums.tolist()]
    _self_check(table, nums, q)
    return [Visitation(rho) for rho in rhos]


def _policy_rows(env: MarkovEnv, policies, mode: NumericMode):
    """(pol, q) with pi_i(a | s) == pol[i, s, a] / q[i]: a (k, |S|, |A|)
    array, float64 in float mode and of ints in exact mode (see
    `NumericMode.scaled`).  A deterministic row is one-hot, set from the
    chosen action's index without converting anything."""
    n_s, n_a = env.n_states, env.n_actions
    dtype = float if not mode.exact else object
    pol = np.zeros((len(policies), n_s, n_a), dtype)
    q = np.ones(len(policies), dtype)
    index = env._action_index
    chosen = {i: [index[policy.action_map[s]] for s in env.states]
              for i, policy in enumerate(policies) if policy.is_deterministic}
    if chosen:
        pol[np.array(list(chosen))[:, None], np.arange(n_s), list(chosen.values())] = 1
    for i, policy in enumerate(policies):
        if i not in chosen:
            flat, q[i] = mode.scaled(
                [p for s in env.states for p in policy.distribution_row(env, s)])
            pol[i] = np.array(flat, dtype).reshape(n_s, n_a)
    return pol, q


def _self_check(table: VisitationTable, nums, q):
    """Refuse visitations rho_i = nums[i] / q[i] that break normalisation
    or flow conservation: the whole stack is tested at once, and the first
    visitation at fault is reported.

    sum(rho) == 1 / (1 - gamma) reads sum(R) * (g_d - g_n) == g_d * q for
    rho = R / q, gamma = g_n / g_d; exact mode tests it in integers.  The
    flow residuals are those of `flow_residuals`, from `_imbalance`."""
    mode, g_n, g_d = table.mode, table.g_n, table.g_d
    total = nums.sum(axis=1)
    num, den = _imbalance(table, nums, q)
    if mode.exact:
        tol = scale = 0
        unnormal = total * (g_d - g_n) != g_d * q
    else:
        tol = max(_VALIDATION_TOL, 10 * mode.tolerance)
        scale = abs(g_d / (g_d - g_n))
        unnormal = abs(total - scale) > tol * scale
    unbalanced = abs(num) > tol * scale * den[:, None]
    faulty = unnormal | unbalanced.any(axis=1)
    if not faulty.any():
        return
    i = int(np.argmax(faulty))
    q_i = q.tolist()[i]
    if unnormal[i]:
        raise RuntimeError(
            f"visitation normalization violated: sum={mode.ratio(total.tolist()[i], q_i)}, "
            f"expected={mode.ratio(g_d, g_d - g_n)}"
        )
    s = int(np.argmax(unbalanced[i]))
    residual = mode.ratio(num[i].tolist()[s], den.tolist()[i])
    raise RuntimeError(
        f"Bellman flow violated at state {table.env.states[s]}: residual {residual}")


def flow_residuals(env: MarkovEnv, rho: Visitation, mode: NumericMode = EXACT):
    """Per-state residual of
    sum_a rho(s, a) - 1[s = start] - gamma * sum_{s', a'} T(s', a', s) rho(s', a').

    The environment is validated first, as for a solve; the residuals are
    computed independently of the solve, by `_imbalance`."""
    table = VisitationTable(env, mode)
    table._convert()
    entries, q = mode.scaled(rho.entries)
    dtype = object if mode.exact else float
    num, den = _imbalance(table, np.array([entries], dtype), np.array([q], dtype))
    den = den.tolist()[0]
    return tuple(mode.ratio(r, den) for r in num[0].tolist())


def _imbalance(table: VisitationTable, nums, q):
    """(num, den): the flow residual of rho_i = nums[i] / q[i] at state s
    is num[i, s] / den[i], for every visitation of the stack at once.

    With T = K / D_T and gamma = g_n / g_d (see `NumericMode.scaled`), the
    residual times g_d D_T q is g_d D_T (sum_a R(s, a) - q 1[s = start]) -
    g_n sum K R.  Exact mode takes the inflow as one product of ints; float
    mode adds both sums in index order, which fixes their bits."""
    env = table.env
    if table.mode.exact:
        inflow = nums @ table.scaled_kernel
    else:
        inflow = np.zeros((len(nums), env.n_states), nums.dtype)
        for k, row in enumerate(table.scaled_kernel):
            inflow += nums[:, k, None] * row
    outflow = np.zeros_like(inflow)
    for a in range(env.n_actions):
        outflow += nums[:, a::env.n_actions]
    outflow[:, env.state_index(env.start)] -= q
    scale = table.g_d * table.d_t
    return scale * outflow - table.g_n * inflow, scale * q


def policy_value(env: MarkovEnv, policy: Policy, reward: RewardSpec,
                 mode: NumericMode = EXACT) -> tuple:
    """V_i(start) = r_i . rho, one entry per reward dimension."""
    reward.require_width(env)
    return value_of_visitation(compute_visitation(env, policy, mode), reward, mode)


def value_of_visitation(rho: Visitation, reward: RewardSpec,
                        mode: NumericMode = EXACT) -> tuple:
    """r_i . rho per reward row: over integers in exact mode, with one
    division per row.  Only the terms where rho is nonzero are summed, from
    0; in float mode that adds as +0.0, so the sum never becomes -0.0 and
    its bits are those of the full sum."""
    entries, den = mode.scaled(rho.entries)
    support = [(k, e) for k, e in enumerate(entries) if e]
    if reward.rows and len(reward.rows[0]) != len(entries):  # RewardSpec.build: one width
        raise ValueError("reward row width does not match the visitation")
    out = []
    for row in reward.rows:
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
