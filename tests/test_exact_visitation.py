"""Exact and float visitations: pinned answers and the flow self-check."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from rewardsep import mdp
from rewardsep.mdp import MarkovEnv, Policy, Visitation, compute_visitation, flow_residuals
from rewardsep.numeric import EXACT, FLOAT, ZERO
from rewardsep.separability import design_multi, design_scalar
from rewardsep.soap import Soap

from envs import PI11, PI12, PI21, PI22, entailment_env

F = Fraction


def _distribution(rng, n):
    weights = [rng.choice([0, 0, 1, 2, 3, 5, 7]) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    if sum(1 for w in weights if w) == 1:
        return tuple(1 if w else 0 for w in weights)  # plain ints, one-hot
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def random_env(rng):
    n_s = rng.randint(1, 5)
    n_a = rng.randint(1, 3)
    states = tuple(f"s{i}" for i in range(n_s))
    actions = tuple(f"a{i}" for i in range(n_a))
    kernel = tuple(_distribution(rng, n_s) for _ in range(n_s * n_a))
    gamma = rng.choice([0, F(1, 2), "9/10", "0.99", F(rng.randint(1, 96), 97)])
    return MarkovEnv(states, actions, kernel, gamma, rng.choice(states))


def random_policy(rng, env, name):
    if rng.random() < 0.5:
        return Policy.deterministic(name, {s: rng.choice(env.actions) for s in env.states})
    return Policy.stochastic(
        name,
        {s: dict(zip(env.actions, _distribution(rng, env.n_actions))) for s in env.states},
    )


def residuals_by_fractions(env, entries):
    """The flow residuals of the definition, in plain rational arithmetic."""
    n_a = env.n_actions
    gamma = Fraction(env.gamma)
    out = []
    for s, state in enumerate(env.states):
        outflow = sum(entries[s * n_a + a] for a in range(n_a))
        inflow = sum(
            Fraction(env.kernel[k][s]) * entries[k] for k in range(env.n_sa)
        )
        out.append(outflow - (state == env.start) - gamma * inflow)
    return tuple(out)


class TestPinnedExactVisitations:
    # SHA-256 over the exact visitations of 150 seeded random environments,
    # each with two deterministic or stochastic policies, recorded with the
    # rational Gaussian elimination.  Any change to a visitation changes it.
    DIGEST = "5ce7fd11f691c6c3f480575624f2cbfcdb33e1153e2ac1abc087cc36a0c5d09c"

    def test_random_visitations_unchanged(self):
        rng = random.Random(20261018)
        digest = hashlib.sha256()
        for _ in range(150):
            env = random_env(rng)
            for name in ("p", "q"):
                rho = compute_visitation(env, random_policy(rng, env, name), EXACT)
                digest.update(repr(rho.entries).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


def _float_distribution(rng, n):
    """A probability row of Python floats (w / total), exact zeros kept."""
    weights = [rng.choice([0, 0, 1, 2, 3, 5, 7]) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return tuple(w / total for w in weights)


def random_float_env(rng):
    """`random_env` with about half of the kernel rows, and sometimes gamma,
    replaced by Python floats."""
    env = random_env(rng)
    kernel = tuple(
        _float_distribution(rng, env.n_states) if rng.random() < 0.5 else row
        for row in env.kernel
    )
    gamma = rng.choice([env.gamma, 0.9, 0.99, round(rng.random() * 0.98, 6)])
    return MarkovEnv(env.states, env.actions, kernel, gamma, env.start)


def random_float_policy(rng, env, name):
    if rng.random() < 0.5:
        return random_policy(rng, env, name)
    return Policy.stochastic(
        name,
        {s: dict(zip(env.actions, _float_distribution(rng, env.n_actions)))
         for s in env.states},
    )


class TestPinnedFloatVisitations:
    # SHA-256 over float.hex() of the float visitations of 150 seeded random
    # environments (ints, Fractions, strings and Python floats in the kernel,
    # gamma and policies), with the flow residuals of each visitation and of
    # a perturbed copy.  float.hex, not repr, so numpy's scalar repr cannot
    # move it.  Any change to a float bit changes it.
    DIGEST = "45ad7fbcdf38cd50431e04e0b2829539e8c3643bface803b4cc0ee6731a57002"

    def test_random_float_visitations_unchanged(self):
        rng = random.Random(20261019)
        digest = hashlib.sha256()

        def update(values):
            digest.update(",".join(float(v).hex() for v in values).encode() + b"\n")

        for _ in range(150):
            env = random_float_env(rng)
            for name in ("p", "q"):
                rho = compute_visitation(env, random_float_policy(rng, env, name), FLOAT)
                update(rho.entries)
                update(flow_residuals(env, rho, FLOAT))
                entries = list(rho.entries)
                entries[rng.randrange(env.n_sa)] += rng.choice([0.5, -0.25, 1e-3])
                update(flow_residuals(env, Visitation(tuple(entries)), FLOAT))
        assert digest.hexdigest() == self.DIGEST


def self_check(env, rho, mode):
    """`mdp._self_check` on one visitation, as a stack of one."""
    table = mdp.VisitationTable(env, mode)
    entries, q = mode.scaled(rho.entries)
    dtype = object if mode.exact else float
    mdp._self_check(table, np.array([entries], dtype), np.array([q], dtype))


class TestSelfCheckRejects:
    """The exact self-check refuses a visitation that breaks either
    identity, with the rational values in its message."""

    def setup_method(self):
        self.env = entailment_env()
        self.rho = compute_visitation(self.env, PI12, EXACT)

    def test_scaled_visitation_breaks_normalisation(self):
        scaled = Visitation(tuple(v * F(11, 10) for v in self.rho.entries))
        total = sum(scaled.entries)
        with pytest.raises(RuntimeError, match="visitation normalization violated") as info:
            self_check(self.env, scaled, EXACT)
        assert f"sum={total}, expected=10" in str(info.value)

    def test_shifted_mass_breaks_flow(self):
        entries = list(self.rho.entries)
        moved = F(1, 7)
        entries[self.env.sa_index("s0", "a1")] += moved
        entries[self.env.sa_index("s1", "a2")] -= moved
        shifted = Visitation(tuple(entries))
        assert sum(shifted.entries) == sum(self.rho.entries)
        want = residuals_by_fractions(self.env, entries)
        assert flow_residuals(self.env, shifted, EXACT) == want
        assert want[0] != 0
        with pytest.raises(RuntimeError, match="Bellman flow violated at state s0") as info:
            self_check(self.env, shifted, EXACT)
        assert str(info.value).endswith(f"residual {want[0]}")

    def test_residuals_match_the_definition_on_random_perturbations(self):
        rng = random.Random(7)
        for _ in range(60):
            env = random_env(rng)
            rho = compute_visitation(env, random_policy(rng, env, "p"), EXACT)
            assert all(r == 0 for r in flow_residuals(env, rho, EXACT))
            entries = list(rho.entries)
            k = rng.randrange(env.n_sa)
            entries[k] += F(rng.randint(-9, 9), rng.randint(1, 9))
            got = flow_residuals(env, Visitation(tuple(entries)), EXACT)
            assert got == residuals_by_fractions(env, entries)


def _fractions(obj):
    """Every Fraction reachable through tuples and dataclass fields."""
    if isinstance(obj, Fraction):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _fractions(item)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            yield from _fractions(getattr(obj, name))


class TestSharedZero:
    """Exact results hold the one shared zero, not a Fraction(0) each."""

    @pytest.mark.parametrize("design, soap", [
        (design_scalar, Soap.build(good=[PI22], bad=[PI11, PI12, PI21])),
        (design_multi, Soap.build(good=[PI12, PI21], bad=[PI11, PI22])),
        (design_multi, Soap.build(good=[PI11, PI22], bad=[PI12])),
    ])
    def test_design_results(self, design, soap):
        outcome = design(entailment_env(), soap, EXACT)
        zeros = [v for v in _fractions(outcome) if v == 0]
        assert zeros and all(v is ZERO for v in zeros)
