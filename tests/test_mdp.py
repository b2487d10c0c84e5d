from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from rewardsep.mdp import (
    EnvError,
    LimitExceededError,
    MarkovEnv,
    Policy,
    PolicyError,
    RewardSpec,
    compute_visitation,
    enumerate_deterministic_policies,
    flow_residuals,
    policy_value,
    validate_env,
)
from rewardsep.numeric import EXACT, FLOAT

from envs import (
    PI11,
    PI12,
    PI21,
    PI22,
    TWO_DIM_REWARD,
    entailment_env,
    steady_state_env,
)
from oracles import estimate_visitation_monte_carlo, truncated_visitation
from strategies import env_and_policy

F = Fraction


class TestValidation:
    def test_entailment_env_ok(self):
        assert validate_env(entailment_env()).ok

    def test_substochastic_row_reported(self):
        env = MarkovEnv(
            states=("s0",),
            actions=("a1",),
            kernel=((F(9, 10),),),
            gamma=F(1, 2),
            start="s0",
        )
        report = validate_env(env)
        assert not report.ok
        assert any("(s0, a1)" in v for v in report.violations)

    def test_gamma_out_of_range(self):
        env = MarkovEnv(
            states=("s0",),
            actions=("a1",),
            kernel=((F(1),),),
            gamma=F(1),
            start="s0",
        )
        report = validate_env(env)
        assert not report.ok
        assert any("gamma" in v for v in report.violations)

    def test_float_nan_kernel_entry_reported(self):
        env = MarkovEnv(("s0", "s1"), ("a",), ((float("nan"), 1.0), (0.0, 1.0)), 0.9, "s0")
        report = validate_env(env, FLOAT)
        assert report.violations == ("transition row for (s0, a) has a non-finite probability",)
        with pytest.raises(EnvError, match=r"\(s0, a\) has a non-finite probability"):
            compute_visitation(env, Policy.deterministic("p", {"s0": "a", "s1": "a"}), FLOAT)

    def test_missing_transition_row_rejected_at_build(self):
        with pytest.raises(EnvError, match="missing transition row"):
            MarkovEnv.from_tables(
                states=["s0", "s1"],
                actions=["a1"],
                transitions={("s0", "a1"): {"s1": F(1)}},
                gamma=F(1, 2),
                start="s0",
            )


class TestVisitation:
    def test_swap_cycle_geometric_series(self):
        # pi22 alternates s0 -> s1 -> s0 taking a2 everywhere:
        # rho(s0, a2) = 1/(1 - g^2), rho(s1, a2) = g/(1 - g^2).
        env = entailment_env()
        rho = compute_visitation(env, PI22, EXACT)
        assert rho[env.sa_index("s0", "a2")] == F(100, 19)
        assert rho[env.sa_index("s1", "a2")] == F(90, 19)
        assert rho[env.sa_index("s0", "a1")] == 0
        assert rho[env.sa_index("s1", "a1")] == 0
        # Truncated-series oracle agrees to the truncation bound.
        approx = truncated_visitation(env, PI22, horizon=400)
        for got, want in zip(approx, rho.entries):
            assert abs(got - want) < F(1, 10**12)

    def test_self_loop_geometric_series(self):
        # In the absorbing environment pi22 never leaves s0.
        env = steady_state_env()
        rho = compute_visitation(env, PI22, EXACT)
        assert rho[env.sa_index("s0", "a2")] == F(10)
        assert sum(1 for v in rho.entries if v != 0) == 1

    def test_steady_state_duplicate_visitations(self):
        env = steady_state_env()
        rho21 = compute_visitation(env, PI21, EXACT)
        rho22 = compute_visitation(env, PI22, EXACT)
        assert rho21.entries == rho22.entries

    def test_float_mode_matches_exact(self):
        env = entailment_env()
        exact = compute_visitation(env, PI12, EXACT)
        approx = compute_visitation(env, PI12, FLOAT)
        np.testing.assert_allclose(
            approx.as_floats(), exact.as_floats(), atol=1e-9
        )

    def test_stochastic_policy_mixture(self):
        env = entailment_env()
        half = F(1, 2)
        mix = Policy.stochastic(
            "mix", {"s0": {"a1": half, "a2": half}, "s1": {"a1": half, "a2": half}}
        )
        rho = compute_visitation(env, mix, EXACT)
        assert rho[env.sa_index("s0", "a1")] == F(50, 19)
        assert rho[env.sa_index("s1", "a2")] == F(45, 19)

    def test_float_nan_policy_entry_raises(self):
        mix = Policy.stochastic("mix", {"s0": {"a1": 0.5, "a2": 0.5},
                                        "s1": {"a1": float("nan"), "a2": 1.0}})
        with pytest.raises(PolicyError, match="'mix' has a non-finite probability at 's1'"):
            compute_visitation(entailment_env(), mix, FLOAT)

    def test_validate_for_refuses_nan(self):
        # NaN passes the sign and sum tests, so it is refused on its own; an
        # infinity is refused by the sum test.
        nan = Policy.stochastic("mix", {"s0": {"a1": 0.5, "a2": 0.5},
                                        "s1": {"a1": float("nan"), "a2": 1.0}})
        with pytest.raises(PolicyError, match="'mix' has a non-finite probability at 's1'"):
            nan.validate_for(entailment_env(), FLOAT)
        inf = Policy.stochastic("mix", {"s0": {"a1": 0.5, "a2": 0.5},
                                        "s1": {"a1": float("inf"), "a2": 1.0}})
        with pytest.raises(PolicyError, match="'mix' row at 's1' sums to inf, expected 1"):
            inf.validate_for(entailment_env(), FLOAT)

    def test_unknown_policy_state_raises(self):
        env = entailment_env()
        bad = Policy.deterministic("bad", {"s0": "a1"})
        with pytest.raises(PolicyError, match="undefined at state"):
            compute_visitation(env, bad, EXACT)

    @given(env_and_policy())
    def test_normalization_and_flow(self, pair):
        env, policy = pair
        rho = compute_visitation(env, policy, EXACT)
        gamma = env.gamma
        assert sum(rho.entries) == 1 / (1 - gamma)
        assert all(r == 0 for r in flow_residuals(env, rho, EXACT))
        assert all(v >= 0 for v in rho.entries)


class TestPolicyValue:
    def test_two_dim_reward_values(self):
        env = entailment_env()
        assert policy_value(env, PI22, TWO_DIM_REWARD, EXACT) == (F(10), F(-10))
        assert policy_value(env, PI12, TWO_DIM_REWARD, EXACT) == (F(90, 19), F(-90, 19))
        assert policy_value(env, PI11, TWO_DIM_REWARD, EXACT) == (F(0), F(0))

    def test_zero_reward(self):
        env = entailment_env()
        zero = RewardSpec.build(rows=[(0,) * 4], lower_bounds=(0,))
        assert policy_value(env, PI21, zero, EXACT) == (F(0),)

    def test_dimension_mismatch(self):
        env = entailment_env()
        narrow = RewardSpec.build(rows=[(1, 2)], lower_bounds=(0,))
        with pytest.raises(ValueError, match="width"):
            policy_value(env, PI11, narrow, EXACT)

    @given(env_and_policy())
    def test_linearity(self, pair):
        env, policy = pair
        n = env.n_sa
        r1 = RewardSpec.build(rows=[tuple(F(k % 3 - 1) for k in range(n))], lower_bounds=(0,))
        r2 = RewardSpec.build(rows=[tuple(F((k + 1) % 4) for k in range(n))], lower_bounds=(0,))
        combined = RewardSpec.build(
            rows=[tuple(a + b for a, b in zip(r1.rows[0], r2.rows[0]))],
            lower_bounds=(0,),
        )
        scaled = RewardSpec.build(
            rows=[tuple(3 * a for a in r1.rows[0])], lower_bounds=(0,)
        )
        v1 = policy_value(env, policy, r1, EXACT)
        v2 = policy_value(env, policy, r2, EXACT)
        assert policy_value(env, policy, combined, EXACT) == (v1[0] + v2[0],)
        assert policy_value(env, policy, scaled, EXACT) == (3 * v1[0],)


class TestEnumeration:
    def test_two_by_two(self):
        env = entailment_env()
        policies = enumerate_deterministic_policies(env)
        assert len(policies) == 4
        maps = [tuple(p.action_map[s] for s in env.states) for p in policies]
        assert maps == [
            ("a1", "a1"), ("a1", "a2"), ("a2", "a1"), ("a2", "a2"),
        ]
        assert len({p.name for p in policies}) == 4

    def test_single_state_three_actions(self):
        env = MarkovEnv.from_tables(
            states=["s0"],
            actions=["a1", "a2", "a3"],
            transitions={("s0", a): {"s0": F(1)} for a in ["a1", "a2", "a3"]},
            gamma=F(1, 2),
            start="s0",
        )
        assert len(enumerate_deterministic_policies(env)) == 3

    def test_limit_refusal(self):
        env = MarkovEnv.from_tables(
            states=["s0", "s1", "s2"],
            actions=["a1", "a2", "a3"],
            transitions={
                (s, a): {"s0": F(1)}
                for s in ["s0", "s1", "s2"]
                for a in ["a1", "a2", "a3"]
            },
            gamma=F(1, 2),
            start="s0",
        )
        with pytest.raises(LimitExceededError, match="27"):
            enumerate_deterministic_policies(env, limit=10)


class TestMonteCarlo:
    def test_estimator_matches_linear_solve(self):
        env = entailment_env()
        rng = np.random.default_rng(12345)
        mean, stderr = estimate_visitation_monte_carlo(
            env, PI22, n_rollouts=20_000, rng=rng
        )
        exact = compute_visitation(env, PI22, EXACT).as_floats()
        for m, se, want in zip(mean, stderr, exact):
            assert abs(m - want) <= 3 * se + 1e-3
