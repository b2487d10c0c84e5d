from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rewardsep.mdp import RewardSpec
from rewardsep.numeric import EXACT, FLOAT
from rewardsep.soap import Soap
from rewardsep.verify import verify_realization

from envs import PI11, PI12, PI21, PI22, TWO_DIM_REWARD, entailment_env
from oracles import brute_force_feasible_set

F = Fraction

XOR_SOAP = Soap.build(good=[PI12, PI21], bad=[PI11, PI22])


class TestWorkedExample:
    def test_two_dim_spec_realizes_xor_soap(self):
        env = entailment_env()
        report = verify_realization(env, XOR_SOAP, TWO_DIM_REWARD, EXACT)
        assert report.realized
        v11 = report.verdict_for("pi11")
        assert v11.values == (F(0), F(0)) and v11.violated_dims == (0,)
        v22 = report.verdict_for("pi22")
        assert v22.values == (F(10), F(-10)) and v22.violated_dims == (1,)
        v12 = report.verdict_for("pi12")
        assert v12.values == (F(90, 19), F(-90, 19)) and v12.feasible
        v21 = report.verdict_for("pi21")
        assert v21.values == (F(100, 19), F(-100, 19)) and v21.feasible

    def test_float_mode_agrees(self):
        env = entailment_env()
        report = verify_realization(env, XOR_SOAP, TWO_DIM_REWARD, FLOAT)
        assert report.realized

    def test_brute_force_set_matches(self):
        env = entailment_env()
        feasible = brute_force_feasible_set(env, TWO_DIM_REWARD, mode=EXACT)
        chosen = {tuple(p.action_map[s] for s in env.states) for p in feasible}
        assert chosen == {("a1", "a2"), ("a2", "a1")}


class TestTrivialSpecs:
    def test_zero_reward_everyone_feasible(self):
        env = entailment_env()
        zero = RewardSpec.build(rows=[(0,) * 4], lower_bounds=(0,))
        soap = Soap.build(good=[PI11, PI12, PI21, PI22], bad=[])
        assert verify_realization(env, soap, zero, EXACT).realized
        soap_with_bad = Soap.build(good=[PI12], bad=[PI11])
        assert not verify_realization(env, soap_with_bad, zero, EXACT).realized
        assert len(brute_force_feasible_set(env, zero, mode=EXACT)) == 4

    def test_unreachable_bound_nobody_feasible(self):
        # Any |value| is at most max|r| / (1 - gamma) = 10 here.
        env = entailment_env()
        spec = RewardSpec.build(rows=[(1, 1, 1, 1)], lower_bounds=(F(11),))
        assert brute_force_feasible_set(env, spec, mode=EXACT) == ()
        soap = Soap.build(good=[], bad=[PI11, PI12, PI21, PI22])
        assert verify_realization(env, soap, spec, EXACT).realized

    def test_normalization_bound_everybody_on_boundary(self):
        # r = 1 everywhere values every policy at exactly 1/(1-gamma) = 10.
        env = entailment_env()
        spec = RewardSpec.build(rows=[(1, 1, 1, 1)], lower_bounds=(F(10),))
        feasible = brute_force_feasible_set(env, spec, mode=EXACT)
        assert len(feasible) == 4
        report = verify_realization(
            env, Soap.build(good=[PI11], bad=[PI22]), spec, FLOAT
        )
        assert report.verdict_for("pi11").boundary_dims == (0,)

    def test_dimension_mismatch(self):
        env = entailment_env()
        spec = RewardSpec.build(rows=[(1, 2)], lower_bounds=(0,))
        with pytest.raises(ValueError, match="width"):
            verify_realization(env, XOR_SOAP, spec, EXACT)


class TestScaleInvariance:
    @given(st.integers(1, 50), st.integers(1, 7))
    def test_positive_row_scaling_preserves_verdicts(self, num, den):
        env = entailment_env()
        factor = F(num, den)
        scaled = RewardSpec.build(
            rows=[
                tuple(factor * v for v in TWO_DIM_REWARD.rows[0]),
                TWO_DIM_REWARD.rows[1],
            ],
            lower_bounds=(
                factor * TWO_DIM_REWARD.lower_bounds[0],
                TWO_DIM_REWARD.lower_bounds[1],
            ),
        )
        base = verify_realization(env, XOR_SOAP, TWO_DIM_REWARD, EXACT)
        after = verify_realization(env, XOR_SOAP, scaled, EXACT)
        assert base.realized == after.realized
        for b, a in zip(base.verdicts, after.verdicts):
            assert (b.name, b.feasible, b.violated_dims) == (
                a.name,
                a.feasible,
                a.violated_dims,
            )
