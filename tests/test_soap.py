from fractions import Fraction

import pytest
from hypothesis import given

from rewardsep.mdp import Policy, compute_visitation
from rewardsep.numeric import EXACT, FLOAT
from rewardsep.separability import design_multi
from rewardsep.soap import Soap, SoapError, check_consistency

from envs import PI11, PI12, PI21, PI22, entailment_env, steady_state_env
from strategies import small_envs

F = Fraction


class TestConstruction:
    def test_duplicate_name_rejected(self):
        clone = Policy.deterministic("pi11", {"s0": "a2", "s1": "a2"})
        with pytest.raises(SoapError, match="duplicate"):
            Soap.build(good=[PI11], bad=[clone])

    def test_identical_function_rejected_across_sets(self):
        # A one-hot stochastic policy is the same function as pi11.
        one_hot = Policy.stochastic(
            "disguised", {"s0": {"a1": F(1)}, "s1": {"a1": F(1), "a2": F(0)}}
        )
        with pytest.raises(SoapError, match="same function"):
            Soap.build(good=[PI11], bad=[one_hot])

    def test_within_set_duplicates_allowed(self):
        twin = Policy.deterministic("pi11_twin", {"s0": "a1", "s1": "a1"})
        soap = Soap.build(good=[PI11, twin], bad=[PI22])
        assert len(soap.good) == 2

    def test_empty_sets_refused_for_design(self):
        soap = Soap.build(good=[PI11], bad=[])
        with pytest.raises(SoapError, match="nonempty"):
            soap.require_nonempty()


class TestFloatPolicies:
    """Python-float probabilities stand for their exact binary values."""

    def test_float_stochastic_soap_builds_and_answers(self):
        mix = Policy.stochastic(
            "m", {"s0": {"a1": 0.5, "a2": 0.5}, "s1": {"a1": 0.5, "a2": 0.5}}
        )
        soap = Soap.build(good=[mix], bad=[PI11, PI22])
        outcome = design_multi(entailment_env(), soap, FLOAT)
        assert outcome.realizable and outcome.verification.realized
        assert outcome.spec.dimension == 2

    def test_equal_float_tables_are_the_same_function(self):
        a = Policy.stochastic(
            "a", {"s0": {"a1": 0.1, "a2": 0.9}, "s1": {"a1": 1.0}}
        )
        b = Policy.stochastic(
            "b", {"s0": {"a2": 0.9, "a1": 0.1}, "s1": {"a1": 1.0, "a2": 0.0}}
        )
        with pytest.raises(SoapError, match="same function"):
            Soap.build(good=[a], bad=[b])
        half = Policy.stochastic(
            "half", {"s0": {"a1": F(1, 2), "a2": "0.5"}, "s1": {"a1": 1}}
        )
        halves = Policy.stochastic(
            "halves", {"s0": {"a1": 0.5, "a2": 0.5}, "s1": {"a1": 1.0}}
        )
        with pytest.raises(SoapError, match="same function"):
            Soap.build(good=[half], bad=[halves])

    def test_non_finite_probability_refused(self):
        bad = Policy.stochastic("inf", {"s0": {"a1": float("inf")}, "s1": {"a1": 1.0}})
        with pytest.raises(ValueError, match="non-finite probability"):
            Soap.build(good=[PI11], bad=[bad])


class TestConsistency:
    def test_steady_state_degenerate(self):
        # pi21 and pi22 both self-loop at s0 forever, so labelling one good
        # and the other bad is inconsistent.
        env = steady_state_env()
        soap = Soap.build(good=[PI21], bad=[PI11, PI12, PI22])
        report = check_consistency(env, soap, EXACT)
        assert not report.consistent
        assert report.witnesses == (("pi21", "pi22"),)

    def test_entailment_consistent(self):
        env = entailment_env()
        soap = Soap.build(good=[PI12, PI21], bad=[PI11, PI22])
        report = check_consistency(env, soap, EXACT)
        assert report.consistent
        assert report.witnesses == ()

    def test_empty_bad_vacuously_consistent(self):
        env = entailment_env()
        soap = Soap.build(good=[PI12], bad=[])
        assert check_consistency(env, soap, EXACT).consistent

    def test_within_set_duplicates_reported_informationally(self):
        env = steady_state_env()
        soap = Soap.build(good=[PI11], bad=[PI21, PI22])
        report = check_consistency(env, soap, EXACT)
        assert report.consistent
        assert report.duplicate_bad == (("pi21", "pi22"),)

    def test_float_mode_matches_exact_on_fixture(self):
        env = steady_state_env()
        soap = Soap.build(good=[PI21], bad=[PI22])
        exact = check_consistency(env, soap, EXACT)
        approx = check_consistency(env, soap, FLOAT)
        assert exact.witnesses == approx.witnesses

    @given(small_envs())
    def test_symmetry_under_label_swap(self, env):
        from rewardsep.mdp import enumerate_deterministic_policies

        policies = enumerate_deterministic_policies(env, limit=64)
        half = max(1, len(policies) // 2)
        good, bad = policies[:half], policies[half:]
        if not bad:
            return
        fwd = check_consistency(env, Soap.build(good=good, bad=bad), EXACT)
        rev = check_consistency(env, Soap.build(good=bad, bad=good), EXACT)
        assert fwd.consistent == rev.consistent
        assert set(fwd.witnesses) == {(b, g) for g, b in rev.witnesses}

    @given(small_envs())
    def test_distinct_visitations_imply_consistency(self, env):
        from rewardsep.mdp import enumerate_deterministic_policies

        policies = enumerate_deterministic_policies(env, limit=64)
        seen = {}
        unique = []
        for p in policies:
            rho = compute_visitation(env, p, EXACT).entries
            if rho not in seen:
                seen[rho] = p
                unique.append(p)
        if len(unique) < 2:
            return
        soap = Soap.build(good=unique[:1], bad=unique[1:])
        assert check_consistency(env, soap, EXACT).consistent
