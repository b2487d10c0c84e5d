import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given

from rewardsep import numeric
from rewardsep.mdp import Policy, Visitation, compute_visitation
from rewardsep.numeric import EXACT, FLOAT, NumericMode
from rewardsep.separability import design_multi
from rewardsep.soap import Soap, SoapError, _consistency, check_consistency

from envs import PI11, PI12, PI21, PI22, entailment_env, steady_state_env
from oracles import pairwise_consistency
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


def _mix(name, p):
    """A stochastic policy of the entailment environment, a1 with
    probability p at s0."""
    return Policy.stochastic(name, {"s0": {"a1": p, "a2": 1 - p}, "s1": {"a1": 1}})


class TestCanonicalTables:
    """`Soap.build` builds each policy's table once, lazily, in the order
    the good-major pairs first reach it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        table = Policy.canonical_table

        def spy(policy):
            seen.append(policy.name)
            return table(policy)

        monkeypatch.setattr(Policy, "canonical_table", spy)
        return seen

    def test_one_table_per_policy(self, calls):
        good = [_mix(f"g{i}", F(i, 10)) for i in range(5)]
        bad = [_mix(f"b{i}", F(5 + i, 10)) for i in range(6)]
        Soap.build(good=good, bad=bad)
        assert calls == ["g0", "b0", "b1", "b2", "b3", "b4", "b5", "g1", "g2", "g3", "g4"]
        calls.clear()
        Soap.build(good=good, bad=[])
        Soap.build(good=[], bad=bad)
        assert calls == []

    def test_first_same_function_pair_named(self, calls):
        good = [_mix("a", F(1, 10)), _mix("b", F(2, 10)), _mix("c", F(3, 10))]
        bad = [_mix("x", F(4, 10)), _mix("c_twin", F(3, 10)), _mix("b_twin", F(2, 10))]
        with pytest.raises(SoapError, match="'b' \\(good\\) and 'b_twin' \\(bad\\)"):
            Soap.build(good=good, bad=bad)
        assert len(calls) <= len(good) + len(bad)

    def test_first_failing_table_raises(self):
        inf_good = Policy.stochastic("inf_good", {"s0": {"a1": math.inf}, "s1": {"a1": 1.0}})
        inf_bad = Policy.stochastic("inf_bad", {"s0": {"a1": math.inf}, "s1": {"a1": 1.0}})
        # PI11's pairs reach inf_bad before the second good policy.
        with pytest.raises(ValueError, match="'inf_bad' has a non-finite"):
            Soap.build(good=[PI11, inf_good], bad=[inf_bad])

    def test_deterministic_tables_share_one(self):
        ones = [p for table in (PI11.canonical_table(), PI22.canonical_table(),
                                PI11.canonical_table())
                for row in table.values() for p in row.values()]
        assert ones == [1] * 6
        assert all(p is numeric.ONE for p in ones)


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


class TestFloatConsistencyOracle:
    """Float `_consistency` against the pairwise oracle on SOAPs built to
    sit on the tolerance: a coordinate that is 0.0 in the base vector
    moves by exactly the tolerance (equal) or by the next float above it
    (not equal)."""

    TOLERANCES = (FLOAT.tolerance, 2.0 ** -10, 0.25)

    def _compare(self, good, bad, tol):
        soap = Soap(good=tuple(SimpleNamespace(name=n) for n, _ in good),
                    bad=tuple(SimpleNamespace(name=n) for n, _ in bad))
        rhos = [Visitation(row) for _, row in good + bad]
        report = _consistency(soap, rhos, NumericMode.floating(tol))
        assert report == pairwise_consistency(good, bad, tol)
        return report

    def test_on_the_boundary(self):
        tol = FLOAT.tolerance
        base = (0.0, 0.5, 2.0)
        at = (tol, 0.5, 2.0)
        above = (math.nextafter(tol, math.inf), 0.5, 2.0)
        report = self._compare([("g0", base), ("g1", at), ("g2", above)],
                               [("b0", above), ("b1", at), ("b2", base)], tol)
        assert report.witnesses == (("g0", "b1"), ("g0", "b2"), ("g1", "b0"),
                                    ("g1", "b1"), ("g1", "b2"), ("g2", "b0"),
                                    ("g2", "b1"))
        assert report.duplicate_good == (("g0", "g1"), ("g1", "g2"))
        assert report.duplicate_bad == (("b0", "b1"), ("b1", "b2"))

    def test_empty_sets(self):
        rows = [("p0", (1.0, 0.0)), ("p1", (1.0, 0.0))]
        for good, bad in ((rows, []), ([], rows), ([], [])):
            report = self._compare(good, bad, FLOAT.tolerance)
            assert report.consistent and report.witnesses == ()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_soaps(self, seed):
        rng = random.Random(seed)
        tol = rng.choice(self.TOLERANCES)
        n_sa = rng.randint(1, 6)
        steps = (0.0, tol, -tol, math.nextafter(tol, math.inf),
                 -math.nextafter(tol, math.inf), 2 * tol, rng.uniform(-3 * tol, 3 * tol))
        bases = [(0.0,) + tuple(rng.choice((0.0, 0.125 * rng.randint(1, 32), rng.random() * 4))
                                for _ in range(n_sa - 1))
                 for _ in range(rng.randint(1, 3))]

        def draw(name):
            row = list(rng.choice(bases))
            row[rng.choice((0, 0, rng.randrange(n_sa)))] += rng.choice(steps)
            return name, tuple(row)

        good = [draw(f"g{i}") for i in range(rng.randint(0, 6))]
        bad = [draw(f"b{i}") for i in range(rng.randint(0, 6))]
        self._compare(good, bad, tol)
