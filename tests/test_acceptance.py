"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Criteria 7 and 8 share one seeded random suite of 200 environments; the
LP criterion uses 500 seeded random programs against the vertex oracle.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from rewardsep import lp
from rewardsep.bundles import load_reward, load_soap, parse_bundle
from rewardsep.mdp import (
    compute_visitation,
    enumerate_deterministic_policies,
    flow_residuals,
)
from rewardsep.numeric import EXACT, FLOAT
from rewardsep.separability import (
    OverlapObstruction,
    PointSet,
    check_scalar_optimality,
    design_multi,
    design_scalar,
    hulls_intersect,
    in_convex_hull,
)
from rewardsep.soap import Soap, check_consistency
from rewardsep.verify import verify_realization

from oracles import (
    brute_force_lp, estimate_visitation_monte_carlo, farkas_gap, farkas_signs_ok, random_lp,
    satisfies,
)
from test_separability import random_consistent_soap, random_env

F = Fraction


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s): {description}")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )


@pytest.fixture(scope="module")
def entailment():
    return parse_bundle("entailment.json")


@pytest.fixture(scope="module")
def steady_state():
    return parse_bundle("steady_state.json")


@pytest.fixture(scope="module")
def xor_soap(entailment):
    return load_soap("xor_soap.json", entailment)


@pytest.fixture(scope="module")
def two_dim_reward(entailment):
    return load_reward("entailment_reward.json", entailment.env)


@pytest.fixture(scope="module")
def random_suite():
    """200 environments (|S| <= 4, |A| <= 3, rational transitions,
    gamma in {1/2, 9/10}) with consistent deterministic SOAPs."""
    rng = random.Random(20240901)
    suite = []
    while len(suite) < 200:
        env = random_env(rng, max_states=4, max_actions=3)
        soap = random_consistent_soap(env, rng)
        if soap is not None:
            suite.append((env, soap))
    return suite


def test_criterion_01_visitation_exactness(entailment):
    with criterion(1, "exact visitation of the two-state cycle", budget_seconds=1.0):
        env = entailment.env
        pi22 = entailment.policy("pi22")
        rho = compute_visitation(env, pi22, EXACT)
        assert rho.entries[env.sa_index("s0", "a2")] == F(100, 19)
        assert rho.entries[env.sa_index("s1", "a2")] == F(90, 19)
        approx = compute_visitation(env, pi22, FLOAT)
        assert abs(approx.entries[env.sa_index("s0", "a2")] - 100 / 19) <= 1e-9
        assert abs(approx.entries[env.sa_index("s1", "a2")] - 90 / 19) <= 1e-9


def test_criterion_02_worked_example(entailment, xor_soap, two_dim_reward):
    with criterion(2, "2-D reward realizes the xor SOAP with the known pattern",
                   budget_seconds=1.0):
        report = verify_realization(entailment.env, xor_soap, two_dim_reward, EXACT)
        assert report.realized
        v = report.verdict_for("pi11")
        assert not v.feasible and v.violated_dims == (0,) and v.values == (F(0), F(0))
        v = report.verdict_for("pi22")
        assert not v.feasible and v.violated_dims == (1,) and v.values == (F(10), F(-10))
        assert report.verdict_for("pi12").feasible
        assert report.verdict_for("pi21").feasible
        assert report.verdict_for("pi12").values == (F(90, 19), F(-90, 19))
        assert report.verdict_for("pi21").values == (F(100, 19), F(-100, 19))


def test_criterion_03_scalar_impossibility(entailment, xor_soap):
    with criterion(3, "scalar design fails with the coinciding-midpoint witness"):
        env = entailment.env
        outcome = design_scalar(env, xor_soap, EXACT)
        assert not outcome.realizable
        obstruction = outcome.obstruction
        assert isinstance(obstruction, OverlapObstruction)
        assert obstruction.good_coefficients == (F(1, 2), F(1, 2))
        assert obstruction.bad_coefficients == (F(1, 2), F(1, 2))
        rho = {
            name: compute_visitation(env, entailment.policy(name), EXACT).entries
            for name in ("pi11", "pi12", "pi21", "pi22")
        }
        mid_good = tuple(
            (a + b) / 2 for a, b in zip(rho["pi12"], rho["pi21"])
        )
        mid_bad = tuple(
            (a + b) / 2 for a, b in zip(rho["pi11"], rho["pi22"])
        )
        assert obstruction.point == mid_good == mid_bad


def test_criterion_04_multidimensional_possibility(entailment, xor_soap):
    with criterion(4, "multidimensional design succeeds with d = 2"):
        outcome = design_multi(entailment.env, xor_soap, EXACT)
        assert outcome.realizable
        assert outcome.spec.dimension == 2
        assert verify_realization(entailment.env, xor_soap, outcome.spec, EXACT).realized


def test_criterion_05_single_hyperplane_case(entailment):
    with criterion(5, "three bad policies separated by one hyperplane (d = 1)"):
        soap = load_soap("always_a2_soap.json", entailment)
        scalar = design_scalar(entailment.env, soap, EXACT)
        assert scalar.realizable and scalar.spec.dimension == 1
        reduced = design_multi(entailment.env, soap, EXACT, reduce=True)
        assert reduced.realizable and reduced.spec.dimension == 1


def test_criterion_06_degenerate_instance(steady_state):
    with criterion(6, "absorbing environment: inconsistency witness and "
                      "optimality impossibility"):
        env = steady_state.env
        soap = Soap.build(
            good=[steady_state.policy("pi21")], bad=[steady_state.policy("pi22")]
        )
        report = check_consistency(env, soap, EXACT)
        assert not report.consistent
        assert report.witnesses == (("pi21", "pi22"),)
        outcome = check_scalar_optimality(env, soap, EXACT)
        assert not outcome.realizable


def test_criterion_07_deterministic_soaps_always_realizable(random_suite):
    with criterion(7, "200/200 consistent deterministic SOAPs realizable with "
                      "d <= |bad|", budget_seconds=60.0):
        for env, soap in random_suite:
            outcome = design_multi(env, soap, EXACT, reduce=False)
            assert outcome.realizable
            assert outcome.spec.dimension <= len(soap.bad)
            assert verify_realization(env, soap, outcome.spec, EXACT).realized


def test_criterion_08_oracle_equivalences(random_suite):
    with criterion(8, "design decisions match the independent hull oracles "
                      "on all 200 cases"):
        for env, soap in random_suite:
            good = PointSet.from_policies(env, soap.good, EXACT)
            bad = PointSet.from_policies(env, soap.bad, EXACT)
            scalar = design_scalar(env, soap, EXACT)
            crossing = hulls_intersect(good, bad, EXACT)
            assert scalar.realizable == (not crossing.intersects)
            multi = design_multi(env, soap, EXACT)
            clear = all(
                not in_convex_hull(p, good, EXACT).member for p in bad.points
            )
            assert multi.realizable == clear


def test_criterion_09_lp_oracle(capfd):
    with criterion(9, "500 random LPs agree with vertex enumeration in both "
                      "backends", budget_seconds=30.0):
        rng = random.Random(424242)
        for _ in range(500):
            program = random_lp(rng)
            want = brute_force_lp(program)
            for mode in (EXACT, FLOAT):
                sol = lp.solve(program, mode)
                assert sol.status == want
                if want == lp.FEASIBLE:
                    assert satisfies(program, sol.primal, mode)
                else:
                    y = sol.certificate.row_multipliers
                    assert farkas_signs_ok(program, y, mode) and farkas_gap(program, y, mode) > 0


def test_criterion_10_invariant_suite(entailment, random_suite):
    with criterion(10, "flow conservation everywhere plus Monte-Carlo "
                       "agreement on 20 random pairs"):
        # compute_visitation self-checks normalization and flow on every
        # call, so the whole run enforces the invariants; spot-check a
        # sweep explicitly here.
        env = entailment.env
        for policy in entailment.policies:
            rho = compute_visitation(env, policy, EXACT)
            assert sum(rho.entries) == 1 / (1 - env.gamma)
            assert all(r == 0 for r in flow_residuals(env, rho, EXACT))
        for env2, soap in random_suite[:10]:
            for policy in soap.policies:
                rho = compute_visitation(env2, policy, EXACT)
                assert sum(rho.entries) == 1 / (1 - env2.gamma)
                assert all(r == 0 for r in flow_residuals(env2, rho, EXACT))

        rng = random.Random(777)
        np_rng = np.random.default_rng(777)
        for _ in range(20):
            env2 = random_env(rng, max_states=3, max_actions=3)
            policies = enumerate_deterministic_policies(env2, limit=4096)
            policy = rng.choice(policies)
            mean, stderr = estimate_visitation_monte_carlo(
                env2, policy, n_rollouts=100_000, rng=np_rng
            )
            exact = compute_visitation(env2, policy, EXACT)
            for m, se, want in zip(mean, stderr, exact.entries):
                # 3 standard errors plus the truncation bias bound.
                assert abs(m - float(want)) <= 3 * se + 1e-7 / (1 - float(env2.gamma))
