import random
from fractions import Fraction

import pytest

from rewardsep import lp, separability
from rewardsep.mdp import (
    MarkovEnv,
    Policy,
    RewardSpec,
    compute_visitation,
    enumerate_deterministic_policies,
    policy_value,
)
from rewardsep.numeric import EXACT, FLOAT
from rewardsep.separability import (
    DeterministicSoapRequired,
    HullObstruction,
    InconsistentSoapError,
    OverlapObstruction,
    PointSet,
    check_scalar_optimality,
    design_multi,
    design_scalar,
    hulls_intersect,
    in_convex_hull,
)
from rewardsep.soap import Soap, SoapError
from rewardsep.verify import verify_realization

from envs import GAMMA, PI11, PI12, PI21, PI22, entailment_env, steady_state_env
from oracles import (
    brute_force_feasible_set,
    resolving_greedy_groups,
    sequential_design_multi,
    sequential_greedy_groups,
)

F = Fraction

XOR_SOAP = Soap.build(good=[PI12, PI21], bad=[PI11, PI22])
SINGLE_GOOD_SOAP = Soap.build(good=[PI22], bad=[PI11, PI12, PI21])
# blend's visitation is the midpoint of the xor good pair, hence inside
# their hull.
BLEND = Policy.stochastic(
    "blend",
    {"s0": {"a1": F(1, 2), "a2": F(1, 2)}, "s1": {"a1": F(1, 2), "a2": F(1, 2)}},
)
BLEND_SOAP = Soap.build(good=[PI12, PI21], bad=[BLEND])


def points(env, *policies, mode=EXACT):
    return PointSet.from_policies(env, policies, mode)


def separator_is_strict(sep, kept, excluded):
    for p in kept:
        assert sum(n * e for n, e in zip(sep.normal, p.entries)) >= sep.offset
    for q in excluded:
        assert sum(n * e for n, e in zip(sep.normal, q.entries)) <= sep.offset - 1


def assert_halves(coefficients, mode):
    """Both weights 1/2: exactly, or in float mode within 1e-9 and summing
    to 1."""
    if mode.exact:
        assert coefficients == (F(1, 2), F(1, 2))
    else:
        assert coefficients == pytest.approx((0.5, 0.5), abs=1e-9)
        assert sum(coefficients) == pytest.approx(1)


@pytest.fixture
def lp_solves(monkeypatch):
    """Number of LPs solved through `lp.check_feasible`."""
    calls = []
    real = lp.check_feasible

    def counting(program, mode=EXACT):
        calls.append(program)
        return real(program, mode)

    monkeypatch.setattr(lp, "check_feasible", counting)
    return calls


class TestHullMembership:
    def test_extreme_point_not_member(self):
        env = entailment_env()
        hull = points(env, PI12, PI21)
        target = compute_visitation(env, PI11, EXACT)
        result = in_convex_hull(target, hull, EXACT)
        assert not result.member
        separator_is_strict(result.separator, hull.points, [target])

    def test_hull_point_is_member_with_unit_weights(self):
        env = entailment_env()
        hull = points(env, PI12, PI21)
        target = compute_visitation(env, PI12, EXACT)
        result = in_convex_hull(target, hull, EXACT)
        assert result.member
        assert result.coefficients == (F(1), F(0))

    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_midpoint_is_member(self, mode):
        env = entailment_env()
        hull = points(env, PI12, PI21, mode=mode)
        mid = tuple(
            (a + b) / 2 for a, b in zip(hull.points[0].entries, hull.points[1].entries)
        )
        result = in_convex_hull(mid, hull, mode)
        assert result.member
        assert_halves(result.coefficients, mode)

    def test_empty_hull(self):
        env = entailment_env()
        target = compute_visitation(env, PI11, EXACT)
        result = in_convex_hull(target, PointSet(names=(), points=()), EXACT)
        assert not result.member
        separator_is_strict(result.separator, [], [target])


class TestHullIntersection:
    def test_xor_hulls_cross_at_shared_midpoint(self):
        env = entailment_env()
        crossing = hulls_intersect(
            points(env, PI12, PI21), points(env, PI11, PI22), EXACT
        )
        assert crossing.intersects
        # Both segments meet only at their common midpoint:
        # 50/19 on the s0 entries, 45/19 on the s1 entries.
        assert crossing.point == (F(50, 19), F(50, 19), F(45, 19), F(45, 19))
        assert crossing.coefficients_a == (F(1, 2), F(1, 2))
        assert crossing.coefficients_b == (F(1, 2), F(1, 2))

    def test_identical_singletons_intersect(self):
        env = entailment_env()
        a = points(env, PI11)
        b = PointSet(names=("copy",), points=a.points)
        assert hulls_intersect(a, b, EXACT).intersects

    def test_single_good_against_triangle_is_disjoint(self):
        env = entailment_env()
        good = points(env, PI22)
        bad = points(env, PI11, PI12, PI21)
        crossing = hulls_intersect(good, bad, EXACT)
        assert not crossing.intersects
        separator_is_strict(crossing.separator, good.points, bad.points)


class TestDesignScalar:
    def test_single_good_realizable_d1(self):
        env = entailment_env()
        outcome = design_scalar(env, SINGLE_GOOD_SOAP, EXACT)
        assert outcome.realizable
        assert outcome.spec.dimension == 1
        assert verify_realization(env, SINGLE_GOOD_SOAP, outcome.spec, EXACT).realized

    def test_xor_soap_not_realizable_with_midpoint_witness(self):
        env = entailment_env()
        outcome = design_scalar(env, XOR_SOAP, EXACT)
        assert not outcome.realizable
        obstruction = outcome.obstruction
        assert isinstance(obstruction, OverlapObstruction)
        assert obstruction.point == (F(50, 19), F(50, 19), F(45, 19), F(45, 19))

    def test_one_state_two_action_split(self):
        env = MarkovEnv.from_tables(
            states=["s0"],
            actions=["a1", "a2"],
            transitions={("s0", a): {"s0": F(1)} for a in ["a1", "a2"]},
            gamma=GAMMA,
            start="s0",
        )
        soap = Soap.build(
            good=[Policy.deterministic("stay1", {"s0": "a1"})],
            bad=[Policy.deterministic("stay2", {"s0": "a2"})],
        )
        outcome = design_scalar(env, soap, EXACT)
        assert outcome.realizable
        # Reward 1 on the good action separates with c = 1/(1-gamma).
        hand_built = verify_realization(
            env,
            soap,
            spec=RewardSpec.build(rows=[(1, 0)], lower_bounds=(F(10),)),
            mode=EXACT,
        )
        assert hand_built.realized

    def test_inconsistent_soap_refused(self):
        env = steady_state_env()
        soap = Soap.build(good=[PI21], bad=[PI22])
        with pytest.raises(InconsistentSoapError) as err:
            design_scalar(env, soap, EXACT)
        assert err.value.report.witnesses == (("pi21", "pi22"),)


class TestDesignMulti:
    def test_xor_soap_realizable_d2(self):
        env = entailment_env()
        outcome = design_multi(env, XOR_SOAP, EXACT)
        assert outcome.realizable
        assert outcome.spec.dimension == 2
        assert verify_realization(env, XOR_SOAP, outcome.spec, EXACT).realized

    def test_reduce_collapses_triangle_to_one_plane(self):
        env = entailment_env()
        full = design_multi(env, SINGLE_GOOD_SOAP, EXACT, reduce=False)
        reduced = design_multi(env, SINGLE_GOOD_SOAP, EXACT, reduce=True)
        assert full.realizable and reduced.realizable
        assert full.spec.dimension == 3
        assert reduced.spec.dimension == 1
        assert verify_realization(env, SINGLE_GOOD_SOAP, reduced.spec, EXACT).realized

    def test_reduce_never_worse(self):
        env = entailment_env()
        for soap in (XOR_SOAP, SINGLE_GOOD_SOAP):
            full = design_multi(env, soap, EXACT, reduce=False)
            reduced = design_multi(env, soap, EXACT, reduce=True)
            assert reduced.spec.dimension <= full.spec.dimension

    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_obstruction_when_bad_point_in_hull(self, mode):
        outcome = design_multi(entailment_env(), BLEND_SOAP, mode)
        assert not outcome.realizable
        obstruction = outcome.obstruction
        assert isinstance(obstruction, HullObstruction)
        assert obstruction.policy == "blend"
        assert_halves(obstruction.coefficients, mode)

    def test_inconsistent_refusal(self):
        env = steady_state_env()
        soap = Soap.build(good=[PI21], bad=[PI11, PI12, PI22])
        with pytest.raises(InconsistentSoapError):
            design_multi(env, soap, EXACT)

    def test_agreement_in_float_mode(self):
        env = entailment_env()
        outcome = design_multi(env, XOR_SOAP, FLOAT)
        assert outcome.realizable
        assert verify_realization(env, XOR_SOAP, outcome.spec, FLOAT).realized


class TestOneLpPerHullQuery:
    def test_bad_point_in_hull_solves_one_lp(self, lp_solves):
        outcome = design_multi(entailment_env(), BLEND_SOAP, EXACT)
        assert isinstance(outcome.obstruction, HullObstruction)
        assert len(lp_solves) == 1

    def test_reduce_starts_from_first_pass_planes(self, lp_solves):
        outcome = design_multi(entailment_env(), SINGLE_GOOD_SOAP, EXACT, reduce=True)
        assert outcome.spec.dimension == 1
        # One margin LP per bad point, then the one probe of the whole
        # chain that grows the single group; no LP is solved twice.
        assert len(lp_solves) == 3 + 1
        assert len(set(lp_solves)) == len(lp_solves)

    def test_scalar_negative_keeps_the_intersection_lp(self, lp_solves):
        outcome = design_scalar(entailment_env(), XOR_SOAP, EXACT)
        assert isinstance(outcome.obstruction, OverlapObstruction)
        assert len(lp_solves) == 2


class TestScalarOptimality:
    def test_always_a1_good_realizable(self):
        env = entailment_env()
        soap = Soap.build(good=[PI11], bad=[PI12, PI21, PI22])
        outcome = check_scalar_optimality(env, soap, EXACT)
        assert outcome.realizable
        # The returned reward makes pi11 optimal with value c over every
        # deterministic policy.
        spec = outcome.spec
        v = spec.lower_bounds[0]
        for policy in enumerate_deterministic_policies(env):
            rho = compute_visitation(env, policy, EXACT)
            value = sum(r * e for r, e in zip(spec.rows[0], rho.entries))
            assert value <= v
        assert verify_realization(env, soap, spec, EXACT).realized

    def test_xor_soap_not_realizable(self):
        env = entailment_env()
        outcome = check_scalar_optimality(env, XOR_SOAP, EXACT)
        assert not outcome.realizable

    def test_degenerate_steady_state_not_realizable(self):
        env = steady_state_env()
        soap = Soap.build(good=[PI21], bad=[PI22])
        outcome = check_scalar_optimality(env, soap, EXACT)
        assert not outcome.realizable

    def test_stochastic_policy_rejected(self):
        env = entailment_env()
        half = F(1, 2)
        mix = Policy.stochastic(
            "mix", {"s0": {"a1": half, "a2": half}, "s1": {"a1": half, "a2": half}}
        )
        soap = Soap.build(good=[mix], bad=[PI11])
        with pytest.raises(DeterministicSoapRequired):
            check_scalar_optimality(env, soap, EXACT)

    def test_good_policies_share_the_optimal_value(self):
        env = entailment_env()
        soap = Soap.build(good=[PI11, PI21], bad=[PI12, PI22])
        outcome = check_scalar_optimality(env, soap, EXACT)
        assert outcome.realizable
        spec = outcome.spec
        v = spec.lower_bounds[0]
        assert [policy_value(env, p, spec)[0] for p in soap.good] == [v, v]
        assert all(policy_value(env, p, spec)[0] <= v - 1 for p in soap.bad)
        for policy in enumerate_deterministic_policies(env):
            assert policy_value(env, policy, spec)[0] <= v


def random_env(rng, max_states=4, max_actions=3):
    n_s = rng.randint(2, max_states)
    n_a = rng.randint(2, max_actions)
    states = [f"s{i}" for i in range(n_s)]
    actions = [f"a{i}" for i in range(n_a)]
    transitions = {}
    for s in states:
        for a in actions:
            weights = [rng.randint(0, 4) for _ in range(n_s)]
            if sum(weights) == 0:
                weights[rng.randrange(n_s)] = 1
            total = sum(weights)
            transitions[(s, a)] = {
                s2: F(w, total) for s2, w in zip(states, weights) if w
            }
    gamma = rng.choice([F(1, 2), F(9, 10)])
    return MarkovEnv.from_tables(states, actions, transitions, gamma, states[0])


def random_consistent_soap(env, rng, max_policies=6):
    from rewardsep.soap import check_consistency

    policies = enumerate_deterministic_policies(env, limit=4096)
    for _ in range(50):
        k = rng.randint(2, min(max_policies, len(policies)))
        chosen = rng.sample(policies, k)
        cut = rng.randint(1, k - 1)
        soap = Soap.build(good=chosen[:cut], bad=chosen[cut:])
        if check_consistency(env, soap, EXACT).consistent:
            return soap
    return None


def random_stochastic_policy(env, rng, name):
    table = {}
    for s in env.states:
        weights = [rng.randint(0, 3) for _ in env.actions]
        if not any(weights):
            weights[rng.randrange(len(weights))] = 1
        table[s] = {a: F(w, sum(weights)) for a, w in zip(env.actions, weights) if w}
    return Policy.stochastic(name, table)


def one_state_blend(env, rng, good, name):
    """A stochastic policy inside the hull of `good`, or None: halfway,
    at one state, between two deterministic good policies that differ
    there alone, so that its visitation lies between theirs."""
    def differ(g, h):
        return [s for s in env.states if g.action_map[s] != h.action_map[s]]

    pairs = [(g, h) for g in good for h in good
             if g.is_deterministic and h.is_deterministic and len(differ(g, h)) == 1]
    if not pairs:
        return None
    g, h = rng.choice(pairs)
    return Policy.stochastic(name, {s: {g.action_map[s]: F(1, 2), h.action_map[s]: F(1, 2)}
                                    if g.action_map[s] != h.action_map[s]
                                    else {g.action_map[s]: F(1)} for s in env.states})


def random_mixed_soap(env, rng, max_good=6, max_bad=8):
    """A consistent SOAP whose good list may hold a stochastic policy and
    whose bad list mixes deterministic and stochastic policies, some of
    them inside the good hull, in random order."""
    from rewardsep.soap import check_consistency

    policies = enumerate_deterministic_policies(env, limit=4096)
    for _ in range(50):
        chosen = rng.sample(policies, rng.randint(2, min(max_good + max_bad - 2, len(policies))))
        cut = rng.randint(1, min(max_good, len(chosen) - 1))
        good = chosen[:cut] + [random_stochastic_policy(env, rng, "gmix")] * rng.randint(0, 1)
        stochastic = [(rng.random() < 0.5 and one_state_blend(env, rng, good, f"mix{k}"))
                      or random_stochastic_policy(env, rng, f"mix{k}")
                      for k in range(rng.randint(1, 3))]
        bad = chosen[cut:] + stochastic
        rng.shuffle(bad)
        try:
            soap = Soap.build(good=good, bad=bad)
        except SoapError:  # a one-hot stochastic policy repeats another
            continue
        if check_consistency(env, soap, EXACT).consistent:
            return soap
    return None


@pytest.fixture(scope="module")
def mixed_cases():
    """40 seeded random consistent SOAPs whose bad lists mix
    deterministic and stochastic policies."""
    rng = random.Random(21)
    cases = []
    while len(cases) < 40:
        env = random_env(rng)
        soap = random_mixed_soap(env, rng)
        if soap is not None:
            cases.append((env, soap))
    return cases


class TestStochasticFirstOrder:
    """`design_multi` decides the stochastic bad points first and the
    deterministic ones in one batch; the reference decides them one by
    one in bad order (`oracles.sequential_design_multi`)."""

    @pytest.mark.parametrize("reduce", [False, True], ids=["multi", "reduce"])
    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_same_outcome_as_the_sequential_loop(self, mixed_cases, mode, reduce):
        negatives = 0
        for env, soap in mixed_cases:
            outcome = design_multi(env, soap, mode, reduce=reduce)
            assert outcome == sequential_design_multi(env, soap, mode, reduce=reduce)
            negatives += not outcome.realizable
        # Both answers occur, and some negatives have a deterministic bad
        # point ahead of their stochastic member.
        assert 0 < negatives < len(mixed_cases)

    def test_some_member_follows_a_deterministic_bad_point(self, mixed_cases):
        late = 0
        for env, soap in mixed_cases:
            outcome = design_multi(env, soap, EXACT)
            if not outcome.realizable:
                names = [p.name for p in soap.bad]
                first = names.index(outcome.obstruction.policy)
                late += any(p.is_deterministic for p in soap.bad[:first])
        assert late

    def test_vertex_premise(self, mixed_cases, reduce_cases):
        """r_b(s, a) = [a != pi_b(s)] scores a deterministic bad policy's
        visitation at 0 and every good visitation above 0."""
        checked = 0
        for env, soap in mixed_cases + reduce_cases:
            good = points(env, *soap.good)
            for policy in soap.bad:
                if not policy.is_deterministic:
                    continue
                r_b = [0] * env.n_sa
                for s in env.states:
                    for a in env.actions:
                        r_b[env.sa_index(s, a)] = int(a != policy.action_map[s])
                rho_b = compute_visitation(env, policy, EXACT)
                assert sum(r * v for r, v in zip(r_b, rho_b.entries)) == 0
                for rho_g in good.points:
                    assert sum(r * v for r, v in zip(r_b, rho_g.entries)) > 0
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_a_stochastic_member_solves_one_lp(self, finished_lps, mode, position):
        bad = [PI11, PI22]
        bad.insert(position, BLEND)
        outcome = design_multi(entailment_env(), Soap.build(good=[PI12, PI21], bad=bad), mode)
        assert outcome.obstruction.policy == "blend"
        assert len(finished_lps) == 1


class TestRandomizedEquivalences:
    def test_prop1_prop2_oracles_and_deterministic_realizability(self):
        rng = random.Random(99)
        checked = 0
        while checked < 25:
            env = random_env(rng)
            soap = random_consistent_soap(env, rng)
            if soap is None:
                continue
            checked += 1
            good = PointSet.from_policies(env, soap.good, EXACT)
            bad = PointSet.from_policies(env, soap.bad, EXACT)

            multi = design_multi(env, soap, EXACT, reduce=False)
            membership_says_clear = all(
                not in_convex_hull(point, good, EXACT).member for point in bad.points
            )
            assert multi.realizable == membership_says_clear
            # Deterministic consistent SOAPs are always realizable.
            assert multi.realizable
            assert multi.spec.dimension <= len(soap.bad)
            assert verify_realization(env, soap, multi.spec, EXACT).realized

            scalar = design_scalar(env, soap, EXACT)
            crossing = hulls_intersect(good, bad, EXACT)
            assert scalar.realizable == (not crossing.intersects)
            if scalar.realizable:
                assert verify_realization(env, soap, scalar.spec, EXACT).realized

            reduced = design_multi(env, soap, EXACT, reduce=True)
            assert reduced.realizable
            assert reduced.spec.dimension <= multi.spec.dimension

            # Brute-force feasible set agrees with per-policy verdicts.
            report = verify_realization(env, soap, multi.spec, EXACT)
            feasible_names = {
                tuple(p.action_map[s] for s in env.states)
                for p in brute_force_feasible_set(env, multi.spec, mode=EXACT)
            }
            for verdict, policy in zip(report.verdicts, soap.policies):
                key = tuple(policy.action_map[s] for s in env.states)
                assert verdict.feasible == (key in feasible_names)


@pytest.fixture(scope="module")
def reduce_cases():
    """40 seeded random consistent deterministic SOAPs with up to 24
    policies, so that groups grow past refused candidates."""
    rng = random.Random(7)
    cases = []
    while len(cases) < 40:
        env = random_env(rng)
        soap = random_consistent_soap(env, rng, max_policies=24)
        if soap is not None:
            cases.append((env, soap))
    return cases


def _spec_key(spec, mode):
    """The spec's numbers, as they are in exact mode and as `float.hex`
    in float mode."""
    show = (lambda v: v) if mode.exact else float.hex
    return ([[show(v) for v in row] for row in spec.rows],
            [show(c) for c in spec.lower_bounds])


class TestGreedyMergeReference:
    """`design_multi(reduce=True)` against the merge that solves every
    trial again (`oracles.resolving_greedy_groups`)."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_same_spec_as_resolving_merge(self, reduce_cases, monkeypatch, mode):
        for env, soap in reduce_cases:
            spec = design_multi(env, soap, mode, reduce=True).spec
            with monkeypatch.context() as patch:
                patch.setattr(separability, "_greedy_groups", resolving_greedy_groups)
                reference = design_multi(env, soap, mode, reduce=True).spec
            assert _spec_key(spec, mode) == _spec_key(reference, mode)

    def test_no_trial_contains_a_refused_one(self, reduce_cases, monkeypatch):
        trials = []  # (excluded points in row order, feasible) per LP
        real = lp.check_feasible

        def spy(program, mode=EXACT):
            result = real(program, mode)
            excluded = [row[:-1] for row, sense in zip(program.matrix, program.senses)
                        if sense == lp.LE]
            trials.append((excluded, result[0]))
            return result

        monkeypatch.setattr(lp, "check_feasible", spy)
        fewer = 0
        for env, soap in reduce_cases:
            trials.clear()
            design_multi(env, soap, EXACT, reduce=True)
            # A merge trial excludes its group, seed first, plus one
            # candidate; the first pass excludes one point.
            refused = {}  # seed -> excluded sets already refused
            for excluded, feasible in trials:
                if len(excluded) < 2:
                    continue
                excluded_set = set(excluded)
                earlier = refused.setdefault(excluded[0], [])
                assert not any(r <= excluded_set for r in earlier)
                if not feasible:
                    earlier.append(excluded_set)
            solved = len(trials)
            trials.clear()
            with monkeypatch.context() as patch:
                patch.setattr(separability, "_greedy_groups", resolving_greedy_groups)
                design_multi(env, soap, EXACT, reduce=True)
            assert solved <= len(trials)
            fewer += solved < len(trials)
        assert fewer >= 1


@pytest.fixture
def merge_trials(monkeypatch):
    """(program, excluded points in row order, feasible) of each
    merge-trial LP solved through `lp.check_feasible`, in order;
    first-pass LPs exclude one point and are left out."""
    trials = []
    real = lp.check_feasible

    def spy(program, mode=EXACT):
        result = real(program, mode)
        excluded = [tuple(row[:-1]) for row, sense in zip(program.matrix, program.senses)
                    if sense == lp.LE]
        if len(excluded) > 1:
            trials.append((program, excluded, result[0]))
        return result

    monkeypatch.setattr(lp, "check_feasible", spy)
    return trials


def _bisections_and_resumed_scans(trials):
    """The merge steps that `trials` show.  A bisection follows a refused
    chain probe with one of its prefixes, and here counts only when that
    prefix is accepted, so the refusal fell mid-chain.  A resumed scan
    tries another candidate in place of the refused chain member: a trial
    as long as a refused one, equal to it but for its last point; it
    counts here only when accepted."""
    bisections = resumed = 0
    refused = []
    for _, excluded, feasible in trials:
        if feasible:
            last = refused[-1] if refused else []
            bisections += len(excluded) < len(last) and last[:len(excluded)] == excluded
            resumed += any(len(excluded) == len(r) and r[:-1] == excluded[:-1]
                           for r in refused)
        else:
            refused.append(excluded)
    return bisections, resumed


class TestChainProbe:
    """`design_multi(reduce=True)` probes each group's whole chain first
    and bisects only on a refusal; the reference tries one candidate at a
    time (`oracles.sequential_greedy_groups`)."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_same_spec_as_sequential_merge(self, reduce_cases, merge_trials, monkeypatch, mode):
        bisected = resumed = 0
        for env, soap in reduce_cases:
            merge_trials.clear()
            spec = design_multi(env, soap, mode, reduce=True).spec
            bisections, scans = _bisections_and_resumed_scans(merge_trials)
            bisected += bisections > 0
            resumed += bisections > 0 and scans > 0
            with monkeypatch.context() as patch:
                patch.setattr(separability, "_greedy_groups", sequential_greedy_groups)
                reference = design_multi(env, soap, mode, reduce=True).spec
            assert _spec_key(spec, mode) == _spec_key(reference, mode)
        # Some refusals fall mid-chain, and some of those cases also
        # accept a candidate in the resumed scan.
        assert bisected >= 1
        assert resumed >= 1

    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_an_accepted_chain_costs_one_merge_lp(self, finished_lps, mode):
        """A deterministic good policy's visitation is a vertex of the
        visitation polytope, outside the hull of any other visitations,
        so one hyperplane excludes every bad point: the merge makes one
        group, and its first probe accepts the whole chain."""
        from rewardsep.soap import check_consistency

        rng = random.Random(5)
        checked = 0
        while checked < 10:
            env = random_env(rng)
            policies = enumerate_deterministic_policies(env, limit=4096)
            chosen = rng.sample(policies, min(len(policies), rng.randint(3, 9)))
            soap = Soap.build(good=chosen[:1], bad=chosen[1:])
            if not check_consistency(env, soap, EXACT).consistent:
                continue
            finished_lps.clear()
            outcome = design_multi(env, soap, mode, reduce=True)
            assert outcome.spec.dimension == 1
            assert len(finished_lps) == len(soap.bad) + 1
            checked += 1

    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_no_lp_solved_twice(self, reduce_cases, merge_trials, mode):
        for env, soap in reduce_cases:
            merge_trials.clear()
            design_multi(env, soap, mode, reduce=True)
            programs = [program for program, _, _ in merge_trials]
            assert len(set(programs)) == len(programs)
            # A group whose first probe is accepted solves no other trial.
            by_seed = {}
            for _, excluded, feasible in merge_trials:
                by_seed.setdefault(excluded[0], []).append(feasible)
            for outcomes in by_seed.values():
                assert not outcomes[0] or len(outcomes) == 1
