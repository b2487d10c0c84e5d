"""Each query solves each policy's visitation exactly once, validates its
environment once and converts its kernel once; a table solves its
policies as one stack, each as it would be solved alone: bit for bit in
float mode, to the same Fractions in exact mode."""

import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rewardsep import linalg, mdp
from rewardsep.cli import run_command
from rewardsep.mdp import (
    EnvError,
    MarkovEnv,
    Policy,
    PolicyError,
    RewardSpec,
    Visitation,
    VisitationTable,
    compute_visitation,
    flow_residuals,
)
from rewardsep.numeric import EXACT, FLOAT, ZERO
from rewardsep.separability import check_scalar_optimality, design_multi, design_scalar
from rewardsep.soap import Soap, check_consistency
from rewardsep.verify import verify_realization

from envs import PI11, PI12, PI21, PI22, entailment_env
from oracles import one_exact_visitation, one_float_visitation

F = Fraction
XOR_SOAP = Soap.build(good=[PI12, PI21], bad=[PI11, PI22])
SINGLE_GOOD_SOAP = Soap.build(good=[PI22], bad=[PI11, PI12, PI21])


@pytest.fixture
def solves(monkeypatch):
    """Visitation solves per policy name, counted at the batched solve core
    that both `compute_visitation` and the table call."""
    counts = Counter()
    real = mdp._visitations

    def counting(table, policies):
        counts.update(p.name for p in policies)
        return real(table, policies)

    monkeypatch.setattr(mdp, "_visitations", counting)
    return counts


@pytest.fixture
def validations(monkeypatch):
    """Number of `mdp.validate_env` runs."""
    calls = []
    real = mdp.validate_env

    def counting(env, mode=EXACT):
        calls.append(env)
        return real(env, mode)

    monkeypatch.setattr(mdp, "validate_env", counting)
    return calls


@pytest.fixture
def conversions(monkeypatch):
    """Number of `mdp._converted_kernel` runs, the kernel conversion."""
    calls = []
    real = mdp._converted_kernel

    def counting(env, mode):
        calls.append(env)
        return real(env, mode)

    monkeypatch.setattr(mdp, "_converted_kernel", counting)
    return calls


def once_each(soap):
    return Counter({p.name: 1 for p in soap.policies})


def test_consistency_solves_each_policy_once(solves):
    assert check_consistency(entailment_env(), XOR_SOAP, EXACT).consistent
    assert solves == once_each(XOR_SOAP)


@pytest.mark.parametrize(
    "soap, realizable", [(SINGLE_GOOD_SOAP, True), (XOR_SOAP, False)],
    ids=["positive", "negative"],
)
def test_design_scalar_solves_each_policy_once(solves, soap, realizable):
    outcome = design_scalar(entailment_env(), soap, EXACT)
    assert outcome.realizable is realizable
    assert solves == once_each(soap)


def test_design_multi_reduce_solves_each_policy_once(solves):
    outcome = design_multi(entailment_env(), XOR_SOAP, EXACT, reduce=True)
    assert outcome.realizable
    assert outcome.verification.realized
    assert solves == once_each(XOR_SOAP)


def test_verify_solves_each_policy_once(solves):
    env = entailment_env()
    spec = RewardSpec.build(rows=[[0] * env.n_sa], lower_bounds=[0])
    assert verify_realization(env, XOR_SOAP, spec, EXACT).realized is False
    assert solves == once_each(XOR_SOAP)


def test_cli_design_multi_solves_each_policy_once(solves, capsys):
    code = run_command(
        ["design-multi", "entailment.json", "--soap", "xor_soap.json", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verified"] is True
    assert solves == once_each(XOR_SOAP)


def test_optimality_solves_each_deterministic_policy_once(solves):
    soap = Soap.build(good=[PI11], bad=[PI12, PI21, PI22])
    assert check_scalar_optimality(entailment_env(), soap, EXACT).realizable
    # The enumerated twins of the SOAP's policies are skipped, so the
    # 2^2 deterministic policies are solved once each under SOAP names.
    assert solves == once_each(soap)


def test_optimality_validates_only_the_soap_policies(monkeypatch):
    """The enumerated deterministic policies are built from the
    environment's own states and actions, so only the SOAP's policies are
    validated: |SOAP| checks, not |A|^|S|."""
    checked = []
    real = Policy.validate_for
    monkeypatch.setattr(Policy, "validate_for",
                        lambda policy, env, mode=EXACT: checked.append(policy.name)
                        or real(policy, env, mode))
    env = MarkovEnv(("s0", "s1", "s2"), ("a1", "a2"),
                    tuple((F(1, 2), F(1, 2), 0) if k % 2 else (0, 0, 1) for k in range(6)),
                    F(9, 10), "s0")
    soap = Soap.build(good=[Policy.deterministic("g", {"s0": "a1", "s1": "a1", "s2": "a1"})],
                      bad=[Policy.deterministic("b", {"s0": "a2", "s1": "a1", "s2": "a1"})])
    check_scalar_optimality(env, soap, EXACT)
    assert checked == ["g", "b"]


def test_flow_residuals_validates_the_environment():
    env = entailment_env()
    kernel = ((F(1, 2), F(1, 3)),) + env.kernel[1:]  # row (s0, a1) sums to 5/6
    with pytest.raises(EnvError, match=re.escape("transition row for (s0, a1) sums to 5/6")):
        flow_residuals(MarkovEnv(env.states, env.actions, kernel, env.gamma, env.start),
                       compute_visitation(env, PI11, EXACT), EXACT)


def test_name_clash_is_solved_afresh():
    env = entailment_env()
    table = VisitationTable(env, FLOAT)
    impostor = Policy.deterministic(PI11.name, dict(PI22.action_map))
    assert table(PI11) is table(PI11)
    assert table(impostor).entries == compute_visitation(env, PI22, FLOAT).entries
    assert table(PI11).entries == compute_visitation(env, PI11, FLOAT).entries



@pytest.mark.parametrize(
    "query",
    [
        lambda env: compute_visitation(env, PI11, EXACT),
        lambda env: check_consistency(env, XOR_SOAP, EXACT),
        lambda env: design_scalar(env, SINGLE_GOOD_SOAP, EXACT),
        lambda env: design_scalar(env, XOR_SOAP, FLOAT),
        lambda env: design_multi(env, XOR_SOAP, EXACT, reduce=True),
        lambda env: check_scalar_optimality(env, Soap.build(good=[PI11], bad=[PI12]), EXACT),
        lambda env: verify_realization(
            env, XOR_SOAP, RewardSpec.build(rows=[[0] * env.n_sa], lower_bounds=[0])
        ),
    ],
    ids=["compute-visitation", "consistency", "scalar", "scalar-negative-float", "multi-reduce",
         "optimality", "verify"],
)
def test_query_validates_the_environment_once(validations, query):
    query(entailment_env())
    assert len(validations) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["visitation", "entailment.json"],
        ["consistency", "entailment.json", "--soap", "xor_soap.json"],
        ["design-scalar", "entailment.json", "--soap", "xor_soap.json", "--tol", "1e-9"],
        ["design-multi", "entailment.json", "--soap", "xor_soap.json", "--reduce"],
        ["design-scalar-optimal", "entailment.json", "--soap", "optimal_a1_soap.json"],
        ["verify", "entailment.json", "--soap", "xor_soap.json",
         "--reward", "entailment_reward.json"],
        ["export-plot", "entailment.json", "--soap", "xor_soap.json",
         "--axis-x", "s0,a2", "--axis-y", "s1,a2"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_command_validates_the_environment_once(validations, capsys, argv):
    assert run_command(argv) in (0, 1)
    capsys.readouterr()
    assert len(validations) == 1


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize(
    "query",
    [
        lambda env, mode: design_multi(env, XOR_SOAP, mode, reduce=True),
        lambda env, mode: check_scalar_optimality(
            env, Soap.build(good=[PI11], bad=[PI12, PI21, PI22]), mode),
    ],
    ids=["multi-reduce", "optimality"],
)
def test_query_converts_the_kernel_once(conversions, query, mode):
    query(entailment_env(), mode)
    assert len(conversions) == 1


@pytest.mark.parametrize("tol", [[], ["--tol", "1e-9"]], ids=["exact", "float"])
def test_cli_design_multi_converts_the_kernel_once(conversions, capsys, tol):
    code = run_command(
        ["design-multi", "entailment.json", "--soap", "xor_soap.json", "--json"] + tol
    )
    capsys.readouterr()
    assert code == 0
    assert len(conversions) == 1


def _row(rng, n, floats):
    """A probability row: Python floats w / total or Fractions, zeros kept."""
    weights = [rng.choice([0, 0, 1, 2, 3, 5, 7]) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return tuple(w / total if floats else Fraction(w, total) for w in weights)


def random_stack(seed, exact=False):
    """An environment with |S| <= 8 and |A| <= 3, gamma 1/2 or 9/10 by the
    seed's parity, and 2-12 policies: the first deterministic, the second
    stochastic, the rest either.  With `exact`, every probability that
    would be a Python float is the Fraction of the same weights."""
    rng = random.Random(seed)
    n_s, n_a = rng.randint(1, 8), rng.randint(1, 3)
    states = tuple(f"s{i}" for i in range(n_s))
    actions = tuple(f"a{i}" for i in range(n_a))
    kernel = tuple(_row(rng, n_s, rng.random() < 0.3 and not exact)
                   for _ in range(n_s * n_a))
    env = MarkovEnv(states, actions, kernel, (Fraction(1, 2), "9/10")[seed % 2],
                    rng.choice(states))
    policies = []
    for i in range(rng.randint(2, 12)):
        if i == 0 or (i > 1 and rng.random() < 0.5):
            policies.append(Policy.deterministic(
                f"p{i}", {s: rng.choice(actions) for s in states}))
        else:
            policies.append(Policy.stochastic(
                f"p{i}", {s: dict(zip(actions, _row(rng, n_a, rng.random() < 0.5 and not exact)))
                          for s in states}))
    return env, policies


@pytest.mark.parametrize("seed", range(40))
def test_float_batch_matches_one_policy_solves(seed):
    env, policies = random_stack(seed)
    got = VisitationTable(env, FLOAT).many(policies)
    assert len(got) == len(policies)
    for policy, rho in zip(policies, got):
        assert all(type(v) is float for v in rho.entries)
        want = one_float_visitation(env, policy, FLOAT)
        assert [v.hex() for v in rho.entries] == [v.hex() for v in want]


@pytest.mark.parametrize("seed", range(40))
def test_exact_batch_matches_one_policy_solves(seed):
    env, policies = random_stack(seed, exact=True)
    got = VisitationTable(env, EXACT).many(policies)
    assert len(got) == len(policies)
    for policy, rho in zip(policies, got):
        assert all(type(v) is Fraction for v in rho.entries)
        assert all(v is ZERO for v in rho.entries if not v)
        assert rho == compute_visitation(env, policy, EXACT)
        assert rho.entries == one_exact_visitation(env, policy)


def solved_stack(monkeypatch, env, policies, mode):
    """(table, rhos, nums, q): the table that solved `policies`, their
    visitations and the numerators and denominators its self-check was
    handed."""
    table, handed = VisitationTable(env, mode), []
    real = mdp._self_check
    with monkeypatch.context() as m:
        m.setattr(mdp, "_self_check", lambda *args: handed.append(args) or real(*args))
        rhos = table.many(policies)
    [(_, nums, q)] = handed
    return table, rhos, nums, q


class TestBatchSelfCheckRejects:
    """The vectorised float self-check refuses a stack in which one
    visitation breaks either identity."""

    @pytest.fixture(autouse=True)
    def stack(self, monkeypatch):
        env, self.policies = random_stack(11)  # 8 states, 3 actions, 6 policies
        assert env.n_states >= 2 and len(self.policies) >= 3
        self.table, rhos, self.nums, self.q = solved_stack(monkeypatch, env, self.policies, FLOAT)
        assert [tuple(row) for row in self.nums.tolist()] == [rho.entries for rho in rhos]
        assert self.q.tolist() == [1.0] * len(rhos)

    def test_accepts_the_solved_stack(self):
        mdp._self_check(self.table, self.nums, self.q)

    def test_scaled_entry_breaks_normalisation(self):
        k = int(np.argmax(self.nums[1]))
        self.nums[1, k] *= 1.5
        with pytest.raises(RuntimeError, match="visitation normalization violated"):
            mdp._self_check(self.table, self.nums, self.q)

    def test_moved_mass_breaks_flow(self):
        env = self.table.env
        row = self.nums[2]
        source = int(np.argmax(row))
        target = (source + env.n_actions) % env.n_sa  # the same action, the next state
        moved = row[source] / 2
        row[source] -= moved
        row[target] += moved
        with pytest.raises(RuntimeError, match="Bellman flow violated at state"):
            mdp._self_check(self.table, self.nums, self.q)


class TestExactBatchSelfCheckRejects:
    """The exact self-check refuses a stack in which one visitation breaks
    either identity, tested on the numerators the solve hands it: rho_i =
    nums[i] / q[i] with q = det Q, not over the lcm of the denominators of
    rho_i.  Each fault is reported as a reduced rational."""

    @pytest.fixture(autouse=True)
    def stack(self, monkeypatch):
        env, self.policies = random_stack(11, exact=True)  # 8 states, 3 actions
        self.table, rhos, self.nums, self.q = solved_stack(monkeypatch, env, self.policies, EXACT)
        assert [tuple(EXACT.ratio(v, q) for v in row)
                for row, q in zip(self.nums.tolist(), self.q.tolist())] == [
            rho.entries for rho in rhos]
        lcms = [EXACT.scaled(rho.entries)[1] for rho in rhos]
        assert self.q.tolist() != lcms

    def test_accepts_the_solved_stack(self):
        mdp._self_check(self.table, self.nums, self.q)

    def test_scaled_entry_breaks_normalisation(self):
        k = int(np.argmax(self.nums[1]))
        self.nums[1, k] *= 2
        total, q = sum(self.nums[1].tolist()), self.q[1]
        assert math.gcd(total, q) > 1  # so the reduced sum is not total/q
        with pytest.raises(RuntimeError, match=re.escape(
                f"visitation normalization violated: sum={Fraction(total, q)}, expected=10")):
            mdp._self_check(self.table, self.nums, self.q)

    def test_moved_mass_breaks_flow(self):
        env = self.table.env
        row = self.nums[2]
        source = int(np.argmax(row))
        target = (source + env.n_actions) % env.n_sa  # the same action, the next state
        moved = row[source] // 2
        row[source] -= moved
        row[target] += moved
        rho = Visitation(tuple(EXACT.ratio(v, self.q[2]) for v in row.tolist()))
        residuals = flow_residuals(env, rho, EXACT)
        s = next(s for s, r in enumerate(residuals) if r)
        with pytest.raises(RuntimeError, match=re.escape(
                f"Bellman flow violated at state {env.states[s]}: residual {residuals[s]}")):
            mdp._self_check(self.table, self.nums, self.q)


def test_float_batch_validates_every_policy_in_order_before_solving(monkeypatch):
    """The second good policy is the first the old one-at-a-time order
    reached with a fault, so it is the one named, and nothing is solved."""
    squares = []
    real = linalg.solve_square
    monkeypatch.setattr(linalg, "solve_square",
                        lambda rows, rhs, mode: squares.append(rows) or real(rows, rhs, mode))
    over = Policy.stochastic("over", {"s0": {"a1": 0.5, "a2": 0.6}, "s1": {"a1": 1.0}})
    stray = Policy.deterministic("stray", {"s0": "a9", "s1": "a1"})
    soap = Soap.build(good=[PI11, over], bad=[stray, PI22])
    with pytest.raises(PolicyError, match="policy 'over' row at 's0' sums to"):
        check_consistency(entailment_env(), soap, FLOAT)
    assert squares == []
