"""Each query solves each policy's visitation exactly once, validates its
environment once and converts its kernel once."""

import json
from collections import Counter

import pytest

from rewardsep import mdp
from rewardsep.cli import run_command
from rewardsep.mdp import Policy, RewardSpec, VisitationTable, compute_visitation
from rewardsep.numeric import EXACT, FLOAT
from rewardsep.separability import check_scalar_optimality, design_multi, design_scalar
from rewardsep.soap import Soap, check_consistency
from rewardsep.verify import verify_realization

from envs import PI11, PI12, PI21, PI22, entailment_env

XOR_SOAP = Soap.build(good=[PI12, PI21], bad=[PI11, PI22])
SINGLE_GOOD_SOAP = Soap.build(good=[PI22], bad=[PI11, PI12, PI21])


@pytest.fixture
def solves(monkeypatch):
    """Visitation solves per policy name, counted at the solve core that
    both `compute_visitation` and the table call."""
    counts = Counter()
    real = mdp._visitation

    def counting(env, policy, mode):
        counts[policy.name] += 1
        return real(env, policy, mode)

    monkeypatch.setattr(mdp, "_visitation", counting)
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
    """Number of `mdp._scaled_kernel` runs, the kernel conversion."""
    calls = []
    real = mdp._scaled_kernel

    def counting(env, mode):
        calls.append(env)
        return real(env, mode)

    monkeypatch.setattr(mdp, "_scaled_kernel", counting)
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
