import json
from fractions import Fraction

import pytest

import rewardsep.bundles as bundles
from rewardsep.bundles import (
    BundleError,
    fixture_path,
    load_reward,
    load_soap,
    parse_bundle,
    parse_bundle_text,
    serialize_bundle,
)
from rewardsep.numeric import EXACT
from rewardsep.mdp import compute_visitation

F = Fraction


class TestFixtures:
    def test_entailment_fixture(self):
        bundle = parse_bundle(fixture_path("entailment.json"))
        env = bundle.env
        assert env.states == ("s0", "s1")
        assert env.actions == ("a1", "a2")
        assert env.gamma == F(9, 10)
        assert env.start == "s0"
        assert len(bundle.policies) == 4
        assert {p.name for p in bundle.policies} == {"pi11", "pi12", "pi21", "pi22"}

    def test_steady_state_fixture_absorbing(self):
        bundle = parse_bundle(fixture_path("steady_state.json"))
        env = bundle.env
        # s1 is absorbing under both actions.
        for a in env.actions:
            row = env.kernel[env.sa_index("s1", a)]
            assert row == (F(0), F(1))

    def test_fixture_name_resolution(self):
        # Bare fixture names resolve even without a local file.
        bundle = parse_bundle("entailment.json")
        assert bundle.env.gamma == F(9, 10)

    def test_soap_and_reward_fixtures(self):
        bundle = parse_bundle("entailment.json")
        soap = load_soap("xor_soap.json", bundle)
        assert [p.name for p in soap.good] == ["pi12", "pi21"]
        reward = load_reward("entailment_reward.json", bundle.env)
        assert reward.dimension == 2
        assert reward.lower_bounds == (F(2), F(-8))

    def test_visitation_from_fixture_matches_series(self):
        bundle = parse_bundle("entailment.json")
        rho = compute_visitation(bundle.env, bundle.policy("pi22"), EXACT)
        assert rho.entries == (F(0), F(100, 19), F(0), F(90, 19))


def minimal_bundle_doc():
    return {
        "env": {
            "states": ["s0"],
            "actions": ["a1", "a2"],
            "gamma": "0.5",
            "start": "s0",
            "transitions": [
                {"from": "s0", "action": "a1", "to": {"s0": "1"}},
                {"from": "s0", "action": "a2", "to": {"s0": "1"}},
            ],
        },
        "policies": [
            {"name": "p1", "deterministic": {"s0": "a1"}},
            {"name": "p2", "stochastic": {"s0": {"a1": "0.25", "a2": "0.75"}}},
        ],
        "soap": {"good": ["p1"], "bad": ["p2"]},
    }


class TestParsing:
    def test_unresolved_soap_name(self):
        doc = minimal_bundle_doc()
        doc["soap"]["bad"] = ["pi99"]
        with pytest.raises(BundleError, match="pi99"):
            parse_bundle_text(json.dumps(doc))

    def test_missing_transition_row(self):
        doc = minimal_bundle_doc()
        doc["env"]["transitions"] = doc["env"]["transitions"][:1]
        with pytest.raises(BundleError, match="missing transition rows"):
            parse_bundle_text(json.dumps(doc))

    def test_float_numbers_rejected(self):
        doc = minimal_bundle_doc()
        doc["env"]["gamma"] = 0.5
        with pytest.raises(BundleError, match="decimal strings"):
            parse_bundle_text(json.dumps(doc))

    def test_non_stochastic_policy_rejected(self):
        doc = minimal_bundle_doc()
        doc["policies"][1]["stochastic"]["s0"]["a2"] = "0.5"
        with pytest.raises(Exception, match="sums"):
            parse_bundle_text(json.dumps(doc))

    def test_error_message_carries_field_path(self):
        doc = minimal_bundle_doc()
        del doc["env"]["transitions"][0]["to"]
        with pytest.raises(BundleError, match=r"transitions\[0\]"):
            parse_bundle_text(json.dumps(doc))

    def test_duplicate_policy_names_rejected(self):
        doc = minimal_bundle_doc()
        doc["policies"].append({"name": "p1", "deterministic": {"s0": "a2"}})
        with pytest.raises(BundleError, match="duplicate"):
            parse_bundle_text(json.dumps(doc))


def number_strings(doc):
    """Every number string of a bundle or reward document, repeats kept."""
    out = []
    env = doc.get("env")
    if env:
        out.append(env["gamma"])
        out += [p for row in env["transitions"] for p in row["to"].values()]
    for policy in doc.get("policies", []):
        out += [p for row in policy.get("stochastic", {}).values() for p in row.values()]
    reward = doc.get("reward", doc if "rows" in doc else None)
    if reward:
        out += [v for row in reward["rows"] for per in row.values() for v in per.values()]
        out += reward["lower_bounds"]
    return out


class TestParseOnce:
    """Each distinct number string is parsed once per document."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        real = bundles.parse_rational

        def counting(value):
            if isinstance(value, str):
                calls.append(value)
            return real(value)

        monkeypatch.setattr(bundles, "parse_rational", counting)
        return calls

    def test_one_parse_per_distinct_string(self, parses):
        doc = json.loads(fixture_path("entailment.json").read_text())
        doc["policies"].append(
            {"name": "mix", "stochastic": {s: {"a1": "0.5", "a2": "1/2"} for s in ("s0", "s1")}})
        doc["reward"] = json.loads(fixture_path("entailment_reward.json").read_text())
        text = json.dumps(doc)
        strings = number_strings(doc)
        assert len(set(strings)) < len(strings)
        first = parse_bundle_text(text)
        assert sorted(parses) == sorted(set(strings))
        # A second parse shares nothing with the first.
        parses.clear()
        second = parse_bundle_text(text)
        assert sorted(parses) == sorted(set(strings))
        assert second == first and second.env.gamma is not first.env.gamma

    def test_reward_file_parsed_once_per_load(self, parses):
        bundle = parse_bundle("entailment.json")
        strings = number_strings(json.loads(fixture_path("entailment_reward.json").read_text()))
        for _ in range(2):
            parses.clear()
            load_reward("entailment_reward.json", bundle.env)
            assert sorted(parses) == sorted(set(strings))

    def test_bad_string_reported_at_its_first_field(self):
        doc = minimal_bundle_doc()
        for row in doc["env"]["transitions"]:
            row["to"]["s0"] = "1/x"
        with pytest.raises(BundleError, match=r"env\.transitions\[0\]\.to\.s0: cannot parse"):
            parse_bundle_text(json.dumps(doc))


class TestRoundTrip:
    def test_serialize_parse_is_identity(self):
        bundle = parse_bundle("entailment.json")
        soap = load_soap("xor_soap.json", bundle)
        reward = load_reward("entailment_reward.json", bundle.env)
        full = bundle.with_soap(soap).with_reward(reward)
        text = serialize_bundle(full)
        again = parse_bundle_text(text)
        assert again == full
        assert serialize_bundle(again) == text

    def test_fixture_files_are_canonical(self):
        for name in ("entailment.json", "steady_state.json"):
            path = fixture_path(name)
            text = path.read_text()
            assert serialize_bundle(parse_bundle_text(text)) == text

    def test_stochastic_policy_round_trip(self):
        doc = minimal_bundle_doc()
        bundle = parse_bundle_text(json.dumps(doc))
        text = serialize_bundle(bundle)
        again = parse_bundle_text(text)
        assert again == bundle
        assert serialize_bundle(again) == text
