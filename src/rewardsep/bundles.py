"""Problem-bundle file format and the bundled example environments.

A bundle is a JSON document carrying an environment, named policies, and
optionally a SOAP (name references) and a reward spec:

    {
      "env": {
        "states": ["s0", "s1"],
        "actions": ["a1", "a2"],
        "gamma": "0.9",
        "start": "s0",
        "transitions": [
          {"from": "s0", "action": "a1", "to": {"s1": "1"}},
          ...
        ]
      },
      "policies": [
        {"name": "pi11", "deterministic": {"s0": "a1", "s1": "a1"}},
        {"name": "mix",  "stochastic": {"s0": {"a1": "0.5", "a2": "0.5"}, ...}}
      ],
      "soap":   {"good": ["pi12", "pi21"], "bad": ["pi11", "pi22"]},
      "reward": {"rows": [{"s0": {"a1": "0", "a2": "1"}, ...}],
                 "lower_bounds": ["2"]}
    }

Numbers are decimal or fraction strings (integers may stay bare) so the
exact-rational backend parses them losslessly; raw JSON floats are
rejected.  Each distinct number string is parsed once per document: a
bundle repeats few strings many times ("0", "1", "0.5", ...).  Every
(state, action) pair needs a transition row -- omission is an error, not
an implicit self-loop -- whose probabilities are nonnegative and sum to
exactly 1, and gamma lies in [0, 1); each error names its field.
Serialization is canonical: parsing and re-serializing a canonical
document is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional

from .mdp import MarkovEnv, Policy, PolicyError, RewardSpec
from .numeric import ExactInputError, format_number, over_common_denominator, parse_rational
from .soap import Soap, SoapError


class BundleError(ValueError):
    """Schema violation; the message carries the file and field path."""


@dataclass(frozen=True)
class ProblemBundle:
    env: MarkovEnv
    policies: tuple
    soap: Optional[Soap] = None
    reward: Optional[RewardSpec] = None

    def policy(self, name: str) -> Policy:
        for p in self.policies:
            if p.name == name:
                return p
        raise KeyError(name)

    def with_soap(self, soap: Soap) -> "ProblemBundle":
        return replace(self, soap=soap)

    def with_reward(self, reward: RewardSpec) -> "ProblemBundle":
        return replace(self, reward=reward)


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture file (entailment.json, xor_soap.json, ...)."""
    candidate = resources.files("rewardsep").joinpath("fixtures", name)
    if not candidate.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return Path(str(candidate))


def resolve_input_path(path: str) -> Path:
    """Use the file if it exists, otherwise fall back to a bundled fixture
    of the same name so the canonical examples work from any directory."""
    p = Path(path)
    if p.exists():
        return p
    try:
        return fixture_path(path)
    except FileNotFoundError:
        raise BundleError(f"{path}: no such file and no bundled fixture") from None


def _expect(data, key, kind, where):
    if not isinstance(data, dict) or key not in data:
        raise BundleError(f"{where}: missing field {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise BundleError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _names(data, key, where, unique=False):
    names = _expect(data, key, list, where)
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise BundleError(
                f"{where}.{key}[{i}]: expected str, got {type(name).__name__}"
            )
        if unique and name in names[:i]:
            raise BundleError(f"{where}.{key}[{i}]: duplicate name {name!r}")
    return names


def _number(value, where, parsed):
    """`value` as a Fraction.  `parsed` maps each number string already
    read in this document to its Fraction, so a repeated string is parsed
    once; only successful parses are kept, so a bad string raises at each
    field that holds it."""
    if isinstance(value, bool) or isinstance(value, float):
        raise BundleError(
            f"{where}: write numbers as decimal strings (got {value!r}); "
            "JSON floats cannot feed the exact backend"
        )
    if type(value) is str and value in parsed:
        return parsed[value]
    try:
        number = parse_rational(value)
    except ExactInputError as exc:
        raise BundleError(f"{where}: {exc}") from exc
    if type(value) is str:
        parsed[value] = number
    return number


def _parse_env(data, where, parsed):
    states = _names(data, "states", where, unique=True)
    actions = _names(data, "actions", where, unique=True)
    if not actions:
        raise BundleError(f"{where}.actions: no actions declared")
    gamma = _number(_expect(data, "gamma", None, where), f"{where}.gamma", parsed)
    if not 0 <= gamma < 1:
        raise BundleError(f"{where}.gamma: {format_number(gamma)} is out of range [0, 1)")
    start = _expect(data, "start", str, where)
    if start not in states:
        raise BundleError(f"{where}.start: {start!r} is not a declared state")
    rows = _expect(data, "transitions", list, where)
    transitions = {}
    for i, row in enumerate(rows):
        rwhere = f"{where}.transitions[{i}]"
        source = _expect(row, "from", str, rwhere)
        action = _expect(row, "action", str, rwhere)
        to = _expect(row, "to", dict, rwhere)
        if (source, action) in transitions:
            raise BundleError(f"{rwhere}: duplicate row for ({source}, {action})")
        dist = {s2: _number(p, f"{rwhere}.to.{s2}", parsed) for s2, p in to.items()}
        nums, den = over_common_denominator(dist.values())
        for s2, num in zip(dist, nums):
            if num < 0:
                raise BundleError(
                    f"{rwhere}.to.{s2}: negative probability {format_number(dist[s2])}"
                )
        if sum(nums) != den:
            total = format_number(Fraction(sum(nums), den))
            raise BundleError(f"{rwhere}.to: probabilities sum to {total}, not 1")
        transitions[(source, action)] = dist
    missing = [
        (s, a) for s in states for a in actions if (s, a) not in transitions
    ]
    if missing:
        raise BundleError(f"{where}: missing transition rows for {missing}")
    extra = set(transitions) - {(s, a) for s in states for a in actions}
    if extra:
        raise BundleError(f"{where}: transition rows for undeclared pairs {sorted(extra)}")
    try:
        return MarkovEnv.from_tables(states, actions, transitions, gamma, start)
    except ValueError as exc:
        raise BundleError(f"{where}: {exc}") from exc


def _parse_policy(data, where, parsed):
    name = _expect(data, "name", str, where)
    has_det = "deterministic" in data
    has_sto = "stochastic" in data
    if has_det == has_sto:
        raise BundleError(
            f"{where}: give exactly one of 'deterministic' or 'stochastic'"
        )
    if has_det:
        mapping = _expect(data, "deterministic", dict, where)
        for s, a in mapping.items():
            if not isinstance(a, str):
                raise BundleError(f"{where}.deterministic.{s}: action must be a string")
        return Policy.deterministic(name, mapping)
    table = _expect(data, "stochastic", dict, where)
    rows = {
        s: {
            a: _number(p, f"{where}.stochastic.{s}.{a}", parsed)
            for a, p in _expect(table, s, dict, f"{where}.stochastic").items()
        }
        for s in table
    }
    return Policy.stochastic(name, rows)


def _parse_soap(data, policies, where):
    by_name = {p.name: p for p in policies}

    def resolve(names, label):
        out = []
        for n in names:
            if n not in by_name:
                raise BundleError(f"{where}.{label}: unresolved policy name {n!r}")
            out.append(by_name[n])
        return out

    good = resolve(_names(data, "good", where), "good")
    bad = resolve(_names(data, "bad", where), "bad")
    try:
        return Soap.build(good=good, bad=bad)
    except SoapError as exc:
        raise BundleError(f"{where}: {exc}") from exc


def _parse_reward(data, env, where, parsed):
    rows_data = _expect(data, "rows", list, where)
    bounds_data = _expect(data, "lower_bounds", list, where)
    if len(rows_data) != len(bounds_data):
        raise BundleError(f"{where}: rows and lower_bounds differ in length")
    rows = []
    for i, row in enumerate(rows_data):
        rwhere = f"{where}.rows[{i}]"
        entries = []
        for s in env.states:
            per_state = _expect(row, s, dict, rwhere)
            for a in env.actions:
                entries.append(_number(_expect(per_state, a, None, f"{rwhere}.{s}"),
                                       f"{rwhere}.{s}.{a}", parsed))
        rows.append(tuple(entries))
    bounds = [_number(b, f"{where}.lower_bounds[{i}]", parsed)
              for i, b in enumerate(bounds_data)]
    try:
        return RewardSpec.build(rows=rows, lower_bounds=bounds)
    except ValueError as exc:
        raise BundleError(f"{where}: {exc}") from exc


def _json(text: str, source) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleError(f"{source}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise BundleError(f"{source}: invalid JSON: nested too deeply") from None


def _read(path: Path) -> str:
    """The text of an input file.  A path that cannot be read (a directory,
    say) or whose bytes are not UTF-8 is a `BundleError` naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BundleError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise BundleError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def parse_bundle_text(text: str, source: str = "<string>") -> ProblemBundle:
    data = _json(text, source)
    if not isinstance(data, dict):
        raise BundleError(f"{source}: top level must be an object")
    parsed = {}  # number string -> Fraction, for this document only
    env = _parse_env(_expect(data, "env", dict, source), f"{source}.env", parsed)
    policies = []
    names = set()
    policies_data = _expect(data, "policies", list, source) if "policies" in data else []
    for i, pdata in enumerate(policies_data):
        policy = _parse_policy(pdata, f"{source}.policies[{i}]", parsed)
        if policy.name in names:
            raise BundleError(
                f"{source}.policies[{i}]: duplicate policy name {policy.name!r}"
            )
        names.add(policy.name)
        try:
            policy.validate_for(env)
        except PolicyError as exc:
            raise BundleError(f"{source}.policies[{i}]: {exc}") from exc
        policies.append(policy)
    soap = None
    if "soap" in data:
        soap = _parse_soap(data["soap"], policies, f"{source}.soap")
    reward = None
    if "reward" in data:
        reward = _parse_reward(data["reward"], env, f"{source}.reward", parsed)
    return ProblemBundle(env=env, policies=tuple(policies), soap=soap, reward=reward)


def parse_bundle(path) -> ProblemBundle:
    p = resolve_input_path(str(path))
    return parse_bundle_text(_read(p), source=str(p))


def load_soap(path, bundle: ProblemBundle) -> Soap:
    p = resolve_input_path(str(path))
    return _parse_soap(_json(_read(p), p), bundle.policies, str(p))


def load_reward(path, env: MarkovEnv) -> RewardSpec:
    p = resolve_input_path(str(path))
    return _parse_reward(_json(_read(p), p), env, str(p), {})


def _num_str(value) -> str:
    return format_number(parse_rational(value) if isinstance(value, str) else value)


def _env_dict(env: MarkovEnv) -> dict:
    transitions = []
    for (s, a), row in zip(env.sa_pairs(), env.kernel):
        to = {
            s2: _num_str(p)
            for s2, p in zip(env.states, row)
            if parse_rational(p) != 0
        }
        transitions.append({"from": s, "action": a, "to": to})
    return {
        "states": list(env.states),
        "actions": list(env.actions),
        "gamma": _num_str(env.gamma),
        "start": env.start,
        "transitions": transitions,
    }


def _policy_dict(policy: Policy, env: MarkovEnv) -> dict:
    if policy.is_deterministic:
        return {
            "name": policy.name,
            "deterministic": {s: policy.action_map[s] for s in env.states},
        }
    return {
        "name": policy.name,
        "stochastic": {
            s: {
                a: _num_str(p)
                for a, p in zip(env.actions, policy.distribution_row(env, s))
            }
            for s in env.states
        },
    }


def reward_dict(reward: RewardSpec, env: MarkovEnv) -> dict:
    rows = []
    for row in reward.rows:
        per_state = {}
        for si, s in enumerate(env.states):
            per_state[s] = {
                a: _num_str(row[si * env.n_actions + ai])
                for ai, a in enumerate(env.actions)
            }
        rows.append(per_state)
    return {
        "rows": rows,
        "lower_bounds": [_num_str(b) for b in reward.lower_bounds],
    }


def serialize_bundle(bundle: ProblemBundle) -> str:
    """Canonical JSON text; stable under parse -> serialize round trips."""
    doc = {"env": _env_dict(bundle.env)}
    if bundle.policies:
        doc["policies"] = [_policy_dict(p, bundle.env) for p in bundle.policies]
    if bundle.soap is not None:
        doc["soap"] = {
            "good": [p.name for p in bundle.soap.good],
            "bad": [p.name for p in bundle.soap.bad],
        }
    if bundle.reward is not None:
        doc["reward"] = reward_dict(bundle.reward, bundle.env)
    return json.dumps(doc, indent=2) + "\n"
