"""NumericMode: exact mode is tolerance 0, exact answers hold no float, and
float answers hold no numpy scalar."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from rewardsep import lp
from rewardsep.bundles import load_reward, load_soap, parse_bundle
from rewardsep.mdp import RewardSpec
from rewardsep.numeric import (
    EXACT, FLOAT, ZERO, ExactInputError, NumericMode, as_exact, as_float, format_number,
    parse_rational,
)
from rewardsep.separability import (
    DeterministicSoapRequired,
    InconsistentSoapError,
    check_scalar_optimality,
    design_multi,
    design_scalar,
)
from rewardsep.soap import Soap
from rewardsep.verify import verify_realization

from envs import PI11, PI22, entailment_env

BUNDLES = ("entailment.json", "steady_state.json")
SOAPS = ("xor_soap.json", "always_a2_soap.json", "degenerate_soap.json",
         "optimal_a1_soap.json")


@pytest.mark.parametrize("text", ["1e-5000", "2E+4301", "1e-4_301", "1e0004301",
                                  "3.5e" + "9" * 5000],
                         ids=["negative", "positive", "underscore", "leading-zeros",
                              "5000-digits"])
def test_parse_rational_refuses_a_huge_exponent(text):
    with pytest.raises(ExactInputError, match="its exponent is beyond ±4300"):
        parse_rational(text)


def test_parse_rational_keeps_an_exponent_within_the_limit():
    assert parse_rational("1e-4300") == Fraction(1, 10**4300)
    assert parse_rational(" 2.5E+0_4300 ") == Fraction(25 * 10**4299)


def test_format_number_writes_out_more_than_4300_digits():
    big = 10**5000 + 7
    assert format_number(-big) == "-1" + "0" * 4999 + "7"
    assert format_number(Fraction(1, 10**4300)) == "0." + "0" * 4299 + "1"
    assert format_number(Fraction(big, 3)) == f"1{'0' * 4999}7/3"


class TestTolerance:
    def test_exact_tolerance_is_the_int_zero(self):
        assert type(EXACT.tolerance) is int and EXACT.tolerance == 0
        assert EXACT.exact and EXACT.convert is as_exact and EXACT.zero is ZERO

    def test_zero_float_tolerance_is_exact_mode(self):
        mode = NumericMode(0.0)
        assert mode.exact
        assert type(mode.tolerance) is int and mode.tolerance == 0
        assert mode == EXACT

    def test_positive_tolerance_is_float_mode(self):
        assert not FLOAT.exact and FLOAT.tolerance == 1e-9
        assert FLOAT.convert is as_float and type(FLOAT.zero) is float

    def test_exact_is_not_settable(self):
        with pytest.raises(TypeError):
            NumericMode(exact=True)
        with pytest.raises(TypeError):
            NumericMode(1e-9, exact=True)

    @pytest.mark.parametrize("tolerance", [-1e-9, float("nan"), float("-inf")])
    def test_meaningless_tolerance_refused(self, tolerance):
        with pytest.raises(ValueError, match="finite positive tolerance"):
            NumericMode(tolerance)

    def test_share_zero(self):
        shared = EXACT.share_zero([Fraction(0), Fraction(1, 2), 0])
        assert shared[0] is ZERO and shared[2] is ZERO and shared[1] == Fraction(1, 2)
        assert FLOAT.share_zero([-0.0, 0.5]) == (-0.0, 0.5)

    def test_scaled_and_ratio(self):
        assert EXACT.scaled([Fraction(1, 2), "1/3", 2]) == ([3, 2, 12], 6)
        assert FLOAT.scaled(["0.5", Fraction(1, 4)]) == ([0.5, 0.25], 1)
        assert EXACT.ratio(0, 6) is ZERO and EXACT.ratio(3, 6) == Fraction(1, 2)
        assert FLOAT.ratio(3, 6) == 0.5


def _numbers(value):
    """Every number in a result, through dataclasses, tuples, lists and dicts."""
    if isinstance(value, (bool, str)) or value is None:
        return
    if isinstance(value, (int, float, Fraction)):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _numbers(getattr(value, f.name))
    elif isinstance(value, dict):
        for item in value.items():
            yield from _numbers(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)
    else:
        raise TypeError(f"unexpected {type(value).__name__} in a result")


@pytest.mark.parametrize("mode", [EXACT, NumericMode(0.0)], ids=["EXACT", "zero-float"])
def test_exact_answers_hold_no_float(mode, monkeypatch):
    solves = []
    real_solve = lp.solve

    def recording(program, solve_mode=EXACT):
        solution = real_solve(program, solve_mode)
        solves.append((program, solution))
        return solution

    monkeypatch.setattr(lp, "solve", recording)
    results = []
    for bundle_name, soap_name in itertools.product(BUNDLES, SOAPS):
        bundle = parse_bundle(bundle_name)
        env, soap = bundle.env, load_soap(soap_name, bundle)
        for design in (design_scalar, check_scalar_optimality,
                       lambda e, s, m: design_multi(e, s, m, reduce=True)):
            try:
                results.append(design(env, soap, mode))
            except (InconsistentSoapError, DeterministicSoapRequired):
                pass
        if bundle_name == "entailment.json":
            reward = load_reward("entailment_reward.json", env)
            results.append(verify_realization(env, soap, reward, mode))
    results += [solution for _, solution in solves]
    statuses = {solution.status for _, solution in solves}
    assert statuses == {lp.FEASIBLE, lp.INFEASIBLE}
    assert len(results) > 40
    numbers = [n for result in results for n in _numbers(result)]
    assert numbers
    floats = [n for n in numbers if isinstance(n, float)]
    assert not floats, floats[:5]


@pytest.mark.parametrize("mode", [EXACT, NumericMode(0.0)], ids=["EXACT", "zero-float"])
def test_exact_tie_at_a_decimal_bound_is_feasible(mode):
    """float(1/10) exceeds 1/10, so a bound made a float by subtracting a
    0.0 tolerance would reject the policy that meets it exactly."""
    spec = RewardSpec.build(rows=[(Fraction(19, 1000), 0, 0, 0)],
                            lower_bounds=[Fraction(1, 10)])
    soap = Soap.build(good=[PI11], bad=[PI22])
    report = verify_realization(entailment_env(), soap, spec, mode)
    assert report.verdict_for("pi11").values == (Fraction(1, 10),)
    assert report.realized


@pytest.mark.parametrize("tolerance", [1e-9, 1e-6])
def test_float_answers_hold_no_numpy_scalar(tolerance, monkeypatch):
    """Float answers hold Python floats only, never an `np.float64` beside
    them, as the exact answers hold no float."""
    mode = NumericMode.floating(tolerance)
    solves = []
    real_solve = lp.solve

    def recording(program, solve_mode=EXACT):
        solution = real_solve(program, solve_mode)
        solves.append((program, solution))
        return solution

    monkeypatch.setattr(lp, "solve", recording)
    results = []
    for bundle_name, soap_name in itertools.product(BUNDLES, SOAPS):
        bundle = parse_bundle(bundle_name)
        env, soap = bundle.env, load_soap(soap_name, bundle)
        for design in (design_scalar, check_scalar_optimality,
                       lambda e, s, m: design_multi(e, s, m, reduce=True)):
            try:
                results.append(design(env, soap, mode))
            except (InconsistentSoapError, DeterministicSoapRequired):
                pass
        if bundle_name == "entailment.json":
            reward = load_reward("entailment_reward.json", env)
            results.append(verify_realization(env, soap, reward, mode))
    results += [solution for _, solution in solves]
    statuses = {solution.status for _, solution in solves}
    assert statuses == {lp.FEASIBLE, lp.INFEASIBLE}
    assert len(results) > 40
    numbers = [n for result in results for n in _numbers(result)]
    assert any(isinstance(n, float) for n in numbers)
    scalars = [n for n in numbers if isinstance(n, np.generic)]
    assert not scalars, scalars[:5]
