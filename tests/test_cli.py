import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from rewardsep import linalg, lp, mdp
from rewardsep.numeric import NumericMode
from rewardsep.cli import run_command

F = Fraction


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDesignCommands:
    def test_design_multi_realizable(self, capsys):
        code, out, _ = run(
            capsys, "design-multi", "entailment.json", "--soap", "xor_soap.json",
            "--reduce",
        )
        assert code == 0
        assert "d = 2" in out
        assert "verifier: realized" in out

    def test_design_scalar_obstruction(self, capsys):
        code, out, _ = run(
            capsys, "design-scalar", "entailment.json", "--soap", "xor_soap.json",
            "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["realizable"] is False
        obstruction = payload["obstruction"]
        assert obstruction["kind"] == "hull_overlap"
        assert obstruction["point"]["s0"]["a1"] == "50/19"
        assert obstruction["good_coefficients"] == ["0.5", "0.5"]

    def test_design_scalar_single_good(self, capsys):
        code, out, _ = run(
            capsys, "design-scalar", "entailment.json",
            "--soap", "always_a2_soap.json", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 1
        assert payload["verified"] is True

    def test_design_multi_reduce_single_plane(self, capsys):
        code, out, _ = run(
            capsys, "design-multi", "entailment.json",
            "--soap", "always_a2_soap.json", "--reduce", "--json",
        )
        assert code == 0
        assert json.loads(out)["dimension"] == 1

    def test_design_multi_max_dim_cap(self, capsys):
        code, out, _ = run(
            capsys, "design-multi", "entailment.json", "--soap", "xor_soap.json",
            "--max-dim", "1",
        )
        assert code == 1
        assert "exceeds --max-dim" in out

    def test_design_scalar_optimal(self, capsys):
        code, out, _ = run(
            capsys, "design-scalar-optimal", "entailment.json",
            "--soap", "optimal_a1_soap.json",
        )
        assert code == 0
        code, _, _ = run(
            capsys, "design-scalar-optimal", "entailment.json",
            "--soap", "xor_soap.json",
        )
        assert code == 1

    def test_inconsistent_soap_refusal(self, capsys):
        code, out, _ = run(
            capsys, "design-multi", "steady_state.json",
            "--soap", "degenerate_soap.json", "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["refused"] == "inconsistent SOAP"
        assert ["pi21", "pi22"] in payload["witnesses"]


class TestOtherCommands:
    def test_consistency_negative(self, capsys):
        code, out, _ = run(
            capsys, "consistency", "steady_state.json",
            "--soap", "degenerate_soap.json",
        )
        assert code == 1
        assert "(pi21, pi22)" in out

    def test_consistency_positive(self, capsys):
        code, out, _ = run(
            capsys, "consistency", "entailment.json", "--soap", "xor_soap.json",
        )
        assert code == 0
        assert "consistent" in out

    def test_verify_realized(self, capsys):
        code, out, _ = run(
            capsys, "verify", "entailment.json", "--soap", "xor_soap.json",
            "--reward", "entailment_reward.json", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["realized"] is True
        by_name = {p["name"]: p for p in payload["policies"]}
        assert by_name["pi11"]["violated_dims"] == [0]
        assert by_name["pi22"]["violated_dims"] == [1]
        assert by_name["pi12"]["feasible"] and by_name["pi21"]["feasible"]

    def test_visitation(self, capsys):
        code, out, _ = run(capsys, "visitation", "entailment.json", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["policies"]["pi22"]["s0"]["a2"] == "100/19"

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "entailment.json", "--json")
        assert code == 0
        assert json.loads(out)["count"] == 4

    def test_enumerate_limit(self, capsys):
        code, _, err = run(capsys, "enumerate", "entailment.json", "--limit", "3")
        assert code == 2
        assert "exceed" in err

    def test_export_plot(self, capsys, tmp_path):
        out_file = tmp_path / "plot.csv"
        code, _, _ = run(
            capsys, "export-plot", "entailment.json", "--soap", "xor_soap.json",
            "--reward", "entailment_reward.json",
            "--axis-x", "s0,a2", "--axis-y", "s1,a2", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "name,label,x,y"
        assert "pi22,bad,100/19,90/19" in lines
        assert "pi11,bad,0,0" in lines
        assert "pi12,good,0,90/19" in lines
        assert "hyperplane,rx,ry,c" in lines
        assert "h1,1,1,2" in lines

    @pytest.mark.parametrize("argv", [
        ["design-multi", "entailment.json", "--soap", "xor_soap.json"],
        ["export-plot", "entailment.json", "--axis-x", "s0,a2", "--axis-y", "s1,a2"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path, argv):
        target = tmp_path / "no-such-dir" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: {target}: cannot write: No such file or directory\n"

    def test_export_plot_without_reward_has_empty_hyperplanes(self, capsys):
        code, out, _ = run(
            capsys, "export-plot", "entailment.json",
            "--axis-x", "s0,a2", "--axis-y", "s1,a2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "hyperplane,rx,ry,c"
        # All policies unlabeled without a SOAP.
        assert all(",unlabeled," in ln for ln in lines[1:5])

    def test_float_mode_flag(self, capsys):
        code, out, _ = run(
            capsys, "design-multi", "entailment.json", "--soap", "xor_soap.json",
            "--tol", "1e-9", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is False
        assert payload["dimension"] == 2


class TestErrorPaths:
    def test_unknown_file(self, capsys):
        code, _, err = run(capsys, "consistency", "nope.json", "--soap", "x.json")
        assert code == 2
        assert "no such file" in err

    def test_usage_error(self, capsys):
        assert run_command(["design-multi"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_missing_soap(self, capsys):
        code, _, err = run(capsys, "design-scalar", "entailment.json")
        assert code == 2
        assert "needs a SOAP" in err

    def test_bad_axis(self, capsys):
        code, _, err = run(
            capsys, "export-plot", "entailment.json",
            "--axis-x", "s0:a2", "--axis-y", "s1,a2",
        )
        assert code == 2

    def test_exit_code_independent_of_json_flag(self, capsys):
        plain = run_command(
            ["design-scalar", "entailment.json", "--soap", "xor_soap.json"]
        )
        capsys.readouterr()
        as_json = run_command(
            ["design-scalar", "entailment.json", "--soap", "xor_soap.json", "--json"]
        )
        capsys.readouterr()
        assert plain == as_json == 1


class TestParserReuse:
    """One parser serves every call in a process; no call's options or
    outcome carry over to the next."""

    def test_options_do_not_leak(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, first, _ = run(
            capsys, "design-multi", "entailment.json", "--soap", "always_a2_soap.json",
            "--reduce", "--max-dim", "1", "--out", str(out), "--json",
        )
        assert code == 0 and json.loads(first)["dimension"] == 1
        assert out.read_text() == first
        out.unlink()
        code, second, _ = run(
            capsys, "design-multi", "entailment.json", "--soap", "always_a2_soap.json",
            "--json",
        )
        # Unreduced the dimension is 3: a leaked --max-dim 1 would exit 1.
        assert code == 0
        payload = json.loads(second)
        assert payload["dimension"] == 3 and "max_dim_exceeded" not in payload
        assert not out.exists()

    def test_float_run_then_exact_run(self, capsys):
        argv = ["consistency", "entailment.json", "--soap", "xor_soap.json", "--json"]
        code, out, _ = run(capsys, *argv, "--tol", "1e-9")
        assert code == 0 and json.loads(out)["exact"] is False
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["exact"] is True

    def test_usage_error_around_a_successful_call(self, capsys):
        argv = ["consistency", "entailment.json", "--soap", "xor_soap.json"]
        assert run(capsys, *argv)[0] == 0
        code, _, err = run(capsys, "design-multi")
        assert code == 2 and "usage:" in err
        assert run(capsys, *argv)[0] == 0


class TestPinnedFloatCli:
    # SHA-256 over (exit code, stdout) of every float subcommand below on
    # the bundled fixtures, recorded when float design-multi took the
    # indicator plane of each deterministic bad policy.  Any changed byte
    # of a float report moves it.
    DIGEST = "ed231b4f4d118c1da1ca21c77fd98ae2b5d1a16a22607a5b6739d2ef7b4fe090"
    COMMANDS = (("consistency",), ("design-scalar",), ("design-multi",),
                ("design-multi", "--reduce"),
                ("verify", "--reward", "entailment_reward.json"))
    SOAPS = ("xor_soap.json", "always_a2_soap.json", "optimal_a1_soap.json",
             "degenerate_soap.json")

    def test_float_reports_unchanged(self, capsys):
        digest = hashlib.sha256()
        for bundle in ("entailment.json", "steady_state.json"):
            for soap in self.SOAPS:
                for command, *extra in self.COMMANDS:
                    code, out, _ = run(capsys, command, bundle, "--soap", soap, *extra,
                                       "--tol", "1e-9", "--json")
                    digest.update(f"{code}\n{out}\n".encode())
        assert digest.hexdigest() == self.DIGEST


def _bundle_doc():
    return {
        "env": {
            "states": ["s0", "s1"],
            "actions": ["a1", "a2"],
            "gamma": "0.9",
            "start": "s0",
            "transitions": [
                {"from": s, "action": a, "to": {"s1" if s == "s0" else "s0": "1"}}
                for s in ("s0", "s1") for a in ("a1", "a2")
            ],
        },
        "policies": [
            {"name": "pi11", "deterministic": {"s0": "a1", "s1": "a1"}},
            {"name": "pi12", "stochastic": {"s0": {"a1": "1"}, "s1": {"a2": "1"}}},
        ],
        "soap": {"good": ["pi12"], "bad": ["pi11"]},
    }


def _stochastic_row_not_object(doc):
    doc["policies"][1]["stochastic"]["s0"] = ["a1"]


def _state_name_not_string(doc):
    doc["env"]["states"] = [["s0"], "s1"]


def _action_name_not_string(doc):
    doc["env"]["actions"] = ["a1", 2]


def _soap_name_not_string(doc):
    doc["soap"]["good"] = [["pi12"]]


def _policies_not_list(doc):
    doc["policies"] = {"a": 1}


def _unknown_start(doc):
    doc["env"]["start"] = "s9"


def _repeated_state(doc):
    doc["env"]["states"] = ["s0", "s1", "s1"]


def _policy_picks_unknown_action(doc):
    doc["policies"][0]["deterministic"]["s0"] = "a9"


def _gamma_out_of_range(doc):
    doc["env"]["gamma"] = "1.5"


def _row_sums_to_two(doc):
    doc["env"]["transitions"][1]["to"] = {"s1": "2"}


def _negative_probability(doc):
    doc["env"]["transitions"][1]["to"] = {"s0": "-1/2", "s1": "3/2"}


def _huge_exponent(doc):
    doc["env"]["transitions"][0]["to"] = {"s0": "1e-5000", "s1": "1"}


def _huge_exponent_gamma(doc):
    doc["env"]["gamma"] = "1e-5000"


def _two_malformed_policies(doc):
    """Good: pi11, then a row summing to 11/10; bad: an unknown action,
    then pi22.  The bad one comes first in the file."""
    doc["policies"] = [
        {"name": "pi11", "deterministic": {"s0": "a1", "s1": "a1"}},
        {"name": "stray", "deterministic": {"s0": "a2", "s1": "a9"}},
        {"name": "over", "stochastic": {"s0": {"a1": "1/2", "a2": "3/5"}, "s1": {"a2": "1"}}},
        {"name": "pi22", "deterministic": {"s0": "a2", "s1": "a2"}},
    ]
    doc["soap"] = {"good": ["pi11", "over"], "bad": ["stray", "pi22"]}


@pytest.mark.parametrize("command", ["visitation", "consistency", "design-multi"])
def test_float_query_names_the_first_malformed_policy(capsys, tmp_path, command):
    """A float query exits 2 naming the policy the bundle reader reaches
    first, the second in the file, before any visitation is solved."""
    doc = _bundle_doc()
    _two_malformed_policies(doc)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path), "--tol", "1e-9", "--json")
    assert code == 2
    assert out == ""
    assert err == (f"error: {path}.policies[1]: policy 'stray' picks unknown action "
                   "'a9' at state 's1'\n")


class TestMalformedBundles:
    """Malformed bundles exit 2 with the field path, never a traceback."""

    @pytest.mark.parametrize("corrupt, message", [
        (_stochastic_row_not_object, ".policies[1].stochastic.s0: expected dict, got list"),
        (_state_name_not_string, ".env.states[0]: expected str, got list"),
        (_action_name_not_string, ".env.actions[1]: expected str, got int"),
        (_soap_name_not_string, ".soap.good[0]: expected str, got list"),
        (_policies_not_list, ".policies: expected list, got dict"),
        (_unknown_start, ".env.start: 's9' is not a declared state"),
        (_repeated_state, ".env.states[2]: duplicate name 's1'"),
        (_policy_picks_unknown_action,
         ".policies[0]: policy 'pi11' picks unknown action 'a9' at state 's0'"),
        (_gamma_out_of_range, ".env.gamma: 1.5 is out of range [0, 1)"),
        (_row_sums_to_two, ".env.transitions[1].to: probabilities sum to 2, not 1"),
        (_negative_probability, ".env.transitions[1].to.s0: negative probability -0.5"),
        (_huge_exponent, ".env.transitions[0].to.s0: cannot parse '1e-5000' as a rational: "
                         "its exponent is beyond ±4300"),
        (_huge_exponent_gamma, ".env.gamma: cannot parse '1e-5000' as a rational: "
                               "its exponent is beyond ±4300"),
    ], ids=["stochastic-row", "state-name", "action-name", "soap-name", "policies",
            "start", "repeated-state", "policy-action", "gamma", "row-sum",
            "negative-probability", "huge-exponent", "huge-exponent-gamma"])
    def test_exit_2_with_field_path(self, capsys, tmp_path, corrupt, message):
        doc = _bundle_doc()
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "design-multi", str(path))[0] == 0
        corrupt(doc)
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "design-multi", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}{message}\n"

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc["env"]["transitions"][0].update(to={"s0": "1e-4300", "s1": "1"}),
         ".env.transitions[0].to: probabilities sum to 1." + "0" * 4299 + "1, not 1"),
        (lambda doc: doc["env"].update(gamma="1e4300"),
         ".env.gamma: 1" + "0" * 4300 + " is out of range [0, 1)"),
        (lambda doc: doc["policies"][1].update(stochastic={"s0": {"a1": "1", "a2": "1e-4300"},
                                                           "s1": {"a2": "1"}}),
         ".policies[1]: policy 'pi12' row at 's0' sums to 1." + "0" * 4299 + "1, expected 1"),
    ], ids=["row-sum", "gamma", "policy-row-sum"])
    @pytest.mark.parametrize("tol", [[], ["--tol", "1e-9"]], ids=["exact", "float"])
    def test_numbers_past_4300_digits_are_written_out(self, capsys, tmp_path, corrupt,
                                                      message, tol):
        """A number within the ±4300 exponent limit whose message needs
        more than Python's 4300 int string digits is written out in full."""
        doc = _bundle_doc()
        corrupt(doc)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "visitation", str(path), *tol)
        assert (code, out) == (2, "")
        assert err == f"error: {path}{message}\n"

    @pytest.mark.parametrize("command", ["visitation", "enumerate"])
    def test_no_actions_exits_2(self, capsys, tmp_path, command):
        doc = {"env": {"states": ["s0"], "actions": [], "gamma": "0.5", "start": "s0",
                       "transitions": []}}
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}.env.actions: no actions declared\n"

    def test_reward_without_rows_exits_2(self, capsys, tmp_path):
        doc = _bundle_doc()
        doc["reward"] = {"rows": [], "lower_bounds": []}
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}.reward: reward rows and lower bounds must pair up, "
                       "d >= 1\n")

    @pytest.mark.parametrize("nested_soap", [False, True], ids=["bundle", "soap"])
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, nested_soap):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        argv = ["design-multi", str(nested)]
        if nested_soap:
            bundle = tmp_path / "bundle.json"
            bundle.write_text(json.dumps(_bundle_doc()))
            argv = ["design-multi", str(bundle), "--soap", str(nested)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {nested}: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("as_soap", [False, True], ids=["bundle", "soap"])
    @pytest.mark.parametrize("make, message", [
        (lambda path: path.mkdir(), "cannot read: Is a directory"),
        (lambda path: path.write_bytes(b"\xff{}"), "not UTF-8 text: invalid start byte at byte 0"),
    ], ids=["directory", "not-utf-8"])
    def test_unreadable_file_exits_2(self, capsys, tmp_path, make, message, as_soap):
        unreadable = tmp_path / "adir.json"
        make(unreadable)
        argv = ["design-multi", str(unreadable)]
        if as_soap:
            bundle = tmp_path / "bundle.json"
            bundle.write_text(json.dumps(_bundle_doc()))
            argv = ["design-multi", str(bundle), "--soap", str(unreadable)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {unreadable}: {message}\n"


class TestMeaninglessValues:
    """Flag values that mean nothing exit 2, naming the flag."""

    @pytest.mark.parametrize("flag, value, wanted", [
        ("--max-dim", "-1", "an integer >= 1"),
        ("--max-dim", "0", "an integer >= 1"),
        ("--tol", "inf", "a finite positive number"),
        ("--tol", "nan", "a finite positive number"),
        ("--tol", "0", "a finite positive number"),
        ("--tol", "-1e-9", "a finite positive number"),
    ])
    def test_exit_2(self, capsys, flag, value, wanted):
        code, out, err = run(
            capsys, "design-multi", "entailment.json", "--soap", "xor_soap.json",
            f"{flag}={value}",
        )
        assert code == 2
        assert out == ""
        assert f"argument {flag}: expected {wanted}, got {value!r}" in err

    @pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), 0.0, -1.0])
    def test_numeric_mode_refuses_meaningless_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="finite positive tolerance"):
            NumericMode.floating(tolerance)


class TestInternalFaults:
    """Faults inside the solvers exit 3, apart from input errors (exit 2)."""

    def design(self, capsys):
        return run(
            capsys, "design-scalar", "entailment.json", "--soap", "xor_soap.json",
        )

    def test_singular_solve(self, capsys, monkeypatch):
        def singular(rows, rhs, mode):
            raise linalg.SingularSystemError("singular system at column 0")

        monkeypatch.setattr(linalg, "solve_square", singular)
        code, out, err = self.design(capsys)
        assert code == 3
        assert err.startswith("internal error: singular system at column 0")
        assert out == ""

    def test_malformed_internal_lp(self, capsys, monkeypatch):
        def reject(program):
            raise lp.LpInputError("constraint row 0 has 2 coefficients, expected 3")

        monkeypatch.setattr(lp, "_validate", reject)
        code, _, err = self.design(capsys)
        assert code == 3
        assert err.startswith("internal error: constraint row 0")

    def test_pivot_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(lp, "_MAX_PIVOTS", 0)
        code, _, err = self.design(capsys)
        assert code == 3
        assert err == "internal error: simplex pivot limit exceeded\n"

    def test_failed_flow_self_check(self, capsys, monkeypatch):
        # `_imbalance` gives the self-check and `flow_residuals` their residuals.
        monkeypatch.setattr(
            mdp, "_imbalance",
            lambda table, nums, q: (np.ones((len(nums), table.env.n_states), int), q)
        )
        code, _, err = run(capsys, "visitation", "entailment.json")
        assert code == 3
        assert err.startswith("internal error: Bellman flow violated")
