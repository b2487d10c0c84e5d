import json
from fractions import Fraction

from rewardsep import linalg, lp, mdp
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
        monkeypatch.setattr(mdp, "flow_residuals", lambda env, rho, mode: (1,) * env.n_states)
        code, _, err = run(capsys, "visitation", "entailment.json")
        assert code == 3
        assert err.startswith("internal error: Bellman flow violated")
