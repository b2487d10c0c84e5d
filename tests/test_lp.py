import dataclasses
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rewardsep import linalg, lp, mdp
from rewardsep.bundles import fixture_path, load_soap, parse_bundle
from rewardsep.numeric import EXACT, FLOAT, ZERO, ExactInputError, NumericMode
from rewardsep.separability import check_scalar_optimality, design_multi, design_scalar

from oracles import (
    SplitIntTableau, brute_force_lp, farkas_gap, farkas_signs_ok, list_standard_form, random_lp,
    satisfies,
)

F = Fraction


def build(objective, matrix, rhs, senses, bounds=None):
    return lp.LinearProgram.build(objective, matrix, rhs, senses, bounds)


def assert_valid_farkas(program, solution):
    cert = solution.certificate
    assert isinstance(cert, lp.FarkasCertificate)
    assert farkas_signs_ok(program, cert.row_multipliers)
    gap = farkas_gap(program, cert.row_multipliers, EXACT)
    assert gap is not None and gap > 0


def assert_valid_optimal(program, solution, mode=EXACT):
    assert solution.status == lp.OPTIMAL
    assert satisfies(program, solution.primal, mode)
    cert = solution.certificate
    assert isinstance(cert, lp.DualCertificate)
    if mode.exact:
        assert cert.dual_objective == solution.objective_value
    else:
        assert cert.dual_objective == pytest.approx(solution.objective_value, abs=1e-6)


class TestExamples:
    def test_single_upper_bound(self):
        program = build([-1], [[1]], [5], ["<="])
        sol = lp.solve(program, EXACT)
        assert sol.status == lp.OPTIMAL
        assert sol.primal == (F(5),)
        assert sol.objective_value == F(-5)
        assert_valid_optimal(program, sol)

    def test_contradictory_rows_infeasible(self):
        program = build([0], [[1], [1]], [1, 0], [">=", "<="], bounds=[(None, None)])
        sol = lp.solve(program, EXACT)
        assert sol.status == lp.INFEASIBLE
        assert_valid_farkas(program, sol)

    def test_two_variable_corner(self):
        # Expected value pinned by the vertex-enumeration oracle.
        program = build([1, 1], [[1, 2], [3, 1]], [2, 3], [">=", ">="])
        status, best = brute_force_lp(program)
        assert (status, best) == (lp.OPTIMAL, F(7, 5))
        sol = lp.solve(program, EXACT)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == F(7, 5)
        assert sol.primal == (F(4, 5), F(3, 5))
        assert_valid_optimal(program, sol)

    def test_unbounded_ray(self):
        program = build([-1, 0], [[0, 1]], [1], ["<="])
        sol = lp.solve(program, EXACT)
        assert sol.status == lp.UNBOUNDED
        ray = sol.certificate.direction
        # Recession: respects rows, the box, and improves the objective.
        assert all(v >= 0 for v in ray)
        row_move = sum(a * d for a, d in zip((0, 1), ray))
        assert row_move <= 0
        assert sum(c * d for c, d in zip((-1, 0), ray)) < 0

    def test_check_feasible_interval(self):
        program = build([0], [[1]], [1], ["<="])
        feasible, witness = lp.check_feasible(program, EXACT)
        assert feasible
        assert 0 <= witness[0] <= 1

    def test_check_feasible_contradiction(self):
        program = build([0], [[1], [1]], [1, 2], ["=", "="])
        feasible, cert = lp.check_feasible(program, EXACT)
        assert not feasible
        assert farkas_signs_ok(program, cert.row_multipliers)
        assert farkas_gap(program, cert.row_multipliers, EXACT) > 0

    def test_hull_membership_lp_on_cycle_visitations(self):
        # Membership of the midpoint of the two consistent-cycle
        # visitations in their own hull, written out as a raw LP:
        # variables are the convex weights, rows pin the combination to
        # the target and the weights to the simplex.
        rho12 = (F(100, 19), 0, 0, F(90, 19))
        rho21 = (0, F(100, 19), F(90, 19), 0)
        target = tuple((a + b) / 2 for a, b in zip(rho12, rho21))
        matrix = [[rho12[k], rho21[k]] for k in range(4)] + [[1, 1]]
        rhs = list(target) + [1]
        program = build([0, 0], matrix, rhs, ["="] * 5)
        feasible, witness = lp.check_feasible(program, EXACT)
        assert feasible
        assert witness == (F(1, 2), F(1, 2))
        # The extreme point itself is not in the hull of the other two.
        rho11 = (F(100, 19), 0, F(90, 19), 0)
        program = build(
            [0, 0], matrix, list(rho11) + [1], ["="] * 5
        )
        feasible, cert = lp.check_feasible(program, EXACT)
        assert not feasible
        assert farkas_gap(program, cert.row_multipliers, EXACT) > 0

    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_redundant_equality_rows_keep_the_dual_basis_square(self, mode):
        # Row 0 = row 1 + 2 * row 2.  Phase 1 ends with row 2's artificial
        # basic in tableau row 3, which is redundant: the cleanup must drop
        # original row 2, not original row 3.
        program = build(
            [3, 2, 1],
            [[-5, -1, -3], [-1, -1, 1], [-2, 0, -2], [-2, 2, 2]],
            [-12, -4, -4, 0],
            ["eq"] * 4,
        )
        sol = lp.solve(program, mode)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == 10
        assert_valid_optimal(program, sol, mode)

    def test_negative_artificial_removal_pivot(self, monkeypatch):
        # Row 2 = -row 1.  Phase 1 ends with an artificial basic at level
        # zero whose first nonzero non-artificial entry is negative; the
        # cleanup pivots on it, so the exact tableau flips that row's sign.
        program = build(
            [3, 3, 3],
            [[-1, -2, -2], [0, -2, 1], [0, 2, -1]],
            [-1, 0, 0],
            ["eq"] * 3,
        )
        entries, shapes = [], []
        pivot, solve_square = lp._IntTableau.pivot, linalg.solve_square

        def spy_pivot(tab, basis, row, col):
            entries.append(tab.entry(row, col))  # read through the column map
            pivot(tab, basis, row, col)

        def spy_square(rows, rhs, mode):
            shapes.append((len(rows), len(rhs)))
            return solve_square(rows, rhs, mode)

        monkeypatch.setattr(lp._IntTableau, "pivot", spy_pivot)
        monkeypatch.setattr(linalg, "solve_square", spy_square)
        sol = lp.solve(program, EXACT)
        assert any(entry < 0 for entry in entries)
        assert shapes == []  # exact duals are read off the tableau
        assert sol.primal == (0, F(1, 6), F(1, 3))
        assert sol.objective_value == F(3, 2)
        assert sol.certificate.row_duals[2] is ZERO  # the dropped row
        assert_valid_optimal(program, sol)
        fsol = lp.solve(program, FLOAT)
        assert shapes == [(2, 2)]  # the redundant row is dropped
        assert fsol.status == lp.OPTIMAL
        assert fsol.primal == pytest.approx([float(v) for v in sol.primal], abs=1e-9)
        assert fsol.objective_value == pytest.approx(1.5, abs=1e-9)

    def test_empty_variable_box(self):
        with pytest.raises(lp.LpInputError, match="empty box for variable 1"):
            build([0, 0], [[1, 1]], [0], ["<="], bounds=[(0, 1), ("1/2", "1/3")])

    def test_equality_with_free_variables(self):
        program = build(
            [1, -1],
            [[1, 1], [1, -1]],
            [2, 0],
            ["=", "="],
            bounds=[(None, None), (None, None)],
        )
        sol = lp.solve(program, EXACT)
        assert sol.status == lp.OPTIMAL
        assert sol.primal == (F(1), F(1))
        assert_valid_optimal(program, sol)


class TestErrors:
    def test_dimension_mismatch(self):
        with pytest.raises(lp.LpInputError):
            build([1, 2], [[1]], [1], ["<="])

    def test_bad_sense(self):
        with pytest.raises(lp.LpInputError):
            build([1], [[1]], [1], ["<>"])

    def test_float_rejected_in_exact_mode(self):
        program = build([0.5], [[1.0]], [1], ["<="])
        with pytest.raises(ExactInputError):
            lp.solve(program, EXACT)

    def test_nonfinite_rejected(self):
        # One case per checked vector; the message names the place.
        nan, inf = float("nan"), float("inf")
        cases = {
            "objective": ([0.0, nan], [[1.0, 0.0]], [1.0], ["<="], None),
            "row 1": ([0.0, 1.0], [[1.0, 0.0], [0.0, inf]], [1.0, 2.0], ["<=", "<="], None),
            "rhs": ([0.0, 1.0], [[1.0, 0.0]], [-inf], ["<="], None),
            "bounds of variable 1": ([0.0, 1.0], [[1.0, 0.0]], [1.0], ["<="],
                                     [(0, None), (0, nan)]),
        }
        for place, args in cases.items():
            with pytest.raises(lp.LpInputError, match=f"non-finite coefficient in {place}:"):
                build(*args)
        # Finite entries whose sum overflows are still finite.
        build([0.0, 0.0], [[1e308, 1e308]], [1.0], ["<="])
        # The first non-finite entry is named, whatever follows it.
        with pytest.raises(lp.LpInputError, match=r"in row 0: -inf$"):
            build([0.0, 0.0, 0.0], [[1.0, -inf, inf]], [1.0], ["<="])
        # Strings and Fractions are looked past to the NaN.
        with pytest.raises(lp.LpInputError, match=r"in row 0: nan$"):
            build([0.0] * 4, [[0.5, "1/2", F(1, 3), nan]], [1.0], ["<="])


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
class TestOraclesCanFail:
    """The certificate checks the LP tests rely on reject bad certificates
    and points, so those tests do not pass everything."""

    # x >= 1 and x <= 0 over a free x: the multipliers must cancel x.
    CONTRADICTION = ([0], [[1], [1]], [1, 0], [">=", "<="], [(None, None)])

    def test_flipped_farkas_sign(self, mode):
        program = build(*self.CONTRADICTION)
        y = lp.solve(program, mode).certificate.row_multipliers
        assert farkas_signs_ok(program, y) and all(y)
        for i in range(len(y)):
            flipped = list(y)
            flipped[i] = -flipped[i]
            assert not farkas_signs_ok(program, flipped)

    def test_uncancelled_free_column(self, mode):
        program = build(*self.CONTRADICTION)
        y = list(lp.solve(program, mode).certificate.row_multipliers)
        assert farkas_gap(program, y, mode) > 0
        y[0] *= 2
        assert farkas_gap(program, y, mode) is None

    def test_point_off_a_row_or_bound(self, mode):
        program = build([1, 1], [[1, 2], [3, 1]], [2, 3], [">=", ">="])
        x = lp.solve(program, mode).primal  # (4/5, 3/5): both rows tight
        assert satisfies(program, x, mode)
        step = mode.convert("1/10")
        assert not satisfies(program, (x[0] - step, x[1]), mode)  # below row 0
        assert satisfies(program, (step, 4), mode)
        assert not satisfies(program, (-step, 4), mode)  # meets both rows, but x0 < 0


class TestDeterminism:
    def test_repeat_solves_identical(self):
        rng = random.Random(7)
        for _ in range(25):
            program = random_lp(rng)
            first = lp.solve(program, EXACT)
            second = lp.solve(program, EXACT)
            assert first == second


class TestPinnedExactAnswers:
    # SHA-256 over the exact answers to 200 seeded random LPs, recorded
    # with the Fraction tableau.  Any change to the pivot sequence, the
    # vertex reached, the duals or the Farkas multipliers changes it.
    DIGEST = "1feea8daafb5a63b9440cdc035025ebde1e436ea40716c2b80f9f9db8773ebda"

    def test_random_lp_answers_unchanged(self):
        rng = random.Random(20260418)
        digest = hashlib.sha256()
        for _ in range(200):
            sol = lp.solve(random_lp(rng), EXACT)
            answer = (sol.status, sol.primal, sol.objective_value, sol.certificate)
            digest.update(repr(answer).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST

    # The same over tall LPs, recorded with the duals solved against the
    # unpivoted basis columns.
    TALL_DIGEST = "d8f8cd5e022b385399681a48a6b74f7da286004dbaab2127b69f41ab71608fbf"

    def test_tall_lp_answers_unchanged(self, monkeypatch):
        drops = []
        keep = lp._IntTableau.keep

        def counting_keep(tab, dead):
            drops.append(len(dead))
            keep(tab, dead)

        monkeypatch.setattr(lp._IntTableau, "keep", counting_keep)
        rng = random.Random(20261019)
        digest = hashlib.sha256()
        statuses = []
        for _ in range(100):
            sol = lp.solve(tall_lp(rng), EXACT)
            statuses.append(sol.status)
            answer = (sol.status, sol.primal, sol.objective_value, sol.certificate)
            digest.update(repr(answer).encode() + b"\n")
        assert statuses.count(lp.OPTIMAL) >= 30
        assert statuses.count(lp.INFEASIBLE) >= 10
        assert statuses.count(lp.UNBOUNDED) >= 5
        assert len(drops) >= 20  # redundant rows were dropped
        assert digest.hexdigest() == self.TALL_DIGEST

    # The same over the exact LPs of the design and optimality queries on
    # the bundled fixture SOAPs (margin, intersection and optimality LPs,
    # whose variables are all free), recorded with the split-column tableau.
    FIXTURE_DIGEST = "680846c612e661154ab8c03809671219d5c2c0ec1e8a04e974754381a3c63150"

    def test_fixture_lp_answers_unchanged(self):
        solved = fixture_lps()
        assert {sol.status for _, sol in solved} == {lp.OPTIMAL, lp.INFEASIBLE}
        digest = hashlib.sha256()
        for _, sol in solved:
            answer = (sol.status, sol.primal, sol.objective_value, sol.certificate)
            digest.update(repr(answer).encode() + b"\n")
        assert digest.hexdigest() == self.FIXTURE_DIGEST


def fixture_lps():
    """(program, solution) of every exact LP that `design_scalar`,
    `design_multi(reduce=True)` and `check_scalar_optimality` solve on the
    bundled fixture SOAPs over entailment.json, in the order solved."""
    solved = []
    real = lp.solve

    def recording(program, mode=EXACT):
        sol = real(program, mode)
        solved.append((program, sol))
        return sol

    bundle = parse_bundle(fixture_path("entailment.json"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", recording)
        for soap_file in ("xor_soap.json", "optimal_a1_soap.json", "always_a2_soap.json"):
            soap = load_soap(fixture_path(soap_file), bundle)
            design_scalar(bundle.env, soap, EXACT)
            design_multi(bundle.env, soap, EXACT, reduce=True)
            check_scalar_optimality(bundle.env, soap, EXACT)
    return solved


def tall_lp(rng):
    """Tall exact LP: 20-40 eq, le and ge rows over up to 9 variables, some
    free or boxed.  The rows hold at a hidden point, and some are copies,
    multiples or negations of others, so the redundant-row drop runs; a
    shifted copy of an eq row makes about a fifth of them infeasible.  In
    about a fifth, every row and the box admit a direction along which the
    objective falls, so those that are feasible are unbounded."""
    n = rng.randint(2, 9)
    point = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(n)]
    bounds = []
    for x in point:
        kind = rng.choice(["free", "free", "lower", "boxed"])
        lo, hi = math.floor(x) - rng.randint(0, 2), math.ceil(x) + rng.randint(0, 2)
        bounds.append({"free": (None, None), "lower": (lo, None), "boxed": (lo, hi)}[kind])
    # The recession direction, if any, and the index of its first nonzero.
    direction = [0 if lo is not None and hi is not None else
                 rng.choice([1, -1]) if lo is None else rng.choice([0, 1])
                 for lo, hi in bounds]
    lead = next((j for j, d in enumerate(direction) if d), None)
    if rng.random() >= 0.2:
        lead = None

    def open_along_direction(row, sense):
        """Zero or flip row . direction where the sense would cut the ray."""
        if lead is not None:
            s = sum(a * d for a, d in zip(row, direction))
            if s and (sense == lp.EQ or (s > 0) == (sense == lp.LE)):
                row[lead] -= s * direction[lead]

    def coefficient():
        return 0 if rng.random() < 0.4 else Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 7]))

    matrix, rhs, senses = [], [], []
    for _ in range(rng.randint(20, 40)):
        if matrix and rng.random() < 0.25:
            k = rng.randrange(len(matrix))
            scale = rng.choice([1, -1, 2, Fraction(-1, 3)])
            row, b = [scale * v for v in matrix[k]], scale * rhs[k]
            sense = senses[k] if scale > 0 else {lp.LE: lp.GE, lp.GE: lp.LE, lp.EQ: lp.EQ}[senses[k]]
        else:
            row = [coefficient() for _ in range(n)]
            sense = rng.choice([lp.EQ, lp.EQ, lp.LE, lp.GE])
            open_along_direction(row, sense)
            b = sum(a * x for a, x in zip(row, point))
            b += {lp.EQ: 0, lp.LE: rng.randint(0, 3), lp.GE: -rng.randint(0, 3)}[sense]
        matrix.append(row)
        rhs.append(b)
        senses.append(sense)
    if rng.random() < 0.2:
        k = next((i for i, s in enumerate(senses) if s == lp.EQ), 0)
        matrix.append(list(matrix[k]))
        rhs.append(rhs[k] + 1)
        senses.append(lp.EQ)
    objective = [rng.randint(-5, 5) for _ in range(n)]
    if lead is not None:  # objective . direction == -1
        objective[lead] -= (sum(c * d for c, d in zip(objective, direction)) + 1) * direction[lead]
    return build(objective, matrix, rhs, senses, bounds)


def _hex(value) -> str:
    """Every number of an answer as `float.hex`, through tuples and
    dataclasses, so that a change in any bit changes the text."""
    if value is None or isinstance(value, str):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_hex(v) for v in value) + ")"
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + _hex(dataclasses.astuple(value))
    return float(value).hex()


def sparse_lp(rng):
    """Larger LP with free, boxed, upper- and lower-bounded variables,
    sparse rows and coefficients that are not exact binary fractions."""
    n = rng.randint(3, 9)
    m = rng.randint(0, 10)

    def coefficient():
        return 0 if rng.random() < 0.55 else rng.randint(-21, 21) / 7

    bounds = []
    for _ in range(n):
        kind = rng.choice(["lower", "free", "boxed", "upper"])
        lo, hi = rng.randint(-3, 1), rng.randint(1, 5)
        bounds.append({"lower": (lo, None), "free": (None, None),
                       "boxed": (lo, hi), "upper": (None, hi)}[kind])
    return build(
        [coefficient() for _ in range(n)],
        [[coefficient() for _ in range(n)] for _ in range(m)],
        [rng.randint(-30, 30) / 9 for _ in range(m)],
        [rng.choice(["le", "ge", "eq"]) for _ in range(m)],
        bounds,
    )


class TestPinnedFloatAnswers:
    # SHA-256 over the float.hex of every number in the float answers to
    # seeded random LPs, larger sparse LPs and zero-row LPs, at two
    # tolerances, recorded with the list-of-floats tableau.  Any change to
    # a pivot, a rounding or the sign of a zero changes it.
    DIGEST = "cce247543abfe9cb68dd16d56c686801d6e1fcd1cb2a8cca65213cf7b2ab15e1"

    def test_float_answers_unchanged(self):
        rng = random.Random(20261018)
        programs = [random_lp(rng) for _ in range(300)]
        programs += [sparse_lp(rng) for _ in range(150)]
        programs += [build([1, 2], [], [], []), build([-1, 2], [], [], []),
                     build([1, -1], [], [], [], [(None, 3), (-2, 4)])]
        digest = hashlib.sha256()
        statuses = set()
        for tolerance in (1e-9, 1e-6):
            mode = NumericMode.floating(tolerance)
            for program in programs:
                sol = lp.solve(program, mode)
                statuses.add(sol.status)
                answer = (sol.status, sol.primal, sol.objective_value, sol.certificate)
                digest.update(_hex(answer).encode() + b"\n")
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
        assert digest.hexdigest() == self.DIGEST


def mixed_lp(rng):
    """A `sparse_lp` whose coefficients, rhs and bounds are retyped at
    random as ints, Fractions, strings, floats or -0.0."""
    program = sparse_lp(rng)

    def retype(v):
        if v is None:
            return None
        f = Fraction(v).limit_denominator(63)
        return rng.choice([v, f, f"{f.numerator}/{f.denominator}", str(float(f)),
                           int(f) if f.denominator == 1 else v, -0.0 if not v else v])

    return build([retype(v) for v in program.objective],
                 [[retype(v) for v in row] for row in program.matrix],
                 [retype(v) for v in program.rhs], program.senses,
                 [(retype(lo), retype(hi)) for lo, hi in program.bounds])


def _bounds(program, mode):
    return [tuple(None if v is None else mode.convert(v) for v in box)
            for box in program.bounds]


def _std_fields(std):
    """Every field of a standard form but its rows and column map."""
    return tuple(getattr(std, name) for name in ("cols", "var_cols", "shifts", "dens", "origin",
                                                 "negated", "basis", "units", "art_first",
                                                 "width"))


class TestFloatStandardForm:
    """The float64 standard form equals the entry-by-entry list form,
    `float.hex` for `float.hex`, so the sign of every zero counts."""

    def assert_matches(self, program):
        bounds = _bounds(program, FLOAT)
        std = lp._standardize(program, bounds, FLOAT)
        want = list_standard_form(program, bounds, FLOAT)
        assert std.rows.shape == (len(want.rows), want.width + 1)
        assert ([[v.hex() for v in row] for row in std.rows.tolist()]
                == [[v.hex() for v in row] for row in want.rows])
        assert _std_fields(std) == _std_fields(want)

    def test_random_and_sparse_lps(self):
        rng = random.Random(20261019)
        programs = [random_lp(rng) for _ in range(200)]
        programs += [sparse_lp(rng) for _ in range(200)]
        programs += [mixed_lp(rng) for _ in range(200)]
        programs += [build([1, 2], [], [], []), build([1, -1], [], [], [], [(None, 3), (-2, 4)])]
        for program in programs:
            self.assert_matches(program)
        assert any(type(v) is float and v == 0 and math.copysign(1, v) < 0
                   for program in programs for row in program.matrix for v in row)

    @pytest.mark.parametrize("soap_file", ["xor_soap.json", "always_a2_soap.json"])
    def test_margin_and_intersection_lps_of_a_fixture(self, monkeypatch, soap_file):
        programs = []
        real, real_many = lp.check_feasible, lp.check_feasible_many

        def recording(program, mode=EXACT):
            programs.append(program)
            return real(program, mode)

        def recording_many(batch, mode=EXACT):
            batch = list(batch)
            programs.extend(batch)
            return real_many(batch, mode)

        monkeypatch.setattr(lp, "check_feasible", recording)
        monkeypatch.setattr(lp, "check_feasible_many", recording_many)
        bundle = parse_bundle(fixture_path("entailment.json"))
        soap = load_soap(fixture_path(soap_file), bundle)
        design_scalar(bundle.env, soap, FLOAT)
        design_multi(bundle.env, soap, FLOAT, reduce=True)
        check_scalar_optimality(bundle.env, soap, FLOAT)
        assert programs
        for program in programs:
            self.assert_matches(program)


def _phase1_state(setup):
    """The basis, tableau rows and reduced costs of a float LP's phase 1,
    each number as `float.hex`."""
    return (list(setup.std.basis), [[v.hex() for v in row] for row in setup.tab.rows.tolist()],
            [v.hex() for v in setup.tab.z.tolist()])


def _margin_lp_groups(n_soaps, mode):
    """The first-pass margin LPs of random consistent SOAPs, one list per
    SOAP: one LP per bad point, all of one shape."""
    from rewardsep.separability import PointSet, _margin_lp
    from test_separability import random_env, random_mixed_soap

    rng = random.Random(14)
    groups = []
    while len(groups) < n_soaps:
        env = random_env(rng)
        soap = random_mixed_soap(env, rng)
        if soap is None:
            continue
        good = PointSet.from_policies(env, soap.good, mode)
        bad = PointSet.from_policies(env, soap.bad, mode)
        groups.append([_margin_lp(good.points, [q], env.n_sa) for q in bad.points])
    return groups


class TestLockstepPhase1:
    """Phase 1 of a stack of float LPs (`lp._lockstep`) against `_bland`
    over each LP's own `_FloatTableau`, bit for bit: the status, and the
    final basis, rows and reduced costs as `float.hex`."""

    # Entries of 0.05 lie within this tolerance, so 10 rows 0.05·x >= 1
    # price x at -0.5 and leave it no positive entry: phase 1 "unbounded".
    WIDE = NumericMode.floating(0.1)

    @staticmethod
    def alone(program, mode):
        setup = lp._Phase1(program, mode)
        pivots = 0
        pivot = setup.tab.pivot

        def counting(*args):
            nonlocal pivots
            pivots += 1
            pivot(*args)

        setup.tab.pivot = counting
        status, _ = lp._bland(setup.tab, setup.std.basis, setup.std.width)
        return status, pivots, setup

    def compare(self, programs, mode=FLOAT):
        """Stack each group of programs of one standard-form shape and
        compare it with the LPs alone; returns (status, pivots, infeasible)
        of each LP stacked, and the number of stacks whose LPs stop after
        different numbers of pivots."""
        shapes = {}
        for program in programs:
            shapes.setdefault(lp._Phase1(program, mode).tab.rows.shape, []).append(program)
        seen, staggered = [], 0
        for group in shapes.values():
            if len(group) < 2:
                continue
            alone = [self.alone(program, mode) for program in group]
            stacked = [lp._Phase1(program, mode) for program in group]
            statuses = lp._lockstep(stacked)
            assert statuses == [status for status, _, _ in alone]
            assert ([_phase1_state(setup) for setup in stacked]
                    == [_phase1_state(setup) for _, _, setup in alone])
            for status, pivots, setup in alone:
                arts = [i for i, col in enumerate(setup.std.basis) if col >= setup.std.art_first]
                infeasible = sum(setup.tab.value(i) for i in arts) > mode.tolerance
                seen.append((status, pivots, status == lp.OPTIMAL and infeasible))
            staggered += len({pivots for _, pivots, _ in alone}) > 1
        return seen, staggered

    def test_random_lps_grouped_by_shape(self):
        rng = random.Random(2024)
        programs = [random_lp(rng) for _ in range(300)] + [sparse_lp(rng) for _ in range(300)]
        seen, staggered = self.compare(programs)
        assert len(seen) > 300 and staggered > 10
        assert any(infeasible for _, _, infeasible in seen)

    def test_margin_lps_of_random_soaps(self):
        seen, staggered = [], 0
        for group in _margin_lp_groups(30, FLOAT):
            more, stacks = self.compare(group)
            seen, staggered = seen + more, staggered + stacks
        assert len(seen) > 100 and staggered > 5
        assert any(infeasible for _, _, infeasible in seen)

    def test_phase_1_unbounded_in_a_stack(self):
        def rows(coefficient, rhs):
            return build([0], [[coefficient]] * 10, [rhs] * 10, ["ge"] * 10)

        seen, _ = self.compare([rows(1.0, 1), rows(0.05, 1), rows(0.5, 2), rows(0.05, 3)],
                               self.WIDE)
        assert [status for status, _, _ in seen] == [lp.OPTIMAL, lp.UNBOUNDED] * 2


class TestCheckFeasibleMany:
    """`lp.check_feasible_many` gives `check_feasible`'s answers, bit for
    bit, and raises each LP's error where a loop would raise it."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_answers_match_check_feasible(self, mode):
        rng = random.Random(5)
        programs = [random_lp(rng) for _ in range(200)]
        if not mode.exact:
            programs += [sparse_lp(rng) for _ in range(100)]
            programs += [p for group in _margin_lp_groups(10, mode) for p in group]
        answers = list(lp.check_feasible_many(programs, mode))
        assert repr(answers) == repr([lp.check_feasible(p, mode) for p in programs])
        assert {feasible for feasible, _ in answers} == {True, False}

    def test_errors_are_raised_in_order(self):
        ok = build([1], [[1.0]] * 10, [1] * 10, ["ge"] * 10)
        unbounded = build([0], [[0.05]] * 10, [1] * 10, ["ge"] * 10)
        unparsable = build([0], [["x"]] * 10, [1] * 10, ["ge"] * 10)
        mode = TestLockstepPhase1.WIDE
        for bad, error in ((unbounded, "phase 1 cannot be unbounded"), (unparsable, "'x'")):
            answers = lp.check_feasible_many([ok, bad, ok], mode)
            assert repr(next(answers)) == repr(lp.check_feasible(ok, mode))
            with pytest.raises(Exception, match=error) as raised:
                next(answers)
            with pytest.raises(type(raised.value)):
                lp.check_feasible(bad, mode)

    def test_a_caller_that_stops_early_finishes_no_more(self, finished_lps):
        program = build([0], [[1.0]] * 3, [1] * 3, ["ge"] * 3)
        answers = lp.check_feasible_many([program] * 5, FLOAT)
        next(answers)
        assert len(finished_lps) == 1


def exact_copy(program):
    """`program` with each float read as the nearest fraction whose
    denominator is at most 63, so that exact mode takes it."""
    def q(v):
        return Fraction(v).limit_denominator(63) if isinstance(v, float) else v

    return build([q(v) for v in program.objective],
                 [[q(v) for v in row] for row in program.matrix],
                 [q(v) for v in program.rhs], program.senses,
                 [(q(lo), q(hi)) for lo, hi in program.bounds])


class TestNonbasicTableau:
    """The exact tableau, which stores only its nonbasic columns, against
    the split-column reference: the same standard-form rows at set-up;
    after every pivot of both phases and of the artificial removal, and at
    every dropping of redundant rows, the same basis, rows, denominators
    and reduced costs; and an equal answer."""

    @staticmethod
    def programs():
        """The LP mix: random, sparse (floats read as fractions), tall and
        the fixture LPs."""
        rng = random.Random(20261020)
        programs = [random_lp(rng) for _ in range(100)]
        programs += [exact_copy(sparse_lp(rng)) for _ in range(100)]
        programs += [tall_lp(rng) for _ in range(30)]
        return programs + [program for program, _ in fixture_lps()]

    @staticmethod
    def trail(program, split=False):
        """The answer to `program` on `lp._IntTableau` or on the split-column
        tableau, a snapshot at every pivot and row drop: (step, basis,
        standard-form rows, dens, z, zd), where step is "simplex" for a
        pivot of `_bland`, "removal" for one of the artificial removal and
        "keep" for a drop; and, on `lp._IntTableau`, its layout at each
        snapshot: (row widths, slot, basic, and per row the standard-form
        columns of its basic column with their implied entries)."""
        steps, layouts, phase = [], [], ["removal"]
        tableau = SplitIntTableau if split else lp._IntTableau
        real_bland, real_pivot, real_keep = lp._bland, tableau.pivot, tableau.keep

        def snapshot(tab, step, basis):
            rows = ([list(row) for row in tab.rows] if split
                    else [[*tab._std(i), row[-1]] for i, row in enumerate(tab.rows)])
            steps.append((step, tuple(basis), rows, list(tab.dens), list(tab.z), tab.zd))
            if not split:
                implied = [[(j, s * sign * d) for j, s in tab.std_cols[k]]
                           for k, sign, d in zip(tab.basic, tab.bsign, tab.dens)]
                layouts.append(([len(row) for row in tab.rows], list(tab.slot),
                                list(tab.basic), implied))

        def bland(tab, basis, limit):
            phase[0] = "simplex"
            result = real_bland(tab, basis, limit)
            phase[0] = "removal"
            return result

        def pivot(tab, basis, row, col):
            real_pivot(tab, basis, row, col)
            snapshot(tab, phase[0], basis)

        def keep(tab, dead):
            real_keep(tab, dead)
            snapshot(tab, "keep", ())

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "_bland", bland)
            mp.setattr(tableau, "pivot", pivot)
            mp.setattr(tableau, "keep", keep)
            if split:
                mp.setattr(lp, "_standardize", list_standard_form)
                mp.setattr(lp, "_IntTableau", lambda rows, dens, vmap: SplitIntTableau(rows, dens))
            return lp.solve(program, EXACT), steps, layouts

    def test_pivots_match_the_split_column_tableau(self):
        programs = self.programs()
        steps, statuses = Counter(), set()
        for program in programs:
            bounds = _bounds(program, EXACT)
            std = lp._standardize(program, bounds, EXACT)
            want = list_standard_form(program, bounds, EXACT)
            tab = lp._IntTableau(std.rows, std.dens, std.vmap)
            assert [[*tab._std(i), row[-1]] for i, row in enumerate(tab.rows)] == want.rows
            assert _std_fields(std) == _std_fields(want)
            sol, trail, _ = self.trail(program)
            want_sol, want_trail, _ = self.trail(program, split=True)
            assert trail == want_trail
            assert sol == want_sol and repr(sol) == repr(want_sol)
            statuses.add(sol.status)
            steps.update(step for step, *_ in trail)
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
        assert steps["removal"] and steps["keep"] and steps["simplex"] > 1000
        # Free, shifted, upper-only and shifted boxed variables and negative
        # rhs all occur.
        kinds = {(lo is None, hi is None, bool(lo)) for p in programs for lo, hi in p.bounds}
        assert {(True, True, False), (False, True, True), (True, False, False),
                (False, False, True)} <= kinds
        assert any(b < 0 for p in programs for b in p.rhs)

    def test_no_basic_column_is_stored(self):
        checked = 0
        for program in self.programs():
            _, trail, layouts = self.trail(program)
            _, want_trail, _ = self.trail(program, split=True)
            assert len(layouts) == len(want_trail)
            for (step, basis, *_), layout, want in zip(trail, layouts, want_trail):
                widths, slot, basic, implied = layout
                # Each row stores the n_vars nonbasic columns and the rhs.
                assert set(widths) <= {program.n_vars + 1}
                stored = [k for k, q in enumerate(slot) if q is not None]
                assert sorted(slot[k] for k in stored) == list(range(program.n_vars))
                assert not set(stored) & set(basic)
                for i, entries in enumerate(implied):
                    if basis:
                        assert basis[i] in [j for j, _ in entries]
                    assert all(want[2][i][j] == v for j, v in entries)
                    checked += 1
        assert checked > 10000

    def test_the_twin_enters_in_artificial_removal(self, monkeypatch):
        # Row 0, 0·x ≥ 0, has a zero in every column that enters, so no
        # pivot touches it: phase 1 ends with its artificial basic at 0 and
        # its own slack, −d_0, the only nonzero left of the artificials.
        # That slack enters on a negative entry; no other row moves.
        program = build([1, 2], [[0, 0], [1, 1], [1, -1]], [0, 1, 0], [">=", ">=", "<="])
        twins = []
        pivot = lp._IntTableau.pivot

        def spy(tab, basis, row, col):
            twins.append((tab.basic[row] == tab.vmap[col][0], tab.entry(row, col)))
            pivot(tab, basis, row, col)

        monkeypatch.setattr(lp._IntTableau, "pivot", spy)
        sol, trail, _ = self.trail(program)
        want_sol, want_trail, _ = self.trail(program, split=True)
        assert twins.count((True, -1)) == 1
        assert trail == want_trail
        assert sol == want_sol and repr(sol) == repr(want_sol)
        assert sol.status == lp.OPTIMAL and sol.objective_value == F(3, 2)
        assert isinstance(sol.certificate, lp.DualCertificate)
        assert_valid_optimal(program, sol)

    @pytest.mark.parametrize("objective, status", [([1, 0], lp.OPTIMAL), ([-1, 1], lp.UNBOUNDED)],
                             ids=["optimal", "unbounded"])
    def test_lp_without_rows(self, objective, status):
        program = build(objective, [], [], [], [(0, None), (None, 2)])
        sol, trail, _ = self.trail(program)
        want_sol, want_trail, _ = self.trail(program, split=True)
        assert sol.status == status
        assert trail == want_trail
        assert sol == want_sol and repr(sol) == repr(want_sol)


class TestOracleAgreement:
    def test_random_lps_against_vertex_enumeration(self):
        rng = random.Random(2024)
        statuses = set()
        for _ in range(120):
            program = random_lp(rng)
            want_status, want_obj = brute_force_lp(program)
            statuses.add(want_status)
            sol = lp.solve(program, EXACT)
            assert sol.status == want_status
            if want_status == lp.OPTIMAL:
                assert sol.objective_value == want_obj
                assert_valid_optimal(program, sol)
            elif want_status == lp.INFEASIBLE:
                assert_valid_farkas(program, sol)
            fsol = lp.solve(program, FLOAT)
            assert fsol.status == want_status
            if want_status == lp.OPTIMAL:
                assert fsol.objective_value == pytest.approx(float(want_obj), abs=1e-6)
                assert fsol.certificate.dual_objective == pytest.approx(
                    fsol.objective_value, abs=1e-6
                )
        # The generator should exercise every outcome.
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}

    @given(st.data())
    def test_hypothesis_small_lps(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        m = data.draw(st.integers(1, 4), label="m")
        ints = st.integers(-3, 3)
        objective = data.draw(st.lists(ints, min_size=n, max_size=n))
        matrix = data.draw(
            st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)
        )
        rhs = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
        senses = data.draw(
            st.lists(st.sampled_from(["le", "ge", "eq"]), min_size=m, max_size=m)
        )
        program = build(objective, matrix, rhs, senses)
        want_status, want_obj = brute_force_lp(program)
        sol = lp.solve(program, EXACT)
        assert sol.status == want_status
        if want_status == lp.OPTIMAL:
            assert sol.objective_value == want_obj


def _linprog(program):
    """The program in `scipy.optimize.linprog` form, solved by HiGHS."""
    from scipy.optimize import linprog

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, b, sense in zip(program.matrix, program.rhs, program.senses):
        row, b = [float(v) for v in row], float(b)
        if sense == lp.LE:
            a_ub.append(row)
            b_ub.append(b)
        elif sense == lp.GE:
            a_ub.append([-v for v in row])
            b_ub.append(-b)
        else:
            a_eq.append(row)
            b_eq.append(b)
    return linprog(
        [float(v) for v in program.objective],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=list(program.bounds),
        method="highs",
    )


def boxed_lp(rng):
    """Larger integer LP with every variable in a finite box."""
    n = rng.randint(2, 7)
    m = rng.randint(2, 8)
    return build(
        [rng.randint(-5, 5) for _ in range(n)],
        [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)],
        [rng.randint(-8, 8) for _ in range(m)],
        [rng.choice(["le", "ge", "eq"]) for _ in range(m)],
        [(rng.randint(-3, 0), rng.randint(1, 4)) for _ in range(n)],
    )


class TestHighsAgreement:
    HIGHS_STATUS = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}

    @pytest.mark.parametrize("generate", [random_lp, boxed_lp], ids=["random", "boxed"])
    def test_exact_solve_matches_highs(self, generate):
        pytest.importorskip("scipy")
        rng = random.Random(11)
        statuses = set()
        for _ in range(200):
            program = generate(rng)
            sol = lp.solve(program, EXACT)
            ref = _linprog(program)
            assert sol.status == self.HIGHS_STATUS[ref.status]
            statuses.add(sol.status)
            if sol.status == lp.OPTIMAL:
                assert float(sol.objective_value) == pytest.approx(ref.fun, abs=1e-7)
            elif sol.status == lp.INFEASIBLE:
                assert_valid_farkas(program, sol)
        assert {lp.OPTIMAL, lp.INFEASIBLE} <= statuses


class TestModeAgreement:
    FIXTURES = [
        ([-1], [[1]], [5], ["<="], None),
        ([1, 1], [[1, 2], [3, 1]], [2, 3], [">=", ">="], None),
        ([0], [[1], [1]], [1, 0], [">=", "<="], [(None, None)]),
        ([2, -1, 0], [[1, 1, 1]], [4], ["="], None),
        ([1], [[1]], [3], [">="], [(0, 10)]),
    ]

    def test_status_agreement(self):
        for objective, matrix, rhs, senses, bounds in self.FIXTURES:
            program = build(objective, matrix, rhs, senses, bounds)
            exact_sol = lp.solve(program, EXACT)
            float_sol = lp.solve(program, FLOAT)
            assert exact_sol.status == float_sol.status
            if exact_sol.status == lp.OPTIMAL:
                assert float_sol.objective_value == pytest.approx(
                    float(exact_sol.objective_value), abs=1e-6
                )

    def test_custom_tolerance_mode(self):
        mode = NumericMode.floating(1e-7)
        program = build([1], [[1]], [1], [">="])
        sol = lp.solve(program, mode)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            NumericMode.floating(0.0)


def test_format_lp_mentions_every_row():
    program = build([1, 2], [[1, 0], [0, 1]], [1, 2], ["<=", ">="])
    text = lp.format_lp(program)
    assert "r0" in text and "r1" in text and "min" in text


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("soap_file", ["xor_soap.json", "always_a2_soap.json",
                                       "optimal_a1_soap.json"])
def test_each_lp_solved_is_validated_once(monkeypatch, finished_lps, soap_file, mode):
    validated = []
    real_validate = lp._validate

    def counting_validate(program):
        validated.append(program)
        real_validate(program)

    monkeypatch.setattr(lp, "_validate", counting_validate)
    bundle = parse_bundle(fixture_path("entailment.json"))
    soap = load_soap(fixture_path(soap_file), bundle)
    design_multi(bundle.env, soap, mode, reduce=True)
    check_scalar_optimality(bundle.env, soap, mode)
    assert finished_lps
    assert validated == finished_lps


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("soap_file", ["xor_soap.json", "always_a2_soap.json",
                                       "optimal_a1_soap.json"])
def test_square_solves_are_the_visitations_and_float_duals(monkeypatch, finished_lps,
                                                           soap_file, mode):
    # Exact LP certificates are read off the tableau; only float LPs solve
    # their basis for the duals.  A float stack of k visitation systems is
    # one call that solves k systems.
    squares, visitations = [], []
    real_square, real_visitation = linalg.solve_square, mdp._visitations

    def counting_square(rows, rhs, mode):
        squares.append(len(rows) if np.ndim(rows) == 3 else 1)
        return real_square(rows, rhs, mode)

    def counting_visitation(env, policies, mode):
        visitations.extend(policies)
        return real_visitation(env, policies, mode)

    monkeypatch.setattr(linalg, "solve_square", counting_square)
    monkeypatch.setattr(mdp, "_visitations", counting_visitation)
    bundle = parse_bundle(fixture_path("entailment.json"))
    soap = load_soap(fixture_path(soap_file), bundle)
    design_multi(bundle.env, soap, mode, reduce=True)
    check_scalar_optimality(bundle.env, soap, mode)
    assert visitations and finished_lps
    assert sum(squares) == len(visitations) + (0 if mode.exact else len(finished_lps))


def test_construction_validates():
    with pytest.raises(lp.LpInputError, match="row 0 has 1 coefficients, expected 2"):
        lp.LinearProgram((0, 0), ((1,),), (1,), (lp.LE,), ((0, None), (0, None)))
    with pytest.raises(lp.LpInputError, match="non-finite"):
        lp.LinearProgram((float("nan"),), ((1,),), (1,), (lp.LE,), ((0, None),))
