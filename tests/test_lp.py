import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rewardsep
from rewardsep import linalg, lp, mdp
from rewardsep.bundles import fixture_path, load_soap, parse_bundle
from rewardsep.numeric import EXACT, FLOAT, ZERO, ExactInputError, NumericMode
from rewardsep.separability import check_scalar_optimality, design_multi, design_scalar

from oracles import (
    SplitIntTableau, bounds_as_rows, brute_force_lp, farkas_gap, farkas_signs_ok,
    list_standard_form, random_lp, satisfies,
)

F = Fraction


def build(matrix, rhs, senses, free=None):
    """An LP over nonnegative variables unless `free` says otherwise."""
    return lp.LinearProgram.build(matrix, rhs, senses,
                                  [False] * len(matrix[0]) if free is None else free)


def assert_valid(program, solution, mode=EXACT):
    """A feasible answer's point meets the LP; an infeasible answer's
    Farkas certificate has the right signs and a positive gap."""
    if solution.status == lp.FEASIBLE:
        assert solution.certificate is None
        assert satisfies(program, solution.primal, mode)
        return
    assert solution.status == lp.INFEASIBLE and solution.primal is None
    y = solution.certificate.row_multipliers
    assert farkas_signs_ok(program, y, mode)
    gap = farkas_gap(program, y, mode)
    assert gap is not None and gap > 0


class TestExamples:
    def test_single_upper_bound(self):
        program = build([[1]], [5], ["le"])
        sol = lp.solve(program, EXACT)
        assert sol.status == lp.FEASIBLE
        assert sol.primal == (0,) and sol.primal[0] is ZERO
        assert_valid(program, sol)

    def test_contradictory_rows_infeasible(self):
        program = build([[1], [1]], [1, 0], ["ge", "le"], free=[True])
        sol = lp.solve(program, EXACT)
        assert sol.status == lp.INFEASIBLE
        assert_valid(program, sol)

    def test_two_variable_corner(self):
        program = build([[1, 2], [3, 1]], [2, 3], ["ge", "ge"])
        assert brute_force_lp(program) == lp.FEASIBLE
        sol = lp.solve(program, EXACT)
        assert sol.primal == (F(4, 5), F(3, 5))  # both rows tight
        assert_valid(program, sol)

    def test_check_feasible_interval(self):
        program = build([[1]], [1], ["le"])
        feasible, witness = lp.check_feasible(program, EXACT)
        assert feasible
        assert 0 <= witness[0] <= 1

    def test_check_feasible_contradiction(self):
        program = build([[1], [1]], [1, 2], ["eq", "eq"])
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
        program = build(matrix, rhs, ["eq"] * 5)
        feasible, witness = lp.check_feasible(program, EXACT)
        assert feasible
        assert witness == (F(1, 2), F(1, 2))
        # The extreme point itself is not in the hull of the other two.
        rho11 = (F(100, 19), 0, F(90, 19), 0)
        program = build(matrix, list(rho11) + [1], ["eq"] * 5)
        feasible, cert = lp.check_feasible(program, EXACT)
        assert not feasible
        assert farkas_gap(program, cert.row_multipliers, EXACT) > 0

    @pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
    def test_redundant_equality_rows(self, mode):
        # Row 0 = row 1 + 2 * row 2.  Phase 1 ends with artificials basic at
        # zero, and the point read off that basis meets every row.
        program = build(
            [[-5, -1, -3], [-1, -1, 1], [-2, 0, -2], [-2, 2, 2]],
            [-12, -4, -4, 0],
            ["eq"] * 4,
        )
        sol = lp.solve(program, mode)
        assert sol.status == lp.FEASIBLE
        assert_valid(program, sol, mode)

    def test_float_point_within_the_tolerance_keeps_its_signs(self):
        # -1e-6·x = 1e-12 is feasible within the tolerance with x = 0; the
        # artificial left basic at 1e-12 is dropped, not pivoted out onto
        # x, which would read x = -1e-6.
        program = lp.LinearProgram.build([[-1e-6]], [1e-12], ["eq"], [False])
        assert lp.check_feasible(program, FLOAT) == (True, (0.0,))

    def test_empty_variable_box(self):
        # A box is two rows; an empty one is decided infeasible.
        program = build([[1], [1]], [F(1, 2), F(1, 3)], ["ge", "le"], free=[True])
        sol = lp.solve(program, EXACT)
        assert sol.status == lp.INFEASIBLE
        assert_valid(program, sol)

    def test_equality_with_free_variables(self):
        program = build([[1, 1], [1, -1]], [2, 0], ["eq", "eq"], free=[True, True])
        sol = lp.solve(program, EXACT)
        assert sol.status == lp.FEASIBLE
        assert sol.primal == (F(1), F(1))
        assert_valid(program, sol)


class TestErrors:
    def test_dimension_mismatch(self):
        with pytest.raises(lp.LpInputError):
            build([[1]], [1], ["le"], free=[False, False])

    def test_bad_sense(self):
        for sense in ("<>", "<="):  # only "le", "eq" and "ge" are senses
            with pytest.raises(lp.LpInputError, match="unknown constraint sense"):
                build([[1]], [1], [sense])

    def test_float_rejected_in_exact_mode(self):
        program = build([[0.5]], [1], ["le"])
        with pytest.raises(ExactInputError):
            lp.solve(program, EXACT)

    def test_nonfinite_rejected(self):
        # One case per checked vector; the message names the place.
        nan, inf = float("nan"), float("inf")
        cases = {
            "row 1": ([[1.0, 0.0], [0.0, inf]], [1.0, 2.0], ["le", "le"]),
            "rhs": ([[1.0, 0.0]], [-inf], ["le"]),
        }
        for place, args in cases.items():
            with pytest.raises(lp.LpInputError, match=f"non-finite coefficient in {place}:"):
                build(*args)
        # Finite entries whose sum overflows are still finite.
        build([[1e308, 1e308]], [1.0], ["le"])
        # The first non-finite entry is named, whatever follows it.
        with pytest.raises(lp.LpInputError, match=r"in row 0: -inf$"):
            build([[1.0, -inf, inf]], [1.0], ["le"])
        # Strings and Fractions are looked past to the NaN.
        with pytest.raises(lp.LpInputError, match=r"in row 0: nan$"):
            build([[0.5, "1/2", F(1, 3), nan]], [1.0], ["le"])


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
class TestOraclesCanFail:
    """The certificate checks the LP tests rely on reject bad certificates
    and points, so those tests do not pass everything."""

    # x >= 1 and x <= 0 over a free x: the multipliers must cancel x.
    CONTRADICTION = ([[1], [1]], [1, 0], ["ge", "le"], [True])

    def test_flipped_farkas_sign(self, mode):
        program = build(*self.CONTRADICTION)
        y = lp.solve(program, mode).certificate.row_multipliers
        assert farkas_signs_ok(program, y, mode) and all(y)
        for i in range(len(y)):
            flipped = list(y)
            flipped[i] = -flipped[i]
            assert not farkas_signs_ok(program, flipped, mode)

    def test_uncancelled_free_column(self, mode):
        program = build(*self.CONTRADICTION)
        y = list(lp.solve(program, mode).certificate.row_multipliers)
        assert farkas_gap(program, y, mode) > 0
        y[0] *= 2
        assert farkas_gap(program, y, mode) is None

    def test_point_off_a_row_or_bound(self, mode):
        program = build([[1, 2], [3, 1]], [2, 3], ["ge", "ge"])
        x = (mode.convert("4/5"), mode.convert("3/5"))  # both rows tight
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
    # SHA-256 over the exact `check_feasible` answers to 200 seeded random
    # LPs, recorded with the two-phase solver, which zeroed the objective
    # and ran phase 2 and the duals of a feasible LP.  Any change to the
    # pivot sequence, the vertex reached or the Farkas multipliers changes
    # it.
    DIGEST = "97f2575e4e49d0ccdac57ca75b6b3ee76a07702412ba822e8a3c76e9ba4197e4"

    def test_random_lp_answers_unchanged(self):
        rng = random.Random(20260418)
        digest = hashlib.sha256()
        for _ in range(200):
            answer = lp.check_feasible(random_lp(rng), EXACT)
            digest.update(repr(answer).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST

    # The same over tall LPs, recorded with the same solver.
    TALL_DIGEST = "888e0e603e808244bee51ba4a0f39dcbda120ae8ad44731b6636719a613bc9b2"

    def test_tall_lp_answers_unchanged(self, monkeypatch):
        forms = []
        standardize = lp._standardize

        def spy(program, mode):
            forms.append(standardize(program, mode))
            return forms[-1]

        monkeypatch.setattr(lp, "_standardize", spy)
        rng = random.Random(20261019)
        digest = hashlib.sha256()
        statuses, redundant = [], []
        for _ in range(100):
            answer = lp.check_feasible(tall_lp(rng), EXACT)
            statuses.append(lp.FEASIBLE if answer[0] else lp.INFEASIBLE)
            # The final basis: phase 1 pivots `std.basis` in place.
            std = forms[-1]
            redundant.append(sum(col >= std.art_first for col in std.basis) if answer[0] else 0)
            digest.update(repr(answer).encode() + b"\n")
        assert statuses.count(lp.FEASIBLE) >= 30
        assert statuses.count(lp.INFEASIBLE) >= 10
        assert sum(map(bool, redundant)) >= 20  # redundant rows kept their artificials
        assert digest.hexdigest() == self.TALL_DIGEST

    # The same over the exact LPs of the design and optimality queries on
    # the bundled fixture SOAPs (margin, intersection and optimality LPs),
    # recorded with the same solver.
    FIXTURE_DIGEST = "7f991ff3bfe28664a94f904b5cc7fc38b8037610659ea60e7063368c0e48f552"

    def test_fixture_lp_answers_unchanged(self):
        solved = fixture_lps()
        assert {sol.status for _, sol in solved} == {lp.FEASIBLE, lp.INFEASIBLE}
        digest = hashlib.sha256()
        for _, sol in solved:
            digest.update(repr(check_feasible_answer(sol)).encode() + b"\n")
        assert digest.hexdigest() == self.FIXTURE_DIGEST


def check_feasible_answer(sol):
    """What `lp.check_feasible` returns for the solution `sol`."""
    return (True, sol.primal) if sol.status == lp.FEASIBLE else (False, sol.certificate)


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
    nonnegative, the others free and some bounded by rows.  The rows hold
    at a hidden point, and some are copies, multiples or negations of
    others, so that phase 1 ends with redundant rows; a shifted copy of an
    eq row makes about a fifth of them infeasible."""
    n = rng.randint(2, 9)
    point = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(n)]
    bounds = []
    for x in point:
        kind = rng.choice(["free", "nonneg", "lower", "boxed"])
        lo, hi = math.floor(x) - rng.randint(0, 2), math.ceil(x) + rng.randint(0, 2)
        bounds.append({"free": (None, None), "nonneg": (0 if x >= 0 else None, None),
                       "lower": (lo, None), "boxed": (lo, hi)}[kind])

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
    return bounds_as_rows(matrix, rhs, senses, bounds)


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
    """Larger LP with nonnegative and free variables, some free ones bounded
    below, above or both by rows, sparse rows and coefficients that are not
    exact binary fractions."""
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
    return bounds_as_rows(
        [[coefficient() for _ in range(n)] for _ in range(m)],
        [rng.randint(-30, 30) / 9 for _ in range(m)],
        [rng.choice(["le", "ge", "eq"]) for _ in range(m)],
        bounds,
    )


# LPs without rows: one over nonnegative variables, one with a free one.
ROWLESS = ([], [], [], [False, False]), ([], [], [], [False, True])


class TestPinnedFloatAnswers:
    # SHA-256 over the float.hex of every number in the float
    # `check_feasible` answers to seeded random LPs, larger sparse LPs and
    # LPs without rows, at two tolerances, recorded with the Farkas
    # multipliers read off the reduced costs.  Any change to a pivot, a rounding or the sign of a zero
    # changes it.
    DIGEST = "8590a2d01c500fc8ad50cae595c3afb1439c0d0aa1d438daa0ff5220cb0d0b12"

    @staticmethod
    def cases():
        """(mode, program) for seeded random LPs, larger sparse LPs and LPs
        without rows, at two tolerances."""
        rng = random.Random(20261018)
        programs = [random_lp(rng) for _ in range(300)]
        programs += [sparse_lp(rng) for _ in range(150)]
        programs += [lp.LinearProgram.build(*args) for args in ROWLESS]
        return [(NumericMode.floating(tolerance), program)
                for tolerance in (1e-9, 1e-6) for program in programs]

    def test_float_answers_unchanged(self):
        digest = hashlib.sha256()
        decisions = set()
        for mode, program in self.cases():
            answer = lp.check_feasible(program, mode)
            decisions.add(answer[0])
            digest.update(_hex(answer).encode() + b"\n")
        assert decisions == {True, False}
        assert digest.hexdigest() == self.DIGEST

    def test_float_certificates_prove_infeasibility(self):
        # Every float negative of the pinned set carries a Farkas
        # certificate: the right signs within the tolerance and yᵀb above
        # the supremum of yᵀA·x.
        infeasible = 0
        for mode, program in self.cases():
            sol = lp.solve(program, mode)
            if sol.status == lp.INFEASIBLE:
                y = sol.certificate.row_multipliers
                assert farkas_signs_ok(program, y, mode) and farkas_gap(program, y, mode) > 0
                infeasible += 1
        assert infeasible > 500


def mixed_lp(rng):
    """A `sparse_lp` whose coefficients and rhs are retyped at random as
    ints, Fractions, strings, floats or -0.0."""
    program = sparse_lp(rng)

    def retype(v):
        f = Fraction(v).limit_denominator(63)
        return rng.choice([v, f, f"{f.numerator}/{f.denominator}", str(float(f)),
                           int(f) if f.denominator == 1 else v, -0.0 if not v else v])

    return lp.LinearProgram.build([[retype(v) for v in row] for row in program.matrix],
                                  [retype(v) for v in program.rhs], program.senses,
                                  program.free)


def _std_fields(std):
    """Every field of a standard form but its rows and column map."""
    return tuple(getattr(std, name) for name in ("cols", "dens", "negated", "basis", "units",
                                                 "art_first", "width"))


class TestFloatStandardForm:
    """The float64 standard form equals the entry-by-entry list form,
    `float.hex` for `float.hex`, so the sign of every zero counts."""

    def assert_matches(self, program):
        std = lp._standardize(program, FLOAT)
        want = list_standard_form(program, FLOAT)
        assert std.rows.shape == (len(want.rows), want.width + 1)
        assert ([[v.hex() for v in row] for row in std.rows.tolist()]
                == [[v.hex() for v in row] for row in want.rows])
        assert _std_fields(std) == _std_fields(want)

    def test_random_and_sparse_lps(self):
        rng = random.Random(20261019)
        programs = [random_lp(rng) for _ in range(200)]
        programs += [sparse_lp(rng) for _ in range(200)]
        programs += [mixed_lp(rng) for _ in range(200)]
        programs += [lp.LinearProgram.build(*args) for args in ROWLESS]
        for program in programs:
            self.assert_matches(program)
        assert any(type(v) is float and v == 0 and math.copysign(1, v) < 0
                   for program in programs for row in program.matrix for v in row)

    @pytest.mark.parametrize("soap_file", ["xor_soap.json", "always_a2_soap.json"])
    def test_margin_and_intersection_lps_of_a_fixture(self, monkeypatch, soap_file):
        programs = []
        real = lp.check_feasible

        def recording(program, mode=EXACT):
            programs.append(program)
            return real(program, mode)

        monkeypatch.setattr(lp, "check_feasible", recording)
        bundle = parse_bundle(fixture_path("entailment.json"))
        soap = load_soap(fixture_path(soap_file), bundle)
        design_scalar(bundle.env, soap, FLOAT)
        design_multi(bundle.env, soap, FLOAT, reduce=True)
        check_scalar_optimality(bundle.env, soap, FLOAT)
        assert programs
        for program in programs:
            self.assert_matches(program)


def exact_copy(program):
    """`program` with each float read as the nearest fraction whose
    denominator is at most 63, so that exact mode takes it."""
    def q(v):
        return Fraction(v).limit_denominator(63) if isinstance(v, float) else v

    return lp.LinearProgram.build([[q(v) for v in row] for row in program.matrix],
                                  [q(v) for v in program.rhs], program.senses, program.free)


class TestNonbasicTableau:
    """The exact tableau, which stores only its nonbasic columns, against
    the split-column reference: the same standard-form rows at set-up;
    after every pivot of phase 1, the same basis, rows, denominators and
    reduced costs; and an equal answer."""

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
        tableau, a snapshot at every pivot: (basis, standard-form rows,
        dens, z, zd); and, on `lp._IntTableau`, its layout at each
        snapshot: (row widths, slot, basic, and per row the standard-form
        columns of its basic column with their implied entries)."""
        steps, layouts = [], []
        tableau = SplitIntTableau if split else lp._IntTableau
        real_pivot = tableau.pivot

        def pivot(tab, basis, row, col):
            real_pivot(tab, basis, row, col)
            rows = ([list(row) for row in tab.rows] if split
                    else [[*tab._std(i), row[-1]] for i, row in enumerate(tab.rows)])
            steps.append((tuple(basis), rows, list(tab.dens), list(tab.z), tab.zd))
            if not split:
                implied = [[(j, s * sign * d) for j, s in tab.std_cols[k]]
                           for k, sign, d in zip(tab.basic, tab.bsign, tab.dens)]
                layouts.append(([len(row) for row in tab.rows], list(tab.slot),
                                list(tab.basic), implied))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tableau, "pivot", pivot)
            if split:
                mp.setattr(lp, "_standardize", list_standard_form)
                mp.setattr(lp, "_IntTableau", lambda rows, dens, vmap: SplitIntTableau(rows, dens))
            return lp.solve(program, EXACT), steps, layouts

    def test_pivots_match_the_split_column_tableau(self):
        programs = self.programs()
        steps, statuses = 0, set()
        for program in programs:
            std = lp._standardize(program, EXACT)
            want = list_standard_form(program, EXACT)
            tab = lp._IntTableau(std.rows, std.dens, std.vmap)
            assert [[*tab._std(i), row[-1]] for i, row in enumerate(tab.rows)] == want.rows
            assert _std_fields(std) == _std_fields(want)
            sol, trail, _ = self.trail(program)
            want_sol, want_trail, _ = self.trail(program, split=True)
            assert trail == want_trail
            assert sol == want_sol and repr(sol) == repr(want_sol)
            statuses.add(sol.status)
            steps += len(trail)
        assert statuses == {lp.FEASIBLE, lp.INFEASIBLE}
        assert steps > 1000
        # Free and nonnegative variables and negative rhs all occur.
        assert {free for p in programs for free in p.free} == {True, False}
        assert any(b < 0 for p in programs for b in p.rhs)

    def test_no_basic_column_is_stored(self):
        checked = 0
        for program in self.programs():
            _, trail, layouts = self.trail(program)
            _, want_trail, _ = self.trail(program, split=True)
            assert len(layouts) == len(want_trail)
            for (basis, *_), layout, want in zip(trail, layouts, want_trail):
                widths, slot, basic, implied = layout
                # Each row stores the n_vars nonbasic columns and the rhs.
                assert set(widths) <= {program.n_vars + 1}
                stored = [k for k, q in enumerate(slot) if q is not None]
                assert sorted(slot[k] for k in stored) == list(range(program.n_vars))
                assert not set(stored) & set(basic)
                for i, entries in enumerate(implied):
                    assert basis[i] in [j for j, _ in entries]
                    assert all(want[1][i][j] == v for j, v in entries)
                    checked += 1
        assert checked > 10000

    def test_every_pivot_is_on_a_positive_entry_of_a_nonbasic_column(self, monkeypatch):
        # Bland's ratio test picks only positive entries of a column that
        # is not basic, nor (exact) a basic column's twin, whose stored
        # column would then be basic and have no slot.
        entries = {"exact": [], "float": []}
        int_pivot, float_pivot = lp._IntTableau.pivot, lp._FloatTableau.pivot

        def spy_int(tab, basis, row, col):
            k, s = tab.vmap[col]
            assert col not in basis and tab.slot[k] is not None
            entries["exact"].append(F(s * tab.rows[row][tab.slot[k]], tab.dens[row]))
            int_pivot(tab, basis, row, col)

        def spy_float(tab, basis, row, col):
            assert col not in basis
            entries["float"].append(tab.rows[row, col])
            float_pivot(tab, basis, row, col)

        monkeypatch.setattr(lp._IntTableau, "pivot", spy_int)
        monkeypatch.setattr(lp._FloatTableau, "pivot", spy_float)
        for program in self.programs():
            lp.solve(program, EXACT)
            lp.solve(program, FLOAT)
        assert len(entries["exact"]) > 1000 and len(entries["float"]) > 1000
        assert min(entries["exact"]) > 0 and min(entries["float"]) > FLOAT.tolerance

    def test_lp_without_rows(self):
        program = lp.LinearProgram.build(*ROWLESS[1])
        sol, trail, _ = self.trail(program)
        want_sol, want_trail, _ = self.trail(program, split=True)
        assert sol.status == lp.FEASIBLE and sol.primal == (0, 0)
        assert trail == want_trail == []
        assert sol == want_sol and repr(sol) == repr(want_sol)


class TestOracleAgreement:
    def test_random_lps_against_vertex_enumeration(self):
        rng = random.Random(2024)
        statuses = set()
        for _ in range(120):
            program = random_lp(rng)
            want = brute_force_lp(program)
            statuses.add(want)
            for mode in (EXACT, FLOAT):
                sol = lp.solve(program, mode)
                assert sol.status == want
                assert_valid(program, sol, mode)
        # The generator should exercise both outcomes.
        assert statuses == {lp.FEASIBLE, lp.INFEASIBLE}

    @given(st.data())
    def test_hypothesis_small_lps(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        m = data.draw(st.integers(1, 4), label="m")
        ints = st.integers(-3, 3)
        matrix = data.draw(
            st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)
        )
        rhs = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
        senses = data.draw(
            st.lists(st.sampled_from(["le", "ge", "eq"]), min_size=m, max_size=m)
        )
        program = build(matrix, rhs, senses)
        sol = lp.solve(program, EXACT)
        assert sol.status == brute_force_lp(program)
        assert_valid(program, sol)


def _linprog(program):
    """The program with a zero objective in `scipy.optimize.linprog` form,
    decided by HiGHS."""
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
        [0.0] * program.n_vars,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(None, None) if free else (0, None) for free in program.free],
        method="highs",
    )


def boxed_lp(rng):
    """Larger integer LP with every variable in a finite box, written as
    rows."""
    n = rng.randint(2, 7)
    m = rng.randint(2, 8)
    return bounds_as_rows(
        [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)],
        [rng.randint(-8, 8) for _ in range(m)],
        [rng.choice(["le", "ge", "eq"]) for _ in range(m)],
        [(rng.randint(-3, 0), rng.randint(1, 4)) for _ in range(n)],
    )


class TestHighsAgreement:
    HIGHS_STATUS = {0: lp.FEASIBLE, 2: lp.INFEASIBLE}

    @pytest.mark.parametrize("generate", [random_lp, boxed_lp], ids=["random", "boxed"])
    def test_exact_solve_matches_highs(self, generate):
        pytest.importorskip("scipy")
        rng = random.Random(11)
        statuses = set()
        for _ in range(200):
            program = generate(rng)
            sol = lp.solve(program, EXACT)
            assert sol.status == self.HIGHS_STATUS[_linprog(program).status]
            assert_valid(program, sol)
            statuses.add(sol.status)
        assert statuses == {lp.FEASIBLE, lp.INFEASIBLE}


class TestModeAgreement:
    FIXTURES = [
        ([[1]], [5], ["le"], None),
        ([[1, 2], [3, 1]], [2, 3], ["ge", "ge"], None),
        ([[1], [1]], [1, 0], ["ge", "le"], [True]),
        ([[1, 1, 1]], [4], ["eq"], None),
        ([[1], [1]], [3, 10], ["ge", "le"], None),
    ]

    def test_status_agreement(self):
        for args in self.FIXTURES:
            program = build(*args)
            exact_sol = lp.solve(program, EXACT)
            float_sol = lp.solve(program, FLOAT)
            assert exact_sol.status == float_sol.status
            assert_valid(program, float_sol, FLOAT)

    def test_custom_tolerance_mode(self):
        mode = NumericMode.floating(1e-7)
        program = build([[1]], [1], ["ge"])
        sol = lp.solve(program, mode)
        assert sol.status == lp.FEASIBLE
        assert sol.primal == pytest.approx([1.0])

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            NumericMode.floating(0.0)


def test_format_lp_mentions_every_row():
    program = build([[1, 0], [0, 1]], [1, 2], ["le", "ge"], free=[False, True])
    text = lp.format_lp(program)
    assert "r0" in text and "r1" in text and text.endswith("free: x1")


FIXTURE_DESIGNS = pytest.mark.parametrize("soap_file", ["xor_soap.json", "always_a2_soap.json",
                                                        "optimal_a1_soap.json"])
MODES = pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])


def run_fixture_designs(soap_file, mode):
    """`design_multi(reduce=True)` and `check_scalar_optimality` on a
    bundled SOAP over entailment.json."""
    bundle = parse_bundle(fixture_path("entailment.json"))
    soap = load_soap(fixture_path(soap_file), bundle)
    design_multi(bundle.env, soap, mode, reduce=True)
    check_scalar_optimality(bundle.env, soap, mode)


@MODES
@FIXTURE_DESIGNS
def test_each_lp_solved_is_validated_once(monkeypatch, solved_lps, soap_file, mode):
    validated = []
    real_validate = lp._validate

    def counting_validate(program):
        validated.append(program)
        real_validate(program)

    monkeypatch.setattr(lp, "_validate", counting_validate)
    run_fixture_designs(soap_file, mode)
    assert solved_lps
    assert validated == solved_lps


@MODES
@FIXTURE_DESIGNS
def test_lp_solve_sees_every_lp_outside_the_lockstep(monkeypatch, soap_file, mode):
    # A monkeypatched module-level `lp.solve` sees every LP built, in the
    # order built: no design solves an LP past it.  Each answer holds a
    # point or a certificate, not both.
    built, solved = [], []
    real_validate, real_solve = lp._validate, lp.solve

    def counting_validate(program):
        built.append(program)
        real_validate(program)

    def recording(program, mode=EXACT):
        sol = real_solve(program, mode)
        solved.append(program)
        assert (sol.primal is None, sol.certificate is None) == (
            (True, False) if sol.status == lp.INFEASIBLE else (False, True))
        return sol

    monkeypatch.setattr(lp, "_validate", counting_validate)
    monkeypatch.setattr(lp, "solve", recording)
    run_fixture_designs(soap_file, mode)
    assert solved
    assert list(map(id, built)) == list(map(id, solved))


@MODES
@FIXTURE_DESIGNS
def test_square_solves_are_the_visitations(monkeypatch, solved_lps, soap_file, mode):
    # The visitations are the only square solves: the Farkas multipliers of
    # an infeasible LP, float ones included, are read off its reduced
    # costs.  A stack of k visitation systems is one call that solves k
    # systems.
    squares, visitations = [], []
    real_square, real_visitation = linalg.solve_square, mdp._visitations

    def counting_square(rows, rhs, mode):
        squares.append(len(rows))
        return real_square(rows, rhs, mode)

    def counting_visitation(table, policies):
        visitations.extend(policies)
        return real_visitation(table, policies)

    monkeypatch.setattr(linalg, "solve_square", counting_square)
    monkeypatch.setattr(mdp, "_visitations", counting_visitation)
    run_fixture_designs(soap_file, mode)
    assert visitations and solved_lps
    assert sum(squares) == len(visitations)


def test_construction_validates():
    with pytest.raises(lp.LpInputError, match="row 0 has 1 coefficients, expected 2"):
        lp.LinearProgram(((1,),), (1,), (lp.LE,), (False, False))
    with pytest.raises(lp.LpInputError, match="non-finite"):
        lp.LinearProgram(((float("nan"),),), (1,), (lp.LE,), (False,))


def test_every_public_name_resolves():
    for name in rewardsep.__all__:
        assert getattr(rewardsep, name) is not None, name
