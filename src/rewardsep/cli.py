"""Command-line surface: realizability queries, verification, and plot export.

Exit codes are a function of the semantic result only: 0 for the positive
answer (consistent / realizable / verified), 1 for the negative answer
with its certificate, 2 for usage or input errors, 3 for internal faults.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass

from .bundles import (
    BundleError,
    ProblemBundle,
    load_reward,
    load_soap,
    parse_bundle,
)
from .linalg import SingularSystemError
from .lp import LpInputError
from .mdp import RewardSpec, VisitationTable, enumerate_deterministic_policies
from .numeric import EXACT, NumericMode, as_float, format_number
from .separability import (
    HullObstruction,
    InconsistentSoapError,
    OptimalityObstruction,
    OverlapObstruction,
    check_scalar_optimality,
    design_multi,
    design_scalar,
)
from .soap import check_consistency
from .verify import verify_realization

_INTERNAL_ERRORS = (SingularSystemError, LpInputError, RuntimeError)


def _mode_from_args(args) -> NumericMode:
    if getattr(args, "tol", None) is not None:
        return NumericMode.floating(args.tol)
    return EXACT


def _tolerance(text) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}"
        )
    return value


def _dimension(text) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _num(value, mode: NumericMode):
    """JSON-friendly number: canonical string in exact mode, float otherwise."""
    if mode.exact:
        return format_number(value)
    return as_float(value)


def _vec(values, mode):
    return [_num(v, mode) for v in values]


def _entries_by_sa(env, entries, mode):
    out = {}
    for s in env.states:
        out[s] = {
            a: _num(entries[env.sa_index(s, a)], mode) for a in env.actions
        }
    return out


def _reward_json(env, spec: RewardSpec, mode):
    return {
        "rows": [_entries_by_sa(env, row, mode) for row in spec.rows],
        "lower_bounds": _vec(spec.lower_bounds, mode),
    }


def _spec_lines(env, spec: RewardSpec, mode):
    lines = []
    for i, (row, bound) in enumerate(zip(spec.rows, spec.lower_bounds), start=1):
        terms = ", ".join(
            f"({s},{a})={_num(row[env.sa_index(s, a)], mode)}"
            for s in env.states
            for a in env.actions
        )
        lines.append(f"  r{i}: {terms}")
        lines.append(f"  c{i}: {_num(bound, mode)}")
    return lines


@dataclass
class _Report:
    code: int
    text: str
    payload: dict


def _write(path, text):
    """Write `text` to `path`; a path that cannot be written is an input
    error naming it."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"{path}: cannot write: {exc.strerror}") from None


def _emit(args, report: _Report) -> int:
    output = (
        json.dumps(report.payload, indent=2)
        if args.json
        else report.text
    )
    if getattr(args, "out", None):
        _write(args.out, output + "\n")
    print(output)
    return report.code


def _load_problem(args, need_soap=False, need_reward=False) -> ProblemBundle:
    bundle = parse_bundle(args.bundle)
    if getattr(args, "soap", None):
        bundle = bundle.with_soap(load_soap(args.soap, bundle))
    if getattr(args, "reward", None):
        bundle = bundle.with_reward(load_reward(args.reward, bundle.env))
    if need_soap and bundle.soap is None:
        raise BundleError("this command needs a SOAP: embed one or pass --soap FILE")
    if need_reward and bundle.reward is None:
        raise BundleError("this command needs a reward spec: embed one or pass --reward FILE")
    return bundle


def _cmd_visitation(args) -> _Report:
    mode = _mode_from_args(args)
    bundle = _load_problem(args)
    payload = {"command": "visitation", "exact": mode.exact, "policies": {}}
    lines = []
    rhos = VisitationTable(bundle.env, mode).many(bundle.policies)
    for policy, rho in zip(bundle.policies, rhos):
        payload["policies"][policy.name] = _entries_by_sa(bundle.env, rho.entries, mode)
        terms = ", ".join(
            f"({s},{a})={_num(rho.entries[bundle.env.sa_index(s, a)], mode)}"
            for s in bundle.env.states
            for a in bundle.env.actions
        )
        lines.append(f"{policy.name}: {terms}")
    return _Report(0, "\n".join(lines), payload)


def _cmd_consistency(args) -> _Report:
    mode = _mode_from_args(args)
    bundle = _load_problem(args, need_soap=True)
    report = check_consistency(bundle.env, bundle.soap, mode)
    payload = {
        "command": "consistency",
        "exact": mode.exact,
        "consistent": report.consistent,
        "witnesses": [list(w) for w in report.witnesses],
        "duplicate_good": [list(w) for w in report.duplicate_good],
        "duplicate_bad": [list(w) for w in report.duplicate_bad],
    }
    if report.consistent:
        return _Report(0, "consistent", payload)
    pairs = ", ".join(f"({g}, {b})" for g, b in report.witnesses)
    return _Report(1, f"inconsistent; coinciding visitations: {pairs}", payload)


def _obstruction_payload(env, obstruction, mode):
    if isinstance(obstruction, OverlapObstruction):
        return {
            "kind": "hull_overlap",
            "point": _entries_by_sa(env, obstruction.point, mode),
            "good_coefficients": _vec(obstruction.good_coefficients, mode),
            "bad_coefficients": _vec(obstruction.bad_coefficients, mode),
        }
    if isinstance(obstruction, HullObstruction):
        return {
            "kind": "bad_point_in_good_hull",
            "policy": obstruction.policy,
            "point": _entries_by_sa(env, obstruction.point, mode),
            "coefficients": _vec(obstruction.coefficients, mode),
        }
    if isinstance(obstruction, OptimalityObstruction):
        return {
            "kind": "optimality_farkas",
            "row_multipliers": _vec(obstruction.certificate.row_multipliers, mode),
        }
    return {"kind": type(obstruction).__name__}


def _design_report(args, command, runner) -> _Report:
    mode = _mode_from_args(args)
    bundle = _load_problem(args, need_soap=True)
    payload = {"command": command, "exact": mode.exact}
    try:
        outcome = runner(bundle, mode)
    except InconsistentSoapError as exc:
        payload.update(
            realizable=False,
            refused="inconsistent SOAP",
            witnesses=[list(w) for w in exc.report.witnesses],
        )
        return _Report(1, f"not realizable: {exc}", payload)
    if outcome.realizable:
        dim = outcome.spec.dimension
        max_dim = getattr(args, "max_dim", None)
        payload.update(
            realizable=True,
            dimension=dim,
            reward=_reward_json(bundle.env, outcome.spec, mode),
            verified=outcome.verification.realized,
        )
        lines = [f"realizable with d = {dim}"]
        lines += _spec_lines(bundle.env, outcome.spec, mode)
        lines.append("verifier: realized")
        if max_dim is not None and dim > max_dim:
            payload["max_dim_exceeded"] = True
            lines.append(f"dimension {dim} exceeds --max-dim {max_dim}")
            return _Report(1, "\n".join(lines), payload)
        return _Report(0, "\n".join(lines), payload)
    payload.update(
        realizable=False,
        obstruction=_obstruction_payload(bundle.env, outcome.obstruction, mode),
    )
    return _Report(1, "not realizable\nobstruction: " + json.dumps(
        payload["obstruction"]), payload)


def _cmd_design_scalar(args) -> _Report:
    return _design_report(
        args, "design-scalar",
        lambda bundle, mode: design_scalar(bundle.env, bundle.soap, mode),
    )


def _cmd_design_multi(args) -> _Report:
    return _design_report(
        args, "design-multi",
        lambda bundle, mode: design_multi(
            bundle.env, bundle.soap, mode, reduce=args.reduce
        ),
    )


def _cmd_design_scalar_optimal(args) -> _Report:
    return _design_report(
        args, "design-scalar-optimal",
        lambda bundle, mode: check_scalar_optimality(
            bundle.env, bundle.soap, mode, limit=args.limit
        ),
    )


def _cmd_verify(args) -> _Report:
    mode = _mode_from_args(args)
    bundle = _load_problem(args, need_soap=True, need_reward=True)
    report = verify_realization(bundle.env, bundle.soap, bundle.reward, mode)
    payload = {
        "command": "verify",
        "exact": mode.exact,
        "realized": report.realized,
        "policies": [
            {
                "name": v.name,
                "label": v.label,
                "values": _vec(v.values, mode),
                "feasible": v.feasible,
                "violated_dims": list(v.violated_dims),
                "boundary_dims": list(v.boundary_dims),
            }
            for v in report.verdicts
        ],
    }
    lines = []
    for v in report.verdicts:
        status = "feasible" if v.feasible else f"infeasible (dims {list(v.violated_dims)})"
        lines.append(f"{v.name} [{v.label}]: V = {_vec(v.values, mode)} -> {status}")
    lines.append("realized" if report.realized else "not realized")
    return _Report(0 if report.realized else 1, "\n".join(lines), payload)


def _cmd_enumerate(args) -> _Report:
    bundle = _load_problem(args)
    policies = enumerate_deterministic_policies(bundle.env, limit=args.limit)
    payload = {
        "command": "enumerate",
        "count": len(policies),
        "policies": [
            {"name": p.name, "deterministic": dict(p.action_map)} for p in policies
        ],
    }
    lines = [
        f"{p.name}: " + ", ".join(f"{s}->{p.action_map[s]}" for s in bundle.env.states)
        for p in policies
    ]
    return _Report(0, "\n".join(lines), payload)


@dataclass(frozen=True)
class PlotExport:
    """Two-axis projection of the visitation points plus the reward
    hyperplanes restricted to those axes."""

    points: tuple        # (name, label, x, y)
    hyperplanes: tuple   # (name, rx, ry, c)


def build_plot_export(bundle: ProblemBundle, axis_x, axis_y,
                      mode: NumericMode = EXACT) -> PlotExport:
    env = bundle.env
    ix = env.sa_index(*axis_x)
    iy = env.sa_index(*axis_y)
    good = {p.name for p in bundle.soap.good} if bundle.soap else set()
    bad = {p.name for p in bundle.soap.bad} if bundle.soap else set()
    points = []
    rhos = VisitationTable(env, mode).many(bundle.policies)
    for policy, rho in zip(bundle.policies, rhos):
        label = "good" if policy.name in good else "bad" if policy.name in bad else "unlabeled"
        points.append((policy.name, label, rho.entries[ix], rho.entries[iy]))
    hyperplanes = []
    if bundle.reward is not None:
        for i, (row, bound) in enumerate(
            zip(bundle.reward.rows, bundle.reward.lower_bounds), start=1
        ):
            hyperplanes.append((f"h{i}", row[ix], row[iy], bound))
    return PlotExport(points=tuple(points), hyperplanes=tuple(hyperplanes))


def plot_export_csv(export: PlotExport, mode: NumericMode = EXACT) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "label", "x", "y"])
    for name, label, x, y in export.points:
        writer.writerow([name, label, _num(x, mode), _num(y, mode)])
    writer.writerow([])
    writer.writerow(["hyperplane", "rx", "ry", "c"])
    for name, rx, ry, c in export.hyperplanes:
        writer.writerow([name, _num(rx, mode), _num(ry, mode), _num(c, mode)])
    return buffer.getvalue()


def _parse_axis(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise BundleError(f"axis must be 'state,action', got {text!r}")
    return parts[0], parts[1]


def _cmd_export_plot(args) -> _Report:
    mode = _mode_from_args(args)
    bundle = _load_problem(args)
    axis_x = _parse_axis(args.axis_x)
    axis_y = _parse_axis(args.axis_y)
    export = build_plot_export(bundle, axis_x, axis_y, mode)
    text = plot_export_csv(export, mode)
    if args.out:
        _write(args.out, text)
        out_path, args.out = args.out, None  # the CSV itself is the artifact
        return _Report(0, f"wrote {out_path}", {"command": "export-plot", "out": out_path})
    return _Report(0, text.rstrip("\n"), {"command": "export-plot", "csv": text})


def _add_common(parser, soap=False, reward=False):
    parser.add_argument("bundle", help="problem bundle JSON (bundled fixture names work)")
    parser.add_argument("--tol", type=_tolerance, default=None,
                        help="use the float backend with this tolerance "
                        "(exact rational arithmetic otherwise)")
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.add_argument("--out", default=None, help="also write the report here")
    if soap:
        parser.add_argument("--soap", default=None,
                            help="SOAP file overriding the bundle's own")
    if reward:
        parser.add_argument("--reward", default=None,
                            help="reward file overriding the bundle's own")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rewardsep",
        description="Decide and synthesize Markov reward functions that "
        "characterize sets of acceptable policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("visitation", help="print each policy's visitation vector")
    _add_common(p)
    p.set_defaults(func=_cmd_visitation)

    p = sub.add_parser("consistency", help="check that no good/bad pair shares a visitation")
    _add_common(p, soap=True)
    p.set_defaults(func=_cmd_consistency)

    p = sub.add_parser("design-scalar", help="synthesize a scalar reward (d = 1)")
    _add_common(p, soap=True)
    p.set_defaults(func=_cmd_design_scalar)

    p = sub.add_parser("design-multi", help="synthesize a multidimensional reward")
    _add_common(p, soap=True)
    p.add_argument("--reduce", action="store_true",
                   help="greedily merge hyperplanes to lower the dimension")
    p.add_argument("--max-dim", type=_dimension, default=None,
                   help="fail (exit 1) if the synthesized dimension exceeds this")
    p.set_defaults(func=_cmd_design_multi)

    p = sub.add_parser(
        "design-scalar-optimal",
        help="scalar reward making every good policy optimal and no bad one",
    )
    _add_common(p, soap=True)
    p.add_argument("--limit", type=int, default=4096,
                   help="deterministic-policy enumeration cap")
    p.set_defaults(func=_cmd_design_scalar_optimal)

    p = sub.add_parser("verify", help="check a reward spec against a SOAP")
    _add_common(p, soap=True, reward=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="list all deterministic policies")
    _add_common(p)
    p.add_argument("--limit", type=int, default=4096,
                   help="refuse when |A|^|S| exceeds this")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("export-plot", help="CSV of visitations projected on two axes")
    _add_common(p, reward=True)
    p.add_argument("--soap", default=None, help="SOAP file for good/bad labels")
    p.add_argument("--axis-x", required=True, help="x axis as 'state,action'")
    p.add_argument("--axis-y", required=True, help="y axis as 'state,action'")
    p.set_defaults(func=_cmd_export_plot)
    return parser


def run_command(argv) -> int:
    """Run one subcommand and return its exit code.  The parser is built
    once per process: parsing reads it and writes only a fresh namespace."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _emit(args, args.func(args))
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
