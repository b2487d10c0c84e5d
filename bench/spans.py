"""In-memory span tracer around the public functions of each rewardsep layer.

`Tracer.install` replaces every public function of the traced modules at
every place it is bound: the defining module and each module that imported
it by name (``compute_visitation`` in soap, separability, verify and cli;
``solve`` inside lp, reached through ``check_feasible``).  Each call records
a span (name, start, end, parent, query id).  `uninstall` puts the
originals back, so untraced queries run the unmodified program.

Spans are only collected here; `layer_metrics` turns them into the
per-layer numbers and `write` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from fractions import Fraction
from time import perf_counter

# numeric is not wrapped: its helpers are called per coefficient and are
# covered by the self time of their callers.
LAYERS = ("cli", "bundles", "separability", "soap", "verify", "mdp", "lp", "linalg")
QUERY = "bench.query"
_KEEP_RESULT = {"lp.solve", "mdp.enumerate_deterministic_policies"}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, qid, (args, result)]
        self._stack = []
        self._saved = []     # (namespace, attribute, original)
        self.qid = None

    # ------------------------------------------------------------ recording
    def span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self.qid, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        if name in _KEEP_RESULT:
            record[5] = (args, result)
        return result

    def query(self, qid, fn):
        """Run one query as a root span; returns its result."""
        self.qid = qid
        try:
            return self.span(QUERY, fn, (), {})
        finally:
            self.qid = None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs)

        return traced

    # ------------------------------------------------------------ patching
    def install(self):
        if self._saved:
            return
        modules = {n: importlib.import_module(f"rewardsep.{n}") for n in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        policy = modules["mdp"].Policy
        self._patch(policy, "validate_for",
                    self._wrap("mdp.Policy.validate_for", policy.validate_for))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "rewardsep" or n.startswith("rewardsep.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def _patch(self, namespace, attr, value):
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self):
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    # ------------------------------------------------------------ output
    def write(self, path):
        with open(path, "w") as out:
            out.write("index,name,start_s,end_s,parent,query\n")
            for i, (name, start, end, parent, qid, _) in enumerate(self.spans):
                out.write(f"{i},{name},{start:.9f},{end:.9f},"
                          f"{'' if parent is None else parent},{qid}\n")


def _bits(values):
    top = 0
    for v in values or ():
        if isinstance(v, Fraction):
            top = max(top, v.numerator.bit_length(), v.denominator.bit_length())
        elif isinstance(v, int):
            top = max(top, v.bit_length())
    return top


def _solution_bits(solution) -> int:
    cert = solution.certificate
    values = list(solution.primal or ())
    for attr in ("row_duals", "row_multipliers", "direction"):
        values += list(getattr(cert, attr, None) or ())
    dual_obj = getattr(cert, "dual_objective", None)
    if dual_obj is not None:
        values.append(dual_obj)
    return _bits(values)


def layer_metrics(spans, skip=()) -> dict:
    """Per-layer numbers from one traced run: per query unless the name
    says otherwise (`rows_max`, `max_bits`, `*_share`).  Spans of the
    query ids in `skip` are left out."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total = {layer: 0.0 for layer in LAYERS}
    incl = {}
    count = {}
    queries = 0
    wall = 0.0
    solves = infeasible = rows_max = cells = max_bits = enumerated = 0
    for i, (name, start, end, parent, qid, kept) in enumerate(spans):
        if qid in skip:
            continue
        duration = end - start
        if name == QUERY:
            queries += 1
            wall += duration
            continue
        layer = name.split(".", 1)[0]
        total[layer] += duration - child_time[i]
        incl[name] = incl.get(name, 0.0) + duration
        count[name] = count.get(name, 0) + 1
        if kept is None:  # the call raised
            continue
        if name == "lp.solve":
            (program, *_), solution = kept
            solves += 1
            infeasible += solution.status == "infeasible"
            max_bits = max(max_bits, _solution_bits(solution))
            rows_max = max(rows_max, program.n_rows)
            cells += program.n_rows * program.n_vars
        else:
            enumerated += len(kept[1])
    q = max(queries, 1)

    def ms(name):
        return 1000.0 * incl.get(name, 0.0) / q

    def calls(*names):
        return sum(count.get(n, 0) for n in names) / q

    out = {
        "mdp.visitation_calls": calls("mdp.compute_visitation"),
        "mdp.visitation_ms": ms("mdp.compute_visitation"),
        "mdp.validate_calls": calls("mdp.validate_env", "mdp.Policy.validate_for"),
        "mdp.validate_ms": ms("mdp.validate_env") + ms("mdp.Policy.validate_for"),
        "mdp.enumerated_policies": enumerated / q,
        "lp.solve_calls": calls("lp.solve"),
        "lp.infeasible_share": infeasible / solves if solves else 0.0,
        "lp.solve_ms": ms("lp.solve"),
        "lp.rows_max": rows_max,
        "lp.cells": cells / q,
        "lp.max_bits": max_bits,
        "linalg.solve_calls": calls("linalg.solve_square"),
        "linalg.solve_ms": ms("linalg.solve_square"),
        "separability.self_ms": 1000.0 * total["separability"] / q,
        "soap.consistency_ms": ms("soap.check_consistency"),
        "verify.calls": calls("verify.verify_realization"),
        "verify.ms": ms("verify.verify_realization"),
        "bundles.parse_ms": ms("bundles.parse_bundle"),
        "cli.self_ms": 1000.0 * total["cli"] / q,
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = total[layer] / wall if wall else 0.0
    return out
