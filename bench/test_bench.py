"""The benchmark's own test: the smallest configuration of each workload,
traced, twice on a fixed seed.

    python3 -m pytest -q bench/test_bench.py
    python3 bench/test_bench.py          # rewrite fingerprints.json

The answer fingerprints must match the checked-in file, and the per-layer
counts (calls, LP sizes, bit lengths) must repeat exactly between the two
runs.
"""

import json
import os
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import answers  # noqa: E402
import run  # noqa: E402
from loads import WORKLOADS  # noqa: E402
from spans import layer_metrics  # noqa: E402

SEED = 7
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
COUNT_SUFFIXES = ("_calls", ".calls", ".enumerated_policies", ".rows_max", ".cells",
                  ".max_bits", ".infeasible_share")


def smoke(name):
    """(fingerprint per query, per-layer counts) of one traced smoke pass."""
    run.import_program()
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    try:
        queries = WORKLOADS[name].setup(SEED, workdir, smoke=True)
        tracer, plain, traced, _ = run.trace_run(queries, 0, WORKLOADS[name].budget_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prints = {}
    for outcomes in (plain, traced):
        for query, _, raw, error in outcomes.rows:
            if error is not None:
                fp = f"error: {error}"
            else:
                answer = query.answer(raw)
                fp = answers.fingerprint(answer, query.exact)
                try:
                    answers.check(query.inst, query.kind, answer, query.tol)
                except answers.CheckFailed as exc:
                    fp += f": failed check: {exc}"
            prints.setdefault(f"{query.qid}:{query.kind}", set()).add(fp)
    layers = layer_metrics(tracer.spans)
    counts = {k: v for k, v in layers.items() if k.endswith(COUNT_SUFFIXES)}
    return {k: sorted(v) for k, v in prints.items()}, counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_is_deterministic(name):
    with open(FINGERPRINTS) as handle:
        expected = json.load(handle)[name]
    first_prints, first_counts = smoke(name)
    second_prints, second_counts = smoke(name)
    assert first_prints == expected
    assert second_prints == expected
    assert first_counts == second_counts
    assert first_counts["lp.solve_calls"] > 0


if __name__ == "__main__":
    table = {name: smoke(name)[0] for name in sorted(WORKLOADS)}
    with open(FINGERPRINTS, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
