#!/usr/bin/env python3
"""rewardsep benchmark: one seeded workload per run, closed loop, one thread.

    python3 bench/run.py --workload design-exact --seed 1 --seconds 36 --trace 0

One client issues the next query only when the previous one has returned.
With ``--trace 0`` the loop makes passes over the workload's distinct
queries until ``--seconds`` have passed; the first pass always completes,
the last may stop part way.  Each run's time is scaled to a standard
machine speed (see speed.py), a query's latency is the median of its
runs, and percentiles and throughput are taken over the distinct
queries, so that every query counts once however often it ran.  With
``--trace 1`` every query of one round of the strata runs once untraced
and once traced, in alternating order, for as many whole passes as fit in
``--seconds``; the per-layer metrics come from the traced copies and the
tracing overhead from the difference.

Every answer is checked after the timed region (see answers.py).  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics, where `attempted` counts distinct queries and a query failed
if any of its runs did.  Lines before it, prefixed "#", give each metric
by name and unit, the failure share and messages, and the workload's
composition.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import answers  # noqa: E402
import speed  # noqa: E402
from loads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3        # this process plus two fresh ones


class QueryTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    under test can swallow it."""


def import_program():
    """Import rewardsep from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import rewardsep
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import rewardsep from {src}: {exc}")
    where = os.path.dirname(os.path.abspath(rewardsep.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"bench: rewardsep imported from {where}, expected under {src}")


def _alarm(signum, frame):
    raise QueryTimeout()


def call(fn, budget_s):
    """(latency_s, raw result or None, error message or None); the
    query is interrupted after budget_s seconds."""
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    start = perf_counter()
    try:
        raw, error = fn(), None
    except QueryTimeout:
        raw, error = None, f"timeout after {budget_s:g}s"
    except Exception as exc:  # the run keeps going; the failure is recorded
        raw, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
    return elapsed, raw, error


class Outcomes:
    """Every run of every query with its latency, checked after the loop."""

    def __init__(self):
        self.rows = []        # (query, latency_s, raw, error)
        self.scales = []      # per row: latency factor to the standard speed
        self.verdicts = {}    # qid -> fingerprint of its first, checked answer

    def add(self, query, latency, raw, error, scale=1.0):
        self.rows.append((query, latency, raw, error))
        self.scales.append(scale)

    def queries(self):
        """The distinct queries, in the order first run."""
        return list({q.qid: q for q, _, _, _ in self.rows}.values())

    def judge(self):
        """Check each answer once per query id; repeats must reproduce
        the first answer's fingerprint.

        A query fails if any of its runs raised or failed a check.  A
        wrong decision, a failed check of an exact answer or a changed
        repeat also makes it wrong, and the run incorrect; a float
        certificate outside the tolerance is a failure only.  Returns the
        failure message of each failed query and the number of wrong
        queries."""
        failures = {}
        wrong = set()
        for query, _, raw, error in self.rows:
            where = f"query {query.qid} ({query.kind}, {query.inst.family} {query.inst.size})"
            if error is not None:
                failures.setdefault(query.qid, f"{where}: {error}")
                continue
            try:
                answer = query.answer(raw)
                fp = answers.fingerprint(answer, query.exact)
                if query.qid not in self.verdicts:
                    answers.check(query.inst, query.kind, answer, query.tol)
                    self.verdicts[query.qid] = fp
                elif self.verdicts[query.qid] != fp:
                    raise answers.CheckFailed("answer differs from an earlier run of the query")
            except answers.CheckFailed as exc:
                failures.setdefault(query.qid, f"{where}: failed check: {exc}")
                repeat = query.qid in self.verdicts
                if query.exact or repeat or isinstance(exc, answers.WrongDecision):
                    wrong.add(query.qid)
        return failures, len(wrong)

    def latency_ms(self, scaled=True):
        """qid -> the median latency of the query's runs, in ms, at the
        standard speed unless `scaled` is false."""
        runs = {}
        for (query, latency, _, _), scale in zip(self.rows, self.scales):
            runs.setdefault(query.qid, []).append(latency * scale if scaled else latency)
        return {qid: 1000.0 * statistics.median(v) for qid, v in runs.items()}


def percentiles(values):
    p50 = statistics.median(values)
    p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
    return p50, p90, sum(v > p90 for v in values)


def composition(workload, outcomes):
    queries = outcomes.queries()
    decisions = [q.inst.decisions[answers.DECISION[q.kind]] for q in queries]
    return {
        "workload": workload.name,
        "sizes": dict(Counter(f"{q.inst.size}/{'exact' if q.exact else 'float'}"
                              for q in queries)),
        "kinds": dict(Counter(q.kind for q in queries)),
        "families": dict(Counter(q.inst.family for q in queries)),
        "positive_share": sum(decisions) / len(decisions),
        "negative_share": 1 - sum(decisions) / len(decisions),
        "distinct_queries": len(queries),
    }


def timed_run(queries, seconds, budget_s):
    """Passes over the queries until `seconds` have passed; the first
    pass always completes, the last may stop part way."""
    runs, references = [], []
    start = perf_counter()
    passes = 0
    while passes == 0 or perf_counter() - start < seconds:
        for query in queries:
            if passes and perf_counter() - start >= seconds:
                break
            references.append(speed.reference())
            runs.append((query, *call(query.run, budget_s)))
        passes += 1
    timed_s = perf_counter() - start
    outcomes = Outcomes()
    for run, scale in zip(runs, speed.scales(references)):
        outcomes.add(*run, scale)
    return outcomes, timed_s, passes, statistics.median(references)


def trace_run(queries, seconds, budget_s):
    """Whole passes, each query untraced and traced in alternating order;
    a further pass starts only if one more fits in `seconds`."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced = Outcomes(), Outcomes()
    start = perf_counter()
    passes = 0
    while passes == 0 or (perf_counter() - start) * (passes + 1) / passes <= seconds:
        for query in queries:
            for on in ((False, True) if query.qid % 2 == 0 else (True, False)):
                if not on:
                    plain.add(query, *call(query.run, budget_s))
                    continue
                tracer.install()
                try:
                    traced.add(query, *call(lambda q=query: tracer.query(q.qid, q.run), budget_s))
                finally:
                    tracer.uninstall()
        passes += 1
    return tracer, plain, traced, passes


def setup_in_fresh_process(args):
    """Set-up seconds, at the standard speed and raw, measured by a new
    interpreter running --setup-only."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last["setup_s"], last["raw_setup_s"]


def with_units(metrics, section):
    """{name: {"value", "unit"}} with the units BENCHMARK.json declares;
    it must declare exactly the metrics measured."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    if set(units) != set(metrics):
        raise SystemExit(f"bench: measured {sorted(metrics)}, declared {sorted(units)}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def metric_lines(metrics):
    return [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]


def failure_lines(failures, label="failure"):
    return [f"{label}: {line}" for line in failures]


def untraced_report(args, workload, queries, setup):
    outcomes, timed_s, passes, reference_s = timed_run(queries, args.seconds, workload.budget_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]

    failures, wrong = outcomes.judge()
    per_query = outcomes.latency_ms()
    attempted = len(per_query)
    failed = len(failures)
    latencies = list(per_query.values())
    p50, p90, beyond = percentiles(latencies)
    answered = sum(ms for qid, ms in per_query.items() if qid not in failures)
    metrics = with_units({
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        # Correct answers per second of one client that runs each query
        # once at its median latency.
        "queries_per_s": 1000.0 * (attempted - failed) / sum(latencies),
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": peak_rss_mb,
    }, "end_to_end")
    lines = metric_lines(metrics)
    lines.append(f"fail_share = {failed / attempted:.6g} ratio ({failed} of {attempted} queries)")
    raw_p50, raw_p90, _ = percentiles(list(outcomes.latency_ms(scaled=False).values()))
    lines.append(f"queries = {attempted}, beyond p90 = {beyond}, passes = {passes}, "
                 f"timed runs = {len(outcomes.rows)} in {timed_s:.3f} s "
                 f"({len(outcomes.rows) / timed_s:.4g} 1/s), max = {max(latencies):.1f} ms, "
                 f"time of correct answers = {answered / 1000.0:.3f} s")
    lines.append(f"raw (unscaled): latency_p50_ms = {raw_p50:.6g}, latency_p90_ms = {raw_p90:.6g}, "
                 f"setup_s = {[round(r, 4) for _, r in setups]}; reference median = "
                 f"{1000.0 * reference_s:.4g} ms, standard {speed.STANDARD_MS} ms")
    lines += failure_lines(failures.values())
    lines.append("composition " + json.dumps(composition(workload, outcomes), sort_keys=True))
    return lines, {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def traced_report(args, workload, queries):
    """One round of the strata, traced; see trace_run."""
    from spans import layer_metrics

    one_round = queries[:len(queries) // workload.copies]
    tracer, plain, traced, passes = trace_run(one_round, args.seconds, workload.budget_s)
    tracer.write(os.path.join(OUT, f"spans-{workload.name}-{args.seed}.csv"))
    failures, wrong = {}, 0
    for outcomes in (plain, traced):
        f, w = outcomes.judge()
        failures = {**f, **failures}
        wrong = max(wrong, w)
    # A query that failed, e.g. timed out, stops at a different point each
    # run; leaving its spans out keeps the counts exactly repeatable.
    errored = {q.qid for q, _, _, error in traced.rows if error is not None}
    layers = layer_metrics(tracer.spans, skip=errored)
    untraced = plain.latency_ms()
    layers["trace.overhead_ms"] = statistics.median(
        ms - untraced[qid] for qid, ms in traced.latency_ms().items())
    attempted = len(one_round)
    failed = len(failures)
    metrics = with_units(layers, "per_layer")
    lines = metric_lines(metrics)
    lines.append(f"passes = {passes}, queries per pass = {len(one_round)}, "
                 f"fail_share = {failed / attempted:.6g} ratio ({failed} of {attempted} queries)")
    lines += failure_lines(failures.values())
    lines.append("composition " + json.dumps(composition(workload, traced), sort_keys=True))
    return lines, {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = perf_counter()
    import_program()
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        queries = workload.setup(args.seed, workdir)
        raw_setup_s = perf_counter() - start
        setup = (raw_setup_s * speed.setup_scale(), raw_setup_s)
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0], "raw_setup_s": setup[1]}))
            return 0
        if args.trace:
            lines, result = traced_report(args, workload, queries)
        else:
            lines, result = untraced_report(args, workload, queries, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
