#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wc-scaleout --seed 7 \\
        --seconds 8 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced runs: the
workload is set up and run repeatedly for ``--seconds`` of host time
(at least three times).  ``setup_s`` is the median set-up time, and
``host_run_s`` sums the median over the runs of each slice of a run;
both are scaled to a nominal host speed (see ``slices.py``).
``--trace 1`` reports the per-layer metrics: one traced set-up and run
with spans around every layer entry point (see ``layers.py``), then one
untraced run of the same inputs that gives the tracing overhead.  The
spans are written to ``perfbench/out/spans-<workload>.bin`` at the end.

Every run checks the program's output against an engine-free oracle
(``oracles.py``), checks that repeated runs of the seed agree exactly on
every simulated metric, and, when traced, that the layer self-times add
up to the traced phase times.  The last stdout line is the JSON result;
the exit code is 1 when any check failed.

The program is imported from ``src/`` next to this directory, never
from an installed copy: without it the command fails before measuring.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

# Every workload runs single-threaded: pin numpy's BLAS before it loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: end-to-end metrics, in print order, with their units (``s`` = host
#: seconds, ``sim_s`` = simulated seconds)
E2E = [
    ("setup_s", "s"),
    ("host_run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_makespan_s", "sim_s"),
    ("sim_jobs_per_s", "1/sim_s"),
    ("sim_latency_p50_s", "sim_s"),
    ("sim_latency_p95_s", "sim_s"),
]
#: a slice's median needs three runs to leave out one slow one
MIN_REPS = 3
#: set-up is short next to a run on most workloads, so it is repeated
#: until the median rests on at least MIN_SETUPS samples and
#: SETUP_SECONDS of measurement (at most MAX_SETUPS samples)
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 1.0, 200
#: the layer self-time sum may differ from the root span by float
#: rounding only
SUM_TOLERANCE_S = 1e-6


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def sim_e2e(outcome) -> dict:
    """The simulated end-to-end metrics of one run."""
    jobs = len(outcome.latencies)
    return {
        "sim_makespan_s": outcome.sim_makespan_s,
        "sim_jobs_per_s": jobs / outcome.sim_makespan_s,
        "sim_latency_p50_s": _percentile(outcome.latencies, 0.50),
        "sim_latency_p95_s": _percentile(outcome.latencies, 0.95),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, costs=None) -> dict:
    """Untraced set-ups, then runs; returns the result dict.

    Set-up is repeated on its own first (see ``MIN_SETUPS``), except for
    workloads whose ``REPEAT_SETUP`` is false: their one set-up is the
    sample.  The runs then reuse the last set-up's inputs, each on a
    freshly built cluster, until ``seconds`` of runs have passed.
    """
    from repro.core.costs import DEFAULT_HOST_COSTS
    from slices import SliceClock, Stopwatch
    costs = costs or DEFAULT_HOST_COSTS
    setups = []
    while True:
        gc.collect()
        watch = Stopwatch()
        inputs = workload.generate(seed, watch.lap)
        handle = workload.build(inputs, costs)
        watch.lap()
        setups.append(watch.seconds)
        if not workload.REPEAT_SETUP or len(setups) >= MAX_SETUPS or (
                len(setups) >= MIN_SETUPS and sum(setups) >= SETUP_SECONDS):
            break
        del handle
    expected = workload.expected(inputs)
    clock, sims = SliceClock(), []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        outcome = clock.time(workload.run, handle, workload.sim(handle))
        attempted += outcome.attempted
        failed += workload.verify(outcome, expected)
        sims.append(sim_e2e(outcome))
        del handle, outcome
        if len(clock.totals) >= MIN_REPS and \
                time.perf_counter() - start >= seconds:
            break
        handle = workload.build(inputs, costs)
    # Determinism: every repetition of the seed simulates the same thing.
    # A run that did not stop at every slice boundary simulated
    # something else too.
    mismatched = sum(1 for s in sims[1:] if s != sims[0]) + clock.diverged
    metrics = {
        "setup_s": statistics.median(setups),
        "host_run_s": clock.estimate(),
        "peak_rss_mb": _peak_rss_mb(),
        **sims[0],
    }
    return {"attempted": attempted, "failed": failed + mismatched,
            "metrics": metrics, "runs": clock.totals,
            "slices": len(clock.stops) + 1}


def traced(workload, seed: int, costs=None, spans_path=None) -> dict:
    """One traced set-up and run, then one untraced run for the overhead."""
    import layers
    from repro.core.costs import DEFAULT_HOST_COSTS
    from tracer import Tracer
    costs = costs or DEFAULT_HOST_COSTS
    tracer = Tracer()
    layers.install(tracer)
    problems = []
    try:
        gc.collect()
        before = tracer.snapshot()
        with tracer.span("bench.setup") as setup_span:
            inputs = workload.generate(seed)
            handle = workload.build(inputs, costs)
        problems += _check_sum(tracer, before, setup_span, "setup")
        before = tracer.snapshot()
        with tracer.span("bench.run") as run_span:
            outcome = workload.run(handle)
        problems += _check_sum(tracer, before, run_span, "run")
    finally:
        tracer.unwrap_all()
    del handle
    expected = workload.expected(inputs)
    failed = workload.verify(outcome, expected)
    traced_sim = (sim_e2e(outcome), layers.sim_layer_metrics(workload,
                                                             outcome))
    del outcome
    gc.collect()
    handle = workload.build(inputs, costs)
    t0 = time.perf_counter()
    outcome = workload.run(handle)
    untraced_run = time.perf_counter() - t0
    failed += workload.verify(outcome, expected)
    plain_sim = (sim_e2e(outcome), layers.sim_layer_metrics(workload,
                                                            outcome))
    if plain_sim != traced_sim:
        problems.append("simulated metrics differ between two runs of "
                        "the seed")
    metrics = layers.host_layer_metrics(tracer)
    metrics.update(plain_sim[1])
    events = metrics["simt.events"]
    metrics.update({
        "simt.us_per_event": 1e6 * untraced_run / events if events else 0.0,
        "trace.setup_s": setup_span.seconds,
        "trace.host_run_s": run_span.seconds,
        "trace.overhead_s": run_span.seconds - untraced_run,
        "trace.unattributed_s": tracer.self_s["bench.run"],
        "trace.spans": len(tracer),
    })
    if spans_path:
        tracer.write(spans_path)
    return {"attempted": 2 * outcome.attempted,
            "failed": failed + len(problems), "metrics": metrics,
            "problems": problems}


def _check_sum(tracer, before, root, phase: str) -> list:
    """Layer self-times inside ``root`` must add up to its duration."""
    after = tracer.snapshot()
    total = sum(after[k] - before.get(k, 0.0) for k in after)
    problems = []
    if tracer.depth:
        problems.append(f"{phase}: {tracer.depth} span(s) left open")
    if abs(total - root.seconds) > SUM_TOLERANCE_S:
        problems.append(f"{phase}: layer self-times sum to {total:.6f}s, "
                        f"the phase took {root.seconds:.6f}s")
    return problems


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) != \
            os.path.join(SRC, "repro"):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS, make_workload
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one "
                     f"of {', '.join(WORKLOADS)}")
    workload = make_workload(args.workload)
    if args.trace:
        import layers
        spans_path = os.path.join(HERE, "out",
                                  f"spans-{args.workload}.bin")
        out = traced(workload, args.seed, spans_path=spans_path)
        units = dict(layers.PER_LAYER)
        for problem in out["problems"]:
            print(f"CHECK FAILED: {problem}")
    else:
        out = measure(workload, args.seed, args.seconds)
        units = dict(E2E)
        runs = out["runs"]
        print(f"{args.workload} seed {args.seed}: {len(runs)} runs of "
              f"{out['slices']} slices; whole runs took "
              f"{', '.join(f'{r:.3f}' for r in runs)} s")
    for name, value in out["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':32s} "
          f"{out['failed'] / out['attempted']:>16.6g} ratio "
          f"(of {out['attempted']} attempted)")
    correct = out["failed"] == 0
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": out["metrics"][name],
                           "unit": units[name]} for name in units},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
